"""Per-layer metrics of one traced round, from the commands' traces.

Times are seconds summed over the round's commands; counts are per round.
A function's ``self_s`` is its own time, without the wrapped functions it
calls; ``<layer>.self_s`` sums the self times of a layer's functions, so
the layer self times add up to the traced ``cli.main`` spans
(``tracing.self_sum_ratio``). Each traced command's outside wall time
is ``cli.startup_s`` (spawn to ``cli.main`` entered, including imports
and installing the tracer), then the ``cli.main`` span, then
``cli.exit_s`` (writing the trace and interpreter exit);
``tracing.main_share`` is the part spent inside ``cli.main``.

Every metric is reported on every workload; a layer that does not run on
a workload reports 0.
"""

from __future__ import annotations

from tracer import LAYERS, analyze

DECODERS = ("decode_swap", "decode_transfer", "decode_liquidation", "decode_redeem",
            "decode_flashloan", "decode_oracle_update", "decode_bridge_message")
STATE_LOOKUPS = ("opportunity.StateProvider.pool_state",
                 "opportunity.StateProvider.health_factor",
                 "opportunity.StateProvider.shortfall")
SERIALIZERS = ("reporting.arbitrage_to_json", "reporting.liquidation_to_json",
               "reporting.sandwich_to_json", "reporting.fmt_fixed")
WRITERS = ("reporting.write_findings", "reporting.write_distance_cdf",
           "reporting.write_delay_stats", "reporting.write_attack_table",
           "reporting.write_bytecode_clusters")

COMMANDS = ("decode", "detect_arb", "detect_liq", "detect_flashloan", "opportunity_arb",
            "opportunity_liq", "report", "detect_sandwich", "crosslayer_infer",
            "crosslayer_delay", "crosslayer_simulate", "bytecode_cluster")

UNITS = {
    **{f"cli.{c}.wall_s": "s" for c in COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.startup_s": "s",
    "cli.exit_s": "s",
    "chain_model.load_fixture.calls": "count",
    "chain_model.load_fixture.self_s": "s",
    "chain_model.load_fixture.us_per_record": "us",
    "chain_model.logs_in_range.calls": "count",
    "chain_model.logs_in_range.self_s": "s",
    "chain_model.logs_in_range.logs_scanned": "count",
    "chain_model.logs_in_range.hit_ratio": "ratio",
    "chain_model.group_logs_by_tx.calls": "count",
    "chain_model.group_logs_by_tx.self_s": "s",
    "registry.lookup.calls": "count",
    "registry.lookups_per_log": "ratio",
    "decoding.calls": "count",
    "decoding.calls_per_log": "ratio",
    "decoding.yield_ratio": "ratio",
    "decoding.rejects": "count",
    "detectors.detect_arbitrages.self_s": "s",
    "detectors.detect_liquidations.self_s": "s",
    "detectors.attribute_flash_loans.self_s": "s",
    "detectors.profit.self_s": "s",
    "detectors.detect_sandwiches.self_s": "s",
    "detectors.detect_sandwiches.transfers": "count",
    "detectors.detect_sandwiches.findings": "count",
    "opportunity.find_arbitrage_opportunity.calls": "count",
    "opportunity.find_arbitrage_opportunity.self_s": "s",
    "opportunity.find_liquidation_opportunity.calls": "count",
    "opportunity.find_liquidation_opportunity.self_s": "s",
    "opportunity.found_ratio": "ratio",
    "opportunity.state_lookups": "count",
    "opportunity.state_lookup_s": "s",
    "opportunity.from_jsonl.self_s": "s",
    "amm.swap_out.calls": "count",
    "amm.swap_out.self_s": "s",
    "amm.stable_share": "ratio",
    "amm.simulate_path.calls": "count",
    "crosslayer.optimal_frontrun.calls": "count",
    "crosslayer.optimal_frontrun.self_s": "s",
    "crosslayer.swaps_per_frontrun": "ratio",
    "crosslayer.zero_size_ratio": "ratio",
    "crosslayer.capital_sweep.self_s": "s",
    "crosslayer.infer_victims.self_s": "s",
    "crosslayer.infer_victims.links": "count",
    "crosslayer.infer_victims.candidates": "count",
    "crosslayer.infer_victims.unlinked": "count",
    "crosslayer.delay_stats.self_s": "s",
    "bytecode.load_bytecode_fixture.self_s": "s",
    "bytecode.normalize.self_s": "s",
    "bytecode.normalize.calls": "count",
    "bytecode.cluster.self_s": "s",
    "bytecode.distinct_ratio": "ratio",
    "keccak.keccak256.calls": "count",
    "keccak.keccak256.bytes": "count",
    "keccak.keccak256.self_s": "s",
    "keccak.hashes_per_skeleton": "ratio",
    "reporting.serialize.self_s": "s",
    "reporting.write.self_s": "s",
    "reporting.emit_report.self_s": "s",
    "reporting.bytes_written": "count",
    "tracing.overhead_ratio": "ratio",
    "tracing.main_share": "ratio",
    "tracing.self_sum_ratio": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def merge(runs):
    """Sum the analyzed traces of one round's command runs."""
    funcs, counters, errors, under = {}, {}, {}, {}
    for run in runs:
        trace = run.result["trace"]
        analysis = analyze(trace)
        for name, f in analysis["funcs"].items():
            acc = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += f[k]
        for src, dst in ((trace["counters"], counters), (trace["errors"], errors),
                         (analysis["under"], under)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return funcs, counters, errors, under


def round_metrics(runs) -> dict:
    """Per-layer metrics of one traced round (every UNITS name except the
    ones the harness adds from untraced rounds). Commands that failed
    before writing a trace are left out."""
    runs = [r for r in runs if r.result and "trace" in r.result]
    funcs, counters, errors, under = merge(runs)

    def calls(*names):
        return sum(funcs.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(funcs.get(n, {}).get("self_s", 0.0) for n in names)

    def counter(name):
        return counters.get(name, 0)

    m = {f"{layer}.self_s": sum(f["self_s"] for n, f in funcs.items()
                                if n.split(".")[0] == layer) for layer in LAYERS}
    m["cli.startup_s"] = sum(r.result["main_start"] - r.spawn for r in runs)
    m["cli.exit_s"] = sum(r.exit - r.result["main_end"] for r in runs)
    logs = counter("chain_model.logs_loaded")
    decoders = [f"decoding.{d}" for d in DECODERS]
    scanned = counter("chain_model.logs_in_range.logs_scanned")
    lookups = calls("registry.TopicRegistry.lookup")
    opp_calls = calls("opportunity.find_arbitrage_opportunity",
                      "opportunity.find_liquidation_opportunity")
    frontruns = calls("crosslayer.optimal_frontrun")
    normalized = calls("bytecode.normalize")
    distinct = counter("bytecode.distinct_skeletons")
    main_s = sum(r.result["main_end"] - r.result["main_start"] for r in runs)
    m.update({
        "chain_model.load_fixture.calls": calls("chain_model.load_fixture"),
        "chain_model.load_fixture.self_s": self_s("chain_model.load_fixture"),
        "chain_model.load_fixture.us_per_record": _ratio(
            1e6 * self_s("chain_model.load_fixture"), counter("chain_model.records")),
        "chain_model.logs_in_range.calls": calls("chain_model.logs_in_range"),
        "chain_model.logs_in_range.self_s": self_s("chain_model.logs_in_range"),
        "chain_model.logs_in_range.logs_scanned": scanned,
        "chain_model.logs_in_range.hit_ratio": _ratio(
            counter("chain_model.logs_in_range.hits"), scanned),
        "chain_model.group_logs_by_tx.calls": calls("chain_model.group_logs_by_tx"),
        "chain_model.group_logs_by_tx.self_s": self_s("chain_model.group_logs_by_tx"),
        "registry.lookup.calls": lookups,
        "registry.lookups_per_log": _ratio(lookups, logs),
        "decoding.calls": calls(*decoders),
        "decoding.calls_per_log": _ratio(calls(*decoders), logs),
        "decoding.yield_ratio": _ratio(counter("decoding.yields"), calls(*decoders)),
        "decoding.rejects": sum(errors.get(d, 0) for d in decoders),
        "detectors.detect_arbitrages.self_s": self_s("detectors.detect_arbitrages"),
        "detectors.detect_liquidations.self_s": self_s("detectors.detect_liquidations"),
        "detectors.attribute_flash_loans.self_s": self_s("detectors.attribute_flash_loans"),
        "detectors.profit.self_s": self_s("detectors.arbitrage_profit",
                                          "detectors.liquidation_profit"),
        "detectors.detect_sandwiches.self_s": self_s("detectors.detect_sandwiches"),
        "detectors.detect_sandwiches.transfers": counter(
            "detectors.detect_sandwiches.transfers"),
        "detectors.detect_sandwiches.findings": counter(
            "detectors.detect_sandwiches.findings"),
        "opportunity.find_arbitrage_opportunity.calls": calls(
            "opportunity.find_arbitrage_opportunity"),
        "opportunity.find_arbitrage_opportunity.self_s": self_s(
            "opportunity.find_arbitrage_opportunity"),
        "opportunity.find_liquidation_opportunity.calls": calls(
            "opportunity.find_liquidation_opportunity"),
        "opportunity.find_liquidation_opportunity.self_s": self_s(
            "opportunity.find_liquidation_opportunity"),
        "opportunity.found_ratio": _ratio(counter("opportunity.found"), opp_calls),
        "opportunity.state_lookups": calls(*STATE_LOOKUPS),
        "opportunity.state_lookup_s": self_s(*STATE_LOOKUPS),
        "opportunity.from_jsonl.self_s": self_s("opportunity.StateProvider.from_jsonl"),
        "amm.swap_out.calls": calls("amm.swap_out"),
        "amm.swap_out.self_s": self_s("amm.swap_out"),
        "amm.stable_share": _ratio(counter("amm.swap_out.stable"), calls("amm.swap_out")),
        "amm.simulate_path.calls": calls("amm.simulate_path"),
        "crosslayer.optimal_frontrun.calls": frontruns,
        "crosslayer.optimal_frontrun.self_s": self_s("crosslayer.optimal_frontrun"),
        "crosslayer.swaps_per_frontrun": _ratio(
            under.get(("crosslayer.optimal_frontrun", "amm.swap_out"), 0), frontruns),
        "crosslayer.zero_size_ratio": _ratio(
            counter("crosslayer.optimal_frontrun.zero_size"), frontruns),
        "crosslayer.capital_sweep.self_s": self_s("crosslayer.capital_sweep"),
        "crosslayer.infer_victims.self_s": self_s("crosslayer.infer_victims"),
        "crosslayer.infer_victims.links": counter("crosslayer.infer_victims.links"),
        "crosslayer.infer_victims.candidates": counter(
            "crosslayer.infer_victims.candidates"),
        "crosslayer.infer_victims.unlinked": counter("crosslayer.infer_victims.unlinked"),
        "crosslayer.delay_stats.self_s": self_s("crosslayer.delay_stats"),
        "bytecode.load_bytecode_fixture.self_s": self_s("bytecode.load_bytecode_fixture"),
        "bytecode.normalize.self_s": self_s("bytecode.normalize"),
        "bytecode.normalize.calls": normalized,
        "bytecode.cluster.self_s": self_s("bytecode.cluster"),
        "bytecode.distinct_ratio": _ratio(distinct, normalized),
        "keccak.keccak256.calls": calls("keccak.keccak256"),
        "keccak.keccak256.bytes": counter("keccak.keccak256.bytes"),
        "keccak.keccak256.self_s": self_s("keccak.keccak256"),
        "keccak.hashes_per_skeleton": _ratio(calls("keccak.keccak256"), distinct),
        "reporting.serialize.self_s": self_s(*SERIALIZERS),
        "reporting.write.self_s": self_s(*WRITERS),
        "reporting.emit_report.self_s": self_s("reporting.emit_report"),
        "reporting.bytes_written": counter("reporting.bytes_written"),
        "tracing.main_share": _ratio(main_s, sum(r.wall for r in runs)),
        "tracing.self_sum_ratio": _ratio(sum(f["self_s"] for f in funcs.values()), main_s),
    })
    return m
