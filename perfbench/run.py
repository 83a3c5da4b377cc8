#!/usr/bin/env python3
"""Benchmark of the mevlens CLI over seeded, generated workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is l1_history, l2_crosslayer, bytecode_corpus, or ``all`` for the
three in turn. Run it from anywhere inside a checkout; it builds nothing,
imports ``mevlens`` from the checkout's ``src/`` and keeps its files in
``.bench_work/`` at the checkout root.

Each workload is a closed loop with one client: a round runs the
workload's commands in order, each in a fresh process (``child.py``)
started only after the previous one exited, from this single harness
process. No ``--jobs`` flag is passed. Input generation and a warm-up
round come first and are not timed; then rounds repeat until S seconds
have passed, and every round's outputs are checked against the planted
ground truth and against the first round's bytes.

With ``--trace 0`` the result carries the end-to-end metrics, each a
median over the timed rounds:
  wall_s         sum of the command walls (spawn to exit) of a round
  records_per_s  input records parsed per round (fixture lines and
                 sidecar rows, summed over the commands that read them)
                 divided by wall_s
  setup_s        spawn of a command process to ``mevlens.cli`` imported,
                 median over every command of every timed round
  peak_rss_mb    largest peak RSS (VmHWM) of any command process in a round
The error rate (failed commands / attempted) is printed and is also the
``failed`` / ``attempted`` pair of the result.

The time metrics are scaled to a nominal machine speed. Before every
command the harness times a reference process (interpreter start-up and
the imports of mevlens's dependencies, not mevlens itself) and scales
wall_s and setup_s by REFERENCE_NOMINAL_S over the run's median reference
time (records_per_s inversely). On a shared machine whose speed drifts by
tens of percent over minutes this halves the run-to-run spread; the
unscaled values are printed and kept in the summary line under ``raw``.

With ``--trace 1`` half of the time runs untraced rounds and half runs
rounds whose commands are traced by ``tracer.py``; the result carries
the per-layer metrics (medians over the traced rounds, counts per round)
plus ``tracing.overhead_ratio``, the traced over the untraced round wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine (nproc, Python version, 1-minute load average),
the measured input properties and the raw values. The benchmark neither
pins CPUs nor controls their frequency.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".bench_work"
WORKLOADS = ("l1_history", "l2_crosslayer", "bytecode_corpus")

REFERENCE_CODE = ("import click, csv, json, fractions, dataclasses, datetime, logging, enum, "
                  "glob, concurrent.futures, typing")
REFERENCE_NOMINAL_S = 0.13   # reference process wall time at the nominal speed

END_TO_END = (("wall_s", "s"), ("records_per_s", "records/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))


class CommandRun:
    def __init__(self, name, spawn, exit_, status):
        self.name = name
        self.spawn = spawn
        self.exit = exit_
        self.rc = os.waitstatus_to_exitcode(status)
        self.stdout = ""
        self.result = None
        self.problems = []

    @property
    def wall(self):
        return self.exit - self.spawn

    @property
    def failed(self):
        return bool(self.problems)


def _spawn_and_wait(argv, stdout_path, stderr_path):
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644)]
    spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    _, status = os.waitpid(pid, 0)
    return spawn, time.monotonic(), status


def run_round(wl, work, index, traced, first_digests, refs=None):
    """Run every command of ``wl`` once, in order, then check the outputs.
    Returns the CommandRuns; fills ``first_digests`` on the first call.
    With ``refs``, a reference process runs before each command and its
    wall time is appended there."""
    out = wl.truth["out"]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    res = os.path.join(work, "results")
    os.makedirs(res, exist_ok=True)
    runs = []
    for i, cmd in enumerate(wl.commands):
        base = os.path.join(res, str(i))
        if os.path.exists(base + ".json"):
            os.remove(base + ".json")
        if refs is not None:
            refs.append(reference_run())
        argv = [sys.executable, os.path.join(HERE, "child.py"), base + ".json",
                f"{wl.name}:{index}:{cmd.name}", "1" if traced else "0", "--"] + cmd.argv
        runs.append(CommandRun(cmd.name, *_spawn_and_wait(argv, base + ".out",
                                                          base + ".err")))
    stdouts = {}
    for i, run in enumerate(runs):
        base = os.path.join(res, str(i))
        with open(base + ".out", encoding="utf-8", errors="replace") as fh:
            run.stdout = stdouts[run.name] = fh.read()
        if run.rc != 0:
            with open(base + ".err", encoding="utf-8", errors="replace") as fh:
                run.problems.append(f"exit code {run.rc}: {fh.read()[-500:]}")
        try:
            with open(base + ".json", encoding="utf-8") as fh:
                run.result = json.load(fh)
        except (OSError, ValueError):
            run.problems.append("no result from the command process")
    for run, problems in zip(runs, checks.check(wl, stdouts).values()):
        run.problems.extend(problems)
        digest = checks.output_digest(out, run.name, run.stdout)
        if first_digests.setdefault(run.name, digest) != digest:
            run.problems.append("output differs from the first round")
    return runs


def _median(values):
    return statistics.median(values) if values else 0.0


def _round_wall(runs):
    """Sum of the command walls: the reference processes run between
    commands are not part of the round."""
    return sum(c.wall for c in runs)


def reference_run():
    """Wall time of one reference process: interpreter start-up plus the
    imports of mevlens's dependencies, without mevlens itself."""
    spawn, exit_, status = _spawn_and_wait([sys.executable, "-c", REFERENCE_CODE],
                                           os.devnull, os.devnull)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("reference process failed")
    return exit_ - spawn


def raw_metrics(wl, rounds):
    wall = _median([_round_wall(r) for r in rounds])
    return {
        "wall_s": wall,
        "records_per_s": wl.total_records / wall,
        "setup_s": _median([c.result["imported"] - c.spawn for r in rounds for c in r
                            if c.result]),
        "peak_rss_mb": _median([max(c.result["peak_rss_kb"] for c in r if c.result) / 1024
                                for r in rounds]),
    }


def end_to_end_metrics(wl, rounds, refs):
    """Raw medians with times scaled to the machine speed at which the
    reference process takes REFERENCE_NOMINAL_S."""
    m = raw_metrics(wl, rounds)
    scale = REFERENCE_NOMINAL_S / _median([x for r in refs for x in r])
    m["wall_s"] *= scale
    m["setup_s"] *= scale
    m["records_per_s"] /= scale
    return m


def per_layer_metrics(untraced, traced):
    """Per-layer metrics: medians over the traced rounds, plus outside-in
    command walls from the untraced rounds and the tracing overhead."""
    per_round = [layers.round_metrics(r) for r in traced]
    names = per_round[0].keys()
    metrics = {name: _median([m[name] for m in per_round]) for name in names}
    for cmd in layers.COMMANDS:
        metrics[f"cli.{cmd}.wall_s"] = _median(
            [c.wall for r in untraced for c in r if c.name == cmd])
    metrics["tracing.overhead_ratio"] = (_median([_round_wall(r) for r in traced])
                                         / _median([_round_wall(r) for r in untraced]))
    return metrics


def machine_info():
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "loadavg_1m": os.getloadavg()[0],
            "platform": platform.platform(),
            "cpu_pinning": "none", "frequency_control": "none"}


def run_workload(name, seed, seconds, trace, machine):
    from workloads import GENERATORS   # imports mevlens from src/

    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    wl = GENERATORS[name](seed, os.path.join(work, "inputs"))
    digests: dict = {}
    all_runs = [run_round(wl, work, 0, False, digests)]   # warm-up, untimed

    refs = []

    def timed(traced, budget):
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < budget:
            round_refs = []
            rounds.append(run_round(wl, work, len(all_runs), traced, digests, round_refs))
            refs.append(round_refs)
            all_runs.append(rounds[-1])
        return rounds

    untraced = timed(False, seconds / 2 if trace else seconds)
    if trace:
        metrics = per_layer_metrics(untraced, timed(True, seconds / 2))
        units = layers.UNITS
    else:
        metrics = end_to_end_metrics(wl, untraced, refs)
        units = dict(END_TO_END)
    commands = [c for r in all_runs for c in r]
    failed = [c for c in commands if c.failed]
    summary = {
        "workload": name, "seed": seed, "machine": machine,
        "rounds": {"warmup": 1, "untraced": len(untraced),
                   "traced": len(all_runs) - 1 - len(untraced)},
        "round_wall_s": [_round_wall(r) for r in untraced],
        "reference_s": [x for r in refs for x in r],
        "raw": raw_metrics(wl, untraced),
        "records_per_round": wl.total_records,
        "inputs": wl.properties,
        "output_digest": sorted(digests.items()),
        "error_rate": len(failed) / len(commands),
        "failures": [f"{c.name}: {p}" for c in failed for p in c.problems][:10],
    }
    return metrics, units, len(commands), len(failed), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mevlens", "cli.py")):
        print(f"perfbench: no mevlens sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    machine = machine_info()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, units, attempted, failed, summary = run_workload(
            name, args.seed, args.seconds, bool(args.trace), machine)
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"# {name} (seed {args.seed}, trace {args.trace}): "
              f"{summary['rounds']} rounds, {attempted} commands, {failed} failed")
        print(f"  {'error_rate':40s} {summary['error_rate']:.6g} ratio")
        if not args.trace:
            print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in summary["raw"].items())
                  + f", reference_s {statistics.median(summary['reference_s']):.6g}")
        for metric, value in metrics.items():
            print(f"  {metric:40s} {value:.6g} {units[metric]}")
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
        for failure in summary["failures"]:
            print(f"  FAILED {failure}")
        result["attempted"] += attempted
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0
        print(json.dumps(summary, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
