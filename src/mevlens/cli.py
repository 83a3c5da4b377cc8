"""Command-line entry point and pipeline orchestration."""

from __future__ import annotations

import atexit
import gc
import os
import sys

# Each command imports the modules it runs, its handlers' among them, so a
# process compiles and loads only those: the chain model is all that every
# chain command shares.
from .chain_model import CHAINS, Layer, _log as log, load_fixture, logs_in_range
from .errors import MevlensError

LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _setup_logging():
    """Configure logging when MEVLENS_LOG names a level. Unset, it is not
    imported: mevlens logs nothing above INFO, so no record would print."""
    level = os.environ.get("MEVLENS_LOG")
    if level is None:
        return
    if level.upper() not in LEVELS:
        raise MevlensError(f"MEVLENS_LOG: unknown level {level!r}, "
                           f"expected one of {', '.join(LEVELS)}")
    import logging
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")


# the checks on an option's value; each failure is a usage error, and only
# a failure imports argparse, whose error it raises
def _usage_error(message):
    from argparse import ArgumentTypeError
    return ArgumentTypeError(message)


def _path(value):
    if not os.path.exists(value):
        # a link whose target is missing or leads back to itself: the name exists
        what = "is a broken or looping symlink" if os.path.lexists(value) else "does not exist"
        raise _usage_error(f"path {value!r} {what}")
    return value


def _directory(value):
    if os.path.isfile(value):
        raise _usage_error(f"{value!r} is a file, not a directory")
    return value


def _file(value):
    if os.path.isdir(_path(value)):
        raise _usage_error(f"{value!r} is a directory, not a file")
    return value


def _fixture_directory(value):
    return _directory(_path(value))


def _at_least_1(value):
    try:
        number = int(value)
    except ValueError:
        raise _usage_error(f"{value!r} is not an integer") from None
    if number < 1:
        raise _usage_error(f"{number} is not >= 1")
    return number


# each option: its flag and its add_argument keywords
DEFAULT = "default: %(default)s"
_CHAIN_OPTIONS = (
    ("--chain", dict(dest="chain_name", choices=sorted(CHAINS), default="ethereum", help=DEFAULT)),
    ("--from-block", dict(type=int, metavar="N")),
    ("--to-block", dict(type=int, metavar="N")),
    ("--fixtures", dict(dest="fixtures_dir", required=True, type=_fixture_directory,
                        metavar="DIR")),
)
# a cross-layer command joins the ethereum fixture with one rollup's
_L2_CHAIN_OPTIONS = (
    ("--chain", dict(dest="chain_name", required=True, choices=sorted(
        name for name, chain in CHAINS.items() if chain.layer is Layer.L2))),
    _CHAIN_OPTIONS[-1],
)
TYPE = ("--type", dict(dest="mev_type", choices=["arb", "liq"], default="arb", help=DEFAULT))
PRICES = ("--prices", dict(dest="prices_file", type=_file, metavar="FILE"))
POOLS = ("--pools", dict(dest="pools_file", type=_file, metavar="FILE"))
SNAPSHOTS = ("--snapshots", dict(dest="snapshots_file", type=_file, required=True, metavar="FILE"))
CONFIG = ("--config", dict(dest="config_file", type=_file, metavar="FILE"))
WINDOW = ("--window", dict(type=_at_least_1, default=100, metavar="BLOCKS", help=DEFAULT))
HORIZON = ("--horizon", dict(type=_at_least_1, default=100, metavar="BLOCKS", help=DEFAULT))
OUT = ("--out", dict(dest="out_dir", default="out", type=_directory, metavar="DIR", help=DEFAULT))
BYTECODE = ("--bytecode", dict(dest="bytecode_file", required=True, type=_file, metavar="FILE"))


class Ctx:
    """The options of one command, with its inputs loaded on first use."""

    _pools = _prices = None
    from_block = to_block = None  # a cross-layer command has none: L1 and L2 number blocks apart

    def dataset(self, chain_name=None, categories=None):
        name = chain_name or self.chain_name
        ds = load_fixture(os.path.join(self.fixtures_dir, f"{name}.jsonl"), categories)
        if ds.chain is None:  # a fixture with no records is of the chain its file names
            ds.chain = CHAINS[name]
        # the records live until the command ends: keep the collector's
        # full passes from walking them again (``main`` thaws them)
        gc.freeze()
        if self.from_block is not None or self.to_block is not None:
            lo = self.from_block if self.from_block is not None else 0
            hi = self.to_block if self.to_block is not None else (1 << 62)
            ds.logs = logs_in_range(ds, lo, hi)
        return ds

    def pools(self):
        if self._pools is None and self.pools_file:
            from .amm import load_pool_metadata
            self._pools = load_pool_metadata(self.pools_file)
        return self._pools

    def prices(self):
        if self._prices is None and self.prices_file:
            from .reporting import PriceProvider
            self._prices = PriceProvider.from_csv(self.prices_file)
        return self._prices

    def ensure_out(self):
        os.makedirs(self.out_dir, exist_ok=True)
        return self.out_dir

    def write(self, name, rows):
        """Write the rows an iterator yields; --out is made only once the last
        one is in, so a row that raises leaves no output."""
        from .reporting import write_findings
        path = os.path.join(self.out_dir, name)
        print(f"{write_findings(rows, path)} findings -> {path}")


GROUPS = {
    "detect": "Run one MEV detector over a chain fixture.",
    "crosslayer": "Cross-layer victim inference, delay stats, attack simulation.",
    "bytecode": "Bytecode normalization and clustering.",
}
# every command, "group leaf" or "leaf": the options it takes, in the order
# --help lists them, its help, and the module that runs it, imported only
# once argv has named the command (that module's RUN maps the command to
# its function). No such module imports this one: under ``python -m`` it
# would compile and run a second time.
COMMANDS = {
    "decode": (_CHAIN_OPTIONS, "Count the fixture's logs per event schema.", "cli_decode"),
    "detect arb": (_CHAIN_OPTIONS + (POOLS, PRICES, OUT),
                   "Cyclic arbitrages, priced, with their flash loans.", "cli_detect"),
    "detect liq": (_CHAIN_OPTIONS + (PRICES, OUT),
                   "Liquidations, priced, with their flash loans.", "cli_detect"),
    "detect sandwich": (_CHAIN_OPTIONS + (WINDOW, OUT),
                        "Sandwiches: in one block on L1, within --window blocks on L2.",
                        "cli_detect"),
    "detect flashloan": (_CHAIN_OPTIONS + (OUT,), "Flash loans of the supported providers.",
                         "cli_detect"),
    "opportunity": (_CHAIN_OPTIONS + (TYPE, POOLS, SNAPSHOTS, HORIZON, OUT),
                    "The transaction that opened each finding's opportunity.",
                    "cli_opportunity"),
    "compete": (_CHAIN_OPTIONS + (TYPE, POOLS, SNAPSHOTS, HORIZON, OUT),
                "Opportunities that findings of two or more extractors share.",
                "cli_opportunity"),
    "crosslayer infer": (_L2_CHAIN_OPTIONS + (POOLS, OUT),
                         "Victim swaps in L2 executions of L1 bridge messages.",
                         "cli_crosslayer"),
    "crosslayer delay": (_L2_CHAIN_OPTIONS + (POOLS, OUT),
                         "Inclusion delays from L1 bridge message to L2 execution.",
                         "cli_crosslayer"),
    "crosslayer simulate": (_L2_CHAIN_OPTIONS + (POOLS, PRICES, SNAPSHOTS, CONFIG, OUT),
                            "Sandwich attack tables per strategy and capital tier.",
                            "cli_crosslayer"),
    "bytecode cluster": ((BYTECODE, OUT), "Cluster identical bytecode skeletons across chains.",
                         "cli_bytecode"),
    "report": ((OUT, PRICES), "Summarize all findings_*.jsonl files in the output directory.",
               "cli_report"),
}


def _from_table(argv):
    """The options of a command line in its canonical shape, read straight
    from ``COMMANDS`` as argparse would read them; None for any other line.

    The shape: the command, then ``--flag value`` pairs, each flag one of
    the command's own, in full and at most once, no value starting with
    ``-``, every required option given and every value passing its check.
    A value that fails is left to argparse to check again: argparse alone
    prints help, words a usage error and reads any other shape, so a
    well-formed command never imports it."""
    for words in (2, 1):
        name = " ".join(argv[:words])
        if name in COMMANDS and name.split(" ") == argv[:words]:
            break
    else:
        return None
    options = COMMANDS[name][0]
    rest = argv[words:]
    given = dict(zip(rest[::2], rest[1::2]))
    if 2 * len(given) != len(rest):  # a flag without its value, or given twice
        return None
    ctx = Ctx()
    ctx.command = name
    for flag, keywords in options:
        value = given.pop(flag, None)
        if value is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        elif value.startswith("-"):
            return None
        # argparse passes a value, and a string default, through the type
        check = keywords.get("type")
        if check is not None and isinstance(value, str):
            try:
                value = check(value)
            except Exception:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        setattr(ctx, keywords.get("dest", flag[2:].replace("-", "_")), value)
    return None if given else ctx


def _parser():
    """argparse over ``COMMANDS``, for a line the table parse declines."""
    import argparse

    root = argparse.ArgumentParser(prog="mevlens", allow_abbrev=False, description=(
        "MEV detection and cross-layer sandwich simulation over recorded "
        "event-log fixtures."))
    commands = {"": root.add_subparsers(metavar="COMMAND", required=True)}
    for name, (options, text, _) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in commands:
            parser = commands[""].add_parser(group, help=GROUPS[group],
                                             description=GROUPS[group], allow_abbrev=False)
            commands[group] = parser.add_subparsers(metavar="COMMAND", required=True)
        parser = commands[group].add_parser(leaf, help=text, description=text,
                                            allow_abbrev=False)
        for flag, keywords in options:
            parser.add_argument(flag, **keywords)
        parser.set_defaults(command=name)
    return root


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        ctx = _from_table(argv) or _parser().parse_args(argv, Ctx())
        _setup_logging()
        from importlib import import_module
        import_module(f"{__package__}.{COMMANDS[ctx.command][2]}").RUN[ctx.command](ctx)
        return 0
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after printing a usage error
        return 1 if exc.code else 0
    except (MevlensError, OSError) as exc:
        # every path the package opens comes from the command line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything else is a bug in the package, not bad input
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


# A process ends with the collector's last pass over every object it holds,
# the interpreter's and the imported modules' too: frozen, they are skipped.
# ``main`` thaws them, so in-process callers collect as before; a process
# that exits after it ends without that walk. Cyclic garbage left then is
# not finalized, which is why mevlens closes every file it opens.
atexit.register(gc.freeze)


if __name__ == "__main__":
    sys.exit(main())
