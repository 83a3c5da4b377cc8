"""Exception hierarchy shared across the package."""


class MevlensError(Exception):
    """Base class for all package errors."""


# --- fixture ingestion ---

class MalformedRecord(MevlensError):
    """line is None for an entry of a whole-document (JSON) sidecar, whose
    reason then names the entry."""

    def __init__(self, line, reason: str, path=None):
        where = [] if path is None else [str(path)]
        if line is not None:
            where.append(f"line {line}")
        super().__init__(": ".join(where + [reason]))
        self.line = line
        self.reason = reason
        self.path = path


class OrderingViolation(MevlensError):
    pass


class DuplicateKey(MevlensError):
    pass


class InvalidRange(MevlensError):
    pass


# --- decoding ---

class SlotOutOfRange(MevlensError):
    pass


class SchemaMismatch(MevlensError):
    pass


# --- AMM simulation ---

class UnknownToken(MevlensError):
    pass


class EmptyPool(MevlensError):
    pass


class NoConvergence(MevlensError):
    pass


class DrainedPool(MevlensError):
    pass


class BrokenPath(MevlensError):
    pass


# --- cross-layer attack simulation ---

class Infeasible(MevlensError):
    pass


# --- stats ---

class EmptyInput(MevlensError):
    pass
