"""Exception hierarchy shared across the package."""


class MevlensError(Exception):
    """Base class for all package errors."""


# --- fixture ingestion ---

class MalformedRecord(MevlensError):
    def __init__(self, line: int, reason: str, path=None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {reason}")
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
