"""Exception types shared across the package."""


class SynergyError(Exception):
    """Base class for all errors raised by this package."""


class SqlSyntaxError(SynergyError):
    """Statement text outside the supported grammar."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(SynergyError):
    """Invalid relation, key, or index definition."""


class CycleError(SchemaError):
    """The key/foreign-key reference graph contains a directed cycle."""


class AmbiguityError(SynergyError):
    """An attribute reference cannot be resolved to a single column."""


class UnknownTableError(SynergyError):
    pass


class UnknownAttributeError(SynergyError):
    pass


class LockTimeout(SynergyError):
    """Root lock could not be acquired within the configured timeout."""


class OrphanError(SynergyError):
    """An ancestor row required to locate the root key is absent."""


class DuplicateKeyError(SynergyError):
    """An insert names a key its relation already holds."""


class UnsupportedUpdate(SynergyError):
    """Update assignments touch primary-key or foreign-key attributes."""


class DirtyReadTimeout(SynergyError):
    """A read kept observing marked rows past the retry budget."""


class WalCorruptionError(SynergyError):
    """Structurally invalid write-ahead-log content."""


class SnapshotCorruptionError(SynergyError):
    """Structurally invalid checkpoint snapshot content."""


class MissingCheckpointError(SynergyError):
    """A data directory to open holds no checkpoint."""
