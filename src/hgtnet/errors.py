"""Exception hierarchy shared by all hgtnet modules."""


class HgtnetError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(HgtnetError):
    """Tensor extents do not line up (bad matmul dims, invalid conv geometry, ...)."""


class ConfigError(HgtnetError):
    """A hyperparameter or option is outside its legal range."""


class ContractError(HgtnetError):
    """A caller violated an operation's precondition (non-scalar loss, bad label, ...)."""


class DegenerateInputError(HgtnetError):
    """Input is too uniform for the requested statistic (e.g. single-class ROC)."""


class DataError(HgtnetError):
    """Dataset-level problem: empty class directory, empty split, missing files."""


class FormatError(DataError):
    """A file's bytes do not match its declared format (PPM, prediction CSV)."""


class CheckpointError(HgtnetError):
    """Checkpoint file is malformed: bad magic, unsupported version, truncation."""


class DivergenceError(HgtnetError):
    """Training produced a non-finite loss or a gradient above the divergence guard."""
