"""Exception types shared across the package."""


class GtlaError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GtlaError):
    """Bad input: a file, config or flag value the program cannot accept as given."""


class ConfigError(FormatError):
    """Bad input that is a configuration value: a field, flag or setting out of its range."""


class TrainingError(GtlaError):
    """Training aborted (e.g. non-finite gradients)."""
