"""Exception types that map onto the CLI exit codes."""


class ConfigError(ValueError):
    """Invalid or malformed configuration (exit code 2)."""


class NumericalDivergence(RuntimeError):
    """Non-finite value encountered during sampling or optimization (exit code 4)."""
