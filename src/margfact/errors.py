"""Exception hierarchy shared across the package."""


class MargfactError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MargfactError):
    """Inconsistent model configuration: rank mismatch, unknown modality, bad pairing."""


class IngestionError(MargfactError):
    """Malformed input data: duplicate triplets, kind violations, missing files."""


class NumericError(MargfactError):
    """Non-finite values where the algorithm requires finite ones."""
