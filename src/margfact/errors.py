"""Exception hierarchy shared across the package, and the one rule for a
setting: a number a caller sets passes check_setting where it is given, and
a settings document is read through check_keys."""

import dataclasses
import math
import numbers


class MargfactError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MargfactError):
    """Inconsistent model configuration: rank mismatch, unknown modality, bad pairing."""


class IngestionError(MargfactError):
    """Malformed input data: duplicate triplets, kind violations, missing files."""


class NumericError(MargfactError):
    """Non-finite values where the algorithm requires finite ones."""


def check_setting(owner, name, value, low, high=math.inf, integral=False, open_low=False):
    """value, if a finite number (an integer when integral, never a bool) in
    [low, high], or (low, high] when open_low; else ConfigurationError."""
    if (isinstance(value, numbers.Integral if integral else numbers.Real)
            and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and (low < value if open_low else low <= value) and value <= high):
        return value
    what = "an integer" if integral else "a finite number"
    interval = f"{'(' if open_low else '['}{low}, {high}{']' if high < math.inf else ')'}"
    raise ConfigurationError(f"{owner}: {name} must be {what} in {interval}, got {value!r}")


def check_keys(owner, doc, keys, error=ConfigurationError):
    """error (ConfigurationError by default) naming owner unless doc is a dict
    holding no key outside keys."""
    if not isinstance(doc, dict):
        raise error(f"{owner} must be a JSON object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise error(f"{owner}: unknown key {unknown[0]!r}; known: {', '.join(keys)}")


class Settings:
    """A dataclass of settings, written as a JSON object of its fields that are
    not None. from_dict refuses a key that is not a field or RETIRED (settings
    that became constants, dropped from older files), and raises KeyError for
    a missing field without a default."""
    RETIRED = ()

    def to_dict(self):
        return {name: value for name, value in vars(self).items() if value is not None}

    @classmethod
    def from_dict(cls, d, owner):
        """Inverse of to_dict; owner names the document in errors."""
        fields = dataclasses.fields(cls)
        check_keys(owner, d, [f.name for f in fields] + list(cls.RETIRED))
        return cls(**{f.name: d[f.name] for f in fields
                      if f.name in d or f.default is dataclasses.MISSING})
