"""Exception types shared across the library, and the JSON key check."""


class KnotLibError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(KnotLibError, ValueError):
    """Malformed serialized data (bad JSON shape, unknown keys, bad types)."""


def _require_keys(obj, allowed, required, what):
    """Refuse obj, read as what, unless a dict of allowed and required keys."""
    if not isinstance(obj, dict):
        raise FormatError("%s must be a JSON object" % what)
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError("%s has unknown keys: %s" % (what, sorted(unknown)))
    missing = required - set(obj)
    if missing:
        raise FormatError("%s is missing keys: %s" % (what, sorted(missing)))


class InvalidComplexError(KnotLibError, ValueError):
    """A complex violates its structural constraints.

    Carries the list of violations from the validator.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid complex: " + "; ".join(self.violations))


class NonAdmissibleError(KnotLibError, ValueError):
    """Homology is not one-dimensional in the distinguished grading."""


class MissingDataError(KnotLibError, ValueError):
    """A knot record lacks a field required by the requested operation."""
