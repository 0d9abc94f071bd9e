"""Exception types shared across the package."""


class InfeasibleSpecError(ValueError):
    """Raised when (k, g) violates the divisibility condition k | 6(g-2)."""


class ComplexFormatError(ValueError):
    """Raised on malformed complex files; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class InvalidComplexError(ValueError):
    """Raised when polygon data does not describe a closed connected surface."""


class NotExtremalError(ValueError):
    """Raised when an operation requires a certified extremal complex."""


class IneligibleSiteError(ValueError):
    """Raised when a grafting site does not match its variant's precondition."""


class RewriteSearchError(RuntimeError):
    """A paired graft step found no first half whose second half ends
    uniform; the message names the sites and the first halves tried.

    Inside a graft chain it signals a bug in the schedules rather than bad
    input.  catalog.derive reads it as "this class cannot take step 1" of
    its seed's schedule, and passes on to the next class of its search.
    """


class UnknownCatalogEntryError(KeyError):
    """Raised when the shipped catalog has no entry of the requested name.

    It is a KeyError, so callers that catch a failed lookup keep working;
    unlike KeyError it prints its message without quotes.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class CoverError(ValueError):
    """Raised when a covering construction violates its preconditions."""


class EnumerationCapError(RuntimeError):
    """A bounded search exceeded its resource cap."""


class InvariantError(RuntimeError):
    """An internal postcondition failed: a bug in the library, not bad input.

    The message names the check and the object it failed on.
    """
