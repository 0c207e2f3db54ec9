"""Exception types shared across the library."""


class SynchrolabError(Exception):
    """Base class for all library errors."""


class EmptyShift(SynchrolabError):
    """No bi-infinite sequence satisfies the constraints."""


class NotIrreducible(SynchrolabError):
    """Operation requires an irreducible shift."""


class NotSFT(SynchrolabError):
    """Operation requires a shift of finite type."""


class NotInLanguage(SynchrolabError):
    """Word is not admissible for the shift."""


class NotInShift(SynchrolabError):
    """Point does not belong to the shift."""


class NotAgreeing(SynchrolabError):
    """Bracket arguments do not agree on the required central window."""


class Unverified(SynchrolabError):
    """The computation needs a finite presentation, and the shift has none."""


class NotHomoclinic(SynchrolabError):
    """Points are not homoclinic."""


class NotSynchronizing(SynchrolabError):
    """Point is not synchronizing (or its witness window is too large)."""


class NotInRectangle(SynchrolabError):
    """Point lies outside the required rectangle neighborhood."""


class NotInDomain(SynchrolabError):
    """Point lies outside a germ's domain cylinder."""


class NotConstructive(SynchrolabError):
    """No constructive germ is available for the requested pair."""


class BracketUndefined(SynchrolabError):
    """A bracket value required by an algorithm is undefined."""


class SearchExhausted(SynchrolabError):
    """A bounded search failed to produce a witness."""

    def __init__(self, message, depth=None):
        super().__init__(message)
        self.depth = depth


class WindowTooSmall(SynchrolabError):
    """Requested enumeration window cannot hold any representatives."""


class NotResolving(SynchrolabError):
    """Cover map does not resolve in a direction the computation needs."""


class ParseError(SynchrolabError):
    """Malformed spec file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SemanticError(SynchrolabError):
    """Well-formed spec file with inconsistent content."""


class UsageError(SynchrolabError):
    """Bad command-line invocation."""


class InvariantViolation(SynchrolabError):
    """A result failed the internal check that certifies it."""
