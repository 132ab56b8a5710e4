"""Exception types shared across the package, the line reader of its
text formats, and the one exact numeric coercion."""

from fractions import Fraction


class BigsError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BigsError):
    """A malformed input file (edge list, BIG file, design file)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def records(source):
    """Yield (line number, tokens) for each content line of a text.

    ``source`` is a string or an iterable of lines. Anything from ``#`` to
    the end of a line is a comment, lines left blank are skipped, tokens
    are separated by whitespace, and line numbers count every line from 1.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def to_fraction(value) -> Fraction:
    """Exact value of a number or numeric string; floats by their shortest
    repr. Plain ASCII integer strings, signed or not, are read by ``int``;
    every other value by ``Fraction``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    if type(value) is str and value.isascii() and (
            value[1:] if value[:1] in "+-" else value).isdigit():
        return Fraction(int(value))
    return Fraction(value)


def exact(token: str, what: str, line: int) -> Fraction:
    """``to_fraction`` of a numeric token (integer, fraction or decimal);
    ParseError ``bad {what}`` at ``line`` otherwise."""
    try:
        return to_fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {what} {token!r}", line=line) from None


class InfeasibleError(BigsError):
    """A BIG representation that cannot satisfy the feasibility conditions."""


class DesignError(BigsError):
    """An invalid sampling design or an undefined design quantity."""


class EnumerationCapError(BigsError):
    """Exact enumeration refused because the support exceeds the cap."""


class WeightError(BigsError):
    """An invalid multiplicity-weight specification."""
