"""Shared exception types, and the input checks that raise them."""

import json
import math
import sys
from fractions import Fraction


class VallabError(Exception):
    """Base class for library errors."""


class ValidationError(VallabError, ValueError):
    """A construction or CLI parameter violates a documented precondition.

    Also a ValueError, since every such violation is a bad argument value.
    """


class PrecisionError(VallabError):
    """A result cannot be certified at the working precision."""


def read_json(path, what: str):
    """The JSON value in the file at path; a file that cannot be opened or
    parsed is a ValidationError naming it as `what`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s %r: %s" % (what, path, exc))
    except (RecursionError, ValueError) as exc:
        # bad JSON, nesting past the recursion limit, or an integer longer
        # than sys.get_int_max_str_digits()
        raise ValidationError("%s %r is malformed: %s" % (what, path, exc))


_REQUIRED = object()


def json_get(d, key: str, what: str, kind=None, default=_REQUIRED):
    """d[key] from the JSON object `what`, checked to be a `kind` if given.

    A missing key returns `default` when one is given and is a
    ValidationError naming the key otherwise.
    """
    if not isinstance(d, dict):
        raise ValidationError("%s must be a JSON object, got %r" % (what, d))
    if key not in d:
        if default is _REQUIRED:
            raise ValidationError("%s lacks the key %r" % (what, key))
        return default
    x = d[key]
    if kind is int:
        return json_int(x, "%s key %r" % (what, key))
    if kind is not None and not isinstance(x, kind):
        raise ValidationError("%s key %r must be a %s, got %r"
                              % (what, key, kind.__name__, x))
    return x


def json_keys(d, what: str, known):
    """Check that the JSON object `what` holds no key outside `known`: a
    reader would ignore any other, so the first is a ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError("%s must be a JSON object, got %r" % (what, d))
    for key in d:
        if key not in known:
            raise ValidationError("%s has the unknown key %r; it takes %s"
                                  % (what, key, ", ".join(known)))


def json_int(x, what: str) -> int:
    """A JSON integer; a float, string or boolean is a ValidationError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError("%s must be an integer, got %r" % (what, x))
    return x


def json_fraction(pair, what: str) -> Fraction:
    """A rational written as the JSON pair [numerator, denominator]."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValidationError("%s must be a [numerator, denominator] pair, "
                              "got %r" % (what, pair))
    num, den = (json_int(x, what) for x in pair)
    if den == 0:
        raise ValidationError("%s has denominator 0" % what)
    return Fraction(num, den)


def int_text_bound():
    """The least integer with more digits than the interpreter converts to
    text (sys.get_int_max_str_digits(); inf when there is no limit)."""
    limit = sys.get_int_max_str_digits()
    return 10 ** limit if limit else math.inf


def too_long_to_print(what: str) -> ValidationError:
    """The error for `what` needing an integer too long to convert to text."""
    return ValidationError(
        "%s needs an integer of more than %d digits, the limit for converting "
        "one to text (sys.get_int_max_str_digits())"
        % (what, sys.get_int_max_str_digits()))


def printable_power(p: int, k: int, what: str) -> int:
    """p**k for p, k >= 0, or too_long_to_print(what) before it is built."""
    bound = int_text_bound()
    # p**k >= 2**(k * (bits(p) - 1)), so past the bound it is not built
    if k * (p.bit_length() - 1) < math.log2(bound) and (n := p ** k) < bound:
        return n
    raise too_long_to_print(what)
