"""The argument rules of every entry point, each written once.

A rule raises error(f"{text}, got {value!r}"), with the caller's ValueError
subclass as error and text naming the argument.  A bool is no number here,
though Python counts it as an int, and neither is a str.
"""
from __future__ import annotations

import math
import numbers


def _integer(value, text: str, error=ValueError, lo=-math.inf, hi=math.inf) -> int:
    """value as an int: an Integral, not a bool, with lo <= value <= hi."""
    # int first: the numbers ABCs are checked far slower than a concrete type
    if (isinstance(value, bool) or not isinstance(value, (int, numbers.Integral))
            or not lo <= value <= hi):
        raise error(f"{text}, got {value!r}")
    return int(value)


def _bool(value, text: str, error=ValueError) -> bool:
    """value, if it is True or False: 1, 0, None and 'no' are no flags."""
    if not isinstance(value, bool):
        raise error(f"{text}, got {value!r}")
    return value


def _one_of(value, choices, text: str, error=ValueError):
    """value, if it is one of choices."""
    if value not in choices:
        raise error(f"{text}, got {value!r}")
    return value


def _real(value, text: str, error=ValueError) -> float:
    """value as a float: a Real, not a bool; NaN and +-inf pass."""
    # float and int first, as in _integer
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise error(f"{text}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an exact number beyond the float range
        return math.inf if value > 0 else -math.inf


def _finite(value, text: str, error=ValueError, lo=-math.inf) -> float:
    """value as a float: a real number, not a bool, with lo < value < inf."""
    x = _real(value, text, error)
    if not lo < x < math.inf:
        raise error(f"{text}, got {value!r}")
    return x


def _positive(value, text: str, error=ValueError) -> float:
    """value as a float: a finite real number > 0, not a bool."""
    return _finite(value, text, error, 0.0)
