"""Scalar primitives shared by both layers of the package: the unit-scale rule, the one
modulus read and the tolerance pair.

K(cA) = |c| K(A), so scale is decided by one rule: a value is analysed at its unit scale
(``unit_exponent``), exactly, and its answer scaled back by a power of two.  This module
takes complex scalars and sequences of them; ``core`` extends ``unit_exponent`` and
``times_power_of_two`` to arrays.  It imports no numpy, so the theory layer (``spec``,
``reports``, ``rules``) and the command line run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidInputError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "unit_exponent",
    "times_power_of_two",
    "modulus",
    "floor_bound",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by uniformity and image checks; the
    default is purely relative, so A and every multiple cA pass alike.  Both are finite,
    and ``rel`` is below 1: at rel >= 1 a modulus anywhere in [kappa (1 - rel),
    kappa (1 + rel)] passes, zero entries included."""

    rel: float = 1e-9
    abs: float = 0.0

    def __post_init__(self):
        # NaN fails both comparisons
        if not (0 <= self.rel < 1 and 0 <= self.abs < math.inf):
            raise InvalidInputError(
                f"rel must lie in [0, 1) and abs in [0, inf), got {self.rel!r}, {self.abs!r}")
        if self.rel == 0 and self.abs == 0:
            raise InvalidInputError("rel and abs tolerance cannot both be zero")


DEFAULT_TOL = Tolerance()


def _exponent_of(top: float) -> int:
    """The e with 2^-e top in [1, 2) for a largest part ``top`` >= 0; 0 when it is 0."""
    return math.frexp(top)[1] - 1 if top else 0


def unit_exponent(values) -> int:
    """The e that brings the largest real or imaginary part of ``values`` (a sequence of
    complex scalars) into [1, 2) as 2^-e times it; 0 when all vanish.

    K(cA) = |c| K(A), so this one rule decides scale: a caller analyses A 2^-e, exactly,
    and scales its answer back by 2^e."""
    top = 0.0
    for z in values:
        top = max(top, abs(z.real), abs(z.imag))
    return _exponent_of(top)


def times_power_of_two(x, e: int) -> complex:
    """x 2^e for a complex scalar, exact in each real and imaginary part barring
    underflow."""
    return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))


def modulus(*values: complex, over: float = 1.0, times: float | None = None,
            dividing: float | None = None, scale: int = 0) -> float:
    """The one modulus read: |z|/over, or x |z| with ``times`` = x, or x/|z| with
    ``dividing`` = x, where |z| is the largest modulus of ``values`` 2^scale (complex
    scalars, nonzero for ``dividing``).

    |z| is taken of the values 2^-e at their unit scale (e as in ``unit_exponent``), x and
    ``over`` enter by their mantissas, and the powers of two are applied last, so the
    result is inf exactly where it is past the float range, and in range it is
    abs(z)/over, x*abs(z) or x/abs(z) to the bit."""
    e = unit_exponent(values)
    m = max([abs(times_power_of_two(z, -e)) for z in values if z], default=0.0)
    e += scale
    if dividing is not None:
        x, k = math.frexp(dividing)
        m, e = x / m, k - e
    elif times is not None:
        x, k = math.frexp(times)
        m, e = m * x, e + k
    elif over != 1.0:
        x, k = math.frexp(over)
        m, e = m / x, e - k
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def floor_bound(bound: float) -> float:
    """A lower bound past the float range is the largest float: a floor is never rounded up."""
    return min(bound, sys.float_info.max)
