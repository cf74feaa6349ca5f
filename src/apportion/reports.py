"""Verdicts, constant-set descriptions, and classification reports.

A ConstantSet describes what is known about the achievable moduli K(A) of a
matrix: an exact set, a known subset ("superset-of" kinds, where only
containment one way is established), or unknown-with-lower-bound.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError
from .scalar import floor_bound, modulus

__all__ = ["Verdict", "SetShape", "ConstantSet", "ClassificationReport"]

#: relative tolerance for membership tests against finite-set values
MEMBERSHIP_RTOL = 1e-9


class Verdict(str, enum.Enum):
    APPORTIONABLE = "Apportionable"
    NOT_APPORTIONABLE = "NotApportionable"
    UNKNOWN = "Unknown"


class SetShape(str, enum.Enum):
    EMPTY = "empty"
    ZERO_ONLY = "zero-only"
    OPEN_HALF_LINE = "open-half-line"
    CLOSED_HALF_LINE = "closed-half-line"
    FINITE = "finite"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConstantSet:
    """Description of the achievable-constant set K(A).

    ``exact`` distinguishes a fully determined set from a certified subset
    (containment proven one way only).  ``lower_bound`` is the unconditional
    floor from the trace/determinant bounds; it is informative for every
    shape and is the only content of the UNKNOWN shape.  Ends, values and the
    floor are finite: an end or value past the float range is refused
    (InvalidInputError), since no float kappa can be a member, and a floor past it
    is reported as the largest float (``scalar.floor_bound``).
    """

    shape: SetShape
    lo: float = 0.0
    values: tuple[float, ...] = ()
    exact: bool = True
    lower_bound: float = 0.0

    def __post_init__(self):
        # NaN fails the comparisons too
        if not (0 <= self.lo < math.inf and 0 <= self.lower_bound < math.inf
                and (not self.values or all(0 <= v < math.inf for v in self.values))):
            raise InvalidInputError(f"constant-set end {self.lo!r}, values {self.values!r} and "
                                    f"floor {self.lower_bound!r} must be finite and >= 0: "
                                    "past the float range no kappa is a member")
        if self.shape is SetShape.FINITE:
            if not self.values or 0 in self.values:
                raise InvalidInputError("finite constant sets hold positive values")
            object.__setattr__(self, "values", tuple(sorted(self.values)))

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls):
        return cls(SetShape.EMPTY)

    @classmethod
    def zero_only(cls):
        return cls(SetShape.ZERO_ONLY)

    @classmethod
    def open_half_line(cls, lo, exact=True, lower_bound=None):
        if lower_bound is None:
            lower_bound = lo if exact else 0.0    # a subset claim implies no floor
        return cls(SetShape.OPEN_HALF_LINE, lo=float(lo), exact=exact,
                   lower_bound=float(lower_bound))

    @classmethod
    def closed_half_line(cls, lo, exact=True, lower_bound=None):
        if lower_bound is None:
            lower_bound = lo if exact else 0.0
        return cls(SetShape.CLOSED_HALF_LINE, lo=float(lo), exact=exact,
                   lower_bound=float(lower_bound))

    @classmethod
    def finite(cls, values, exact=True, lower_bound=0.0):
        return cls(SetShape.FINITE, values=tuple(float(v) for v in values),
                   exact=exact, lower_bound=float(lower_bound))

    @classmethod
    def unknown(cls, lower_bound):
        return cls(SetShape.UNKNOWN, exact=False, lower_bound=float(lower_bound))

    # -- queries ----------------------------------------------------------
    @property
    def kind(self) -> str:
        """Spec-facing kind label; superset kinds mark one-way containment."""
        base = {
            SetShape.EMPTY: "Empty",
            SetShape.ZERO_ONLY: "ZeroOnly",
            SetShape.OPEN_HALF_LINE: "OpenHalfLine",
            SetShape.CLOSED_HALF_LINE: "ClosedHalfLine",
            SetShape.FINITE: "FiniteSet",
            SetShape.UNKNOWN: "Unknown",
        }[self.shape]
        if self.shape is SetShape.UNKNOWN or self.exact:
            return base
        return "SupersetOf" + base

    def contains(self, kappa: float) -> Optional[bool]:
        """Three-valued membership: True / False / None (not decidable).

        Inexact sets answer True on the certified subset and None outside it,
        except below the unconditional lower bound, where the answer is False.
        A non-finite kappa is never a member.
        """
        if not math.isfinite(kappa) or kappa < 0:
            return False
        if self.shape is SetShape.EMPTY:
            return False
        if self.shape is SetShape.ZERO_ONLY:
            return kappa == 0.0
        if kappa < self.lower_bound * (1.0 - MEMBERSHIP_RTOL):
            return False
        if self.shape is SetShape.OPEN_HALF_LINE:
            inside = kappa > self.lo
        elif self.shape is SetShape.CLOSED_HALF_LINE:
            inside = kappa >= self.lo * (1.0 - MEMBERSHIP_RTOL)
        elif self.shape is SetShape.FINITE:
            inside = any(abs(kappa - v) <= MEMBERSHIP_RTOL * v for v in self.values)
        else:  # UNKNOWN
            return None
        if inside:
            return True
        return False if self.exact else None

    def smallest_member(self) -> Optional[float]:
        """A deterministic member to construct at when no target is given."""
        if self.shape is SetShape.ZERO_ONLY:
            return 0.0
        if self.shape is SetShape.CLOSED_HALF_LINE:
            return self.lo
        if self.shape is SetShape.OPEN_HALF_LINE:
            # relative to lo, as K(cA) = |c| K(A), and a float; lo = 0 only for nilpotent A,
            # whose constants are every kappa > 0 at any scale
            return min(1.5 * self.lo, sys.float_info.max) if self.lo > 0 else 0.5
        if self.shape is SetShape.FINITE:
            return self.values[0]
        return None

    def scaled(self, mu: complex) -> "ConstantSet":
        """The set of mu A for a scalar mu != 0: ends, values and floor times |mu|, as
        K(mu A) = |mu| K(A) (``scalar.modulus``, ``scalar.floor_bound``)."""
        if not mu:
            raise InvalidInputError("scale factor must be nonzero")
        return ConstantSet(
            shape=self.shape,
            lo=modulus(mu, times=self.lo),
            values=tuple(modulus(mu, times=v) for v in self.values),
            exact=self.exact,
            lower_bound=floor_bound(modulus(mu, times=self.lower_bound)),
        )

    def describe(self) -> str:
        """Human-readable symbolic form, e.g. "[0.5, inf)" or "{0.6009, 1.118}"."""
        if self.shape is SetShape.EMPTY:
            return "{}"
        if self.shape is SetShape.ZERO_ONLY:
            return "{0}"
        if self.shape is SetShape.OPEN_HALF_LINE:
            s = f"({self.lo:.12g}, inf)"
        elif self.shape is SetShape.CLOSED_HALF_LINE:
            s = f"[{self.lo:.12g}, inf)"
        elif self.shape is SetShape.FINITE:
            s = "{" + ", ".join(f"{v:.12g}" for v in self.values) + "}"
        else:
            return f"unknown, >= {self.lower_bound:.12g}"
        return s if self.exact else "superset of " + s

    def to_json(self) -> dict:
        out = {"kind": self.kind, "description": self.describe(), "exact": self.exact,
               "lower_bound": self.lower_bound}
        if self.shape in (SetShape.OPEN_HALF_LINE, SetShape.CLOSED_HALF_LINE):
            out["lo"] = self.lo
        if self.shape is SetShape.FINITE:
            out["values"] = list(self.values)
        return out


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict, constant set, supporting rule tag, and optional certificate:
    ``apportion_2x2`` attaches one, while ``classify`` builds none and leaves it None."""

    verdict: Verdict
    constants: ConstantSet
    theorem_tag: str
    certificate: Optional[object] = None
    approximate_eigen: bool = False

    def __post_init__(self):
        if self.verdict is Verdict.NOT_APPORTIONABLE and self.constants.shape is not SetShape.EMPTY:
            raise InvalidInputError("NotApportionable requires an empty constant set")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "constants": self.constants.to_json(),
            "theorem_tag": self.theorem_tag,
            "approximate_eigen": self.approximate_eigen,
            "has_certificate": self.certificate is not None,
        }
