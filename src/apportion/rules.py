"""The theory layer: constant sets and the case analysis, on the Jordan block list alone.

The paper decides apportionability and the constants K(A) from the (eigenvalue, block
size) list by scalar rules.  ``classify`` runs a JordanSpec (any order) or raw entries
(order <= 3, read by ``jordan.eigenstructure_small``) through one ordered table of rules,
one per covered matrix class, and returns the first matching rule's verdict,
constant-set description and tag; it builds no certificate.  Each rule is one function:
its match also returns the builder for the shape it found, which reaches the numeric
layer (``constructors``, with numpy) only when a build runs.  This module imports no
numpy: a Jordan document is classified and bounded without it.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Union

from .errors import InvalidInputError
from .reports import ClassificationReport, ConstantSet, Verdict
from .scalar import floor_bound, modulus, times_power_of_two, unit_exponent
from .spec import JordanSpec

if TYPE_CHECKING:
    import numpy as np

    from .constructors import ApportionCertificate

__all__ = [
    "TemplateKind",
    "RULES",
    "classify",
    "constant_set",
    "spec_bounds",
    "perturb_identity_constants",
    "two_by_two_constants",
]

MatrixLike = Union[JordanSpec, "np.ndarray", list]


class TemplateKind(str, enum.Enum):
    #: size-2 block with eigenvalue lam, plus a zero: modulus |lam|
    LAMBDA_J2_PLUS_ZERO = "LambdaJ2PlusZero"
    #: eigenvalue lam plus a size-2 nilpotent block: modulus |lam|/sqrt(3)
    LAMBDA_PLUS_N2 = "LambdaPlusN2"


# ---------------------------------------------------------------------------
# bounds and constant sets
# ---------------------------------------------------------------------------

_LOG_MAX, _LOG2 = math.log(sys.float_info.max), math.log(2.0)


def _log_modulus(lam: complex) -> float:
    """log |lam|, also past the float range, by way of |lam|/2 (``scalar.modulus``)."""
    m = modulus(lam)
    return math.log(m) if m < math.inf else math.log(modulus(lam, over=2.0)) + _LOG2


def spec_bounds(blocks) -> tuple[float, float]:
    """(trace bound, determinant bound) of the Jordan matrix of ``blocks``, its
    (eigenvalue, size) pairs; no constant lies below either.  The trace is summed at unit
    scale (``scalar.unit_exponent``), the determinant in log space, each modulus is read by
    ``scalar.modulus``, and a bound past the float range is the largest float
    (``scalar.floor_bound``), so neither overflows."""
    n = sum(size for _, size in blocks)
    e = unit_exponent([lam for lam, _ in blocks])
    tr = sum(times_power_of_two(lam, -e) * size for lam, size in blocks)
    trace_bound = floor_bound(modulus(tr, over=n, scale=e))
    if any(lam == 0 for lam, _ in blocks):
        return trace_bound, 0.0
    g = sum(size * _log_modulus(lam) for lam, size in blocks) / n
    # exp(g), the moduli's geometric mean, can be past the float range where the bound is not
    det_bound = (math.exp(g) / math.sqrt(n) if g < _LOG_MAX
                 else math.exp(g - _LOG2) / math.sqrt(n) * 2.0)
    return trace_bound, floor_bound(det_bound)


def _nilpotent_constants(spec: JordanSpec) -> ConstantSet:
    """K of a nilpotent Jordan matrix: {0} for the zero matrix, else every kappa > 0."""
    return ConstantSet.zero_only() if spec.is_zero_matrix() else ConstantSet.open_half_line(0.0)


def _half_rank_constants(spec: JordanSpec) -> ConstantSet:
    """Known part of K at rank <= order/2: every kappa above half the spectral radius."""
    rho_half = modulus(*(lam for lam, _ in spec.blocks), over=2.0)
    return ConstantSet.open_half_line(rho_half, exact=False,
                                      lower_bound=max(spec_bounds(spec.blocks)))


def _rank_one_constants(lam: complex, n: int) -> ConstantSet:
    """K of diag(lam, 0, ..., 0) of order n with lam != 0: {|lam|} at n = 1, with floor
    |lam|, else [|lam|/n, inf), by ``scalar.modulus``; a quotient that underflows is rounded
    up to the least positive float, so 0 is never a member."""
    if n == 1:
        lam_abs = modulus(lam)
        return ConstantSet.finite([lam_abs], lower_bound=floor_bound(lam_abs))
    lo = max(modulus(lam, over=n), math.ulp(0.0))
    return ConstantSet.closed_half_line(lo, lower_bound=lo)


RE_CONDITION_ATOL = 1e-9


def perturb_identity_constants(n: int, lam: complex) -> Optional[ConstantSet]:
    """Constant set of I_(n-1) + [lam] for n >= 3, or None when Re(lam) != 1 - n/2.

    For even n with real lam the set is the closed half-line from 1/2;
    otherwise it is the finite family sqrt(Im(lam)^2/(n-2s)^2 + 1/4) over
    s = 0 .. floor((n-1)/2).
    """
    if not ((type(n) is int or isinstance(n, numbers.Integral)) and n >= 3):
        raise InvalidInputError("this construction needs order n >= 3")
    lam = complex(lam)
    if abs(lam.real - (1.0 - n / 2.0)) > RE_CONDITION_ATOL:
        return None
    im = lam.imag
    tb = math.hypot(n / 2.0, im) / n          # |trace| / n, the sharp floor
    if n % 2 == 0 and abs(im) <= RE_CONDITION_ATOL:
        return ConstantSet.closed_half_line(0.5, lower_bound=0.5)
    values = sorted({math.sqrt(im * im / (n - 2 * s) ** 2 + 0.25)
                     for s in range(0, (n - 1) // 2 + 1)})
    return ConstantSet.finite(values, lower_bound=tb)


def _gamma_test(l1: complex, l2: complex) -> Optional[tuple[complex, float]]:
    """The paper's order-2 test at a scale where l1 +- l2 cannot overflow:
    (gamma, |gamma|^4) when diag(l1, l2) is apportionable, else None.

    gamma = (l2+l1)/(l2-l1) must vanish (to 1e-12 of the pair) or satisfy
    Re(gamma^2) < |gamma|^4 <= 1.  |gamma|^4 within 4e-12 of 1 counts as 1, so
    pure-imaginary ratios sit on |gamma| = 1; the strict inequality keeps a 1e-12
    margin, as its boundary would give certificates with unbounded entries.  |gamma| > 2
    is refused before the quotient, which overflows where l2 - l1 underflows."""
    s, d = l1 + l2, l2 - l1
    if abs(s) <= 1e-12 * max(abs(l1), abs(l2)):
        return 0j, 0.0
    if abs(s) > 2.0 * abs(d):
        return None
    gamma = s / d
    g4 = abs(gamma) ** 4
    if abs(g4 - 1.0) <= 4e-12:
        g4 = 1.0
    if g4 <= 1.0 and (gamma * gamma).real < g4 - 1e-12:
        return gamma, g4
    return None


def _order_two(l1: complex, l2: complex) -> Optional[tuple[complex, float, ConstantSet]]:
    """(gamma, |gamma|^4, constant set) of diag(l1, l2), or None when it is not
    apportionable: ``_gamma_test`` on the pair at unit scale (``scalar.unit_exponent``),
    with the set scaled back."""
    if not (cmath.isfinite(l1) and cmath.isfinite(l2)):
        raise InvalidInputError("eigenvalues must be finite")
    if l1 == 0 or l2 == 0 or l1 == l2:
        raise InvalidInputError("needs distinct nonzero eigenvalues")
    e = unit_exponent((l1, l2))
    u1, u2 = times_power_of_two(l1, -e), times_power_of_two(l2, -e)
    found = _gamma_test(u1, u2)
    if found is None:
        return None
    gamma, g4 = found
    if gamma == 0:
        lo = modulus(l1, l2, over=math.sqrt(2.0))
    else:
        lo = modulus((u1 + u2) / 2.0, scale=e, times=math.sqrt(
            1.0 + (1.0 - g4) / (2.0 * (g4 - (gamma * gamma).real))))
    # the bounds are sharp for some pairs: rounding must not lift them above lo
    bound = min(lo, max(spec_bounds(((l1, 1), (l2, 1)))))
    return gamma, g4, (ConstantSet.closed_half_line(lo, lower_bound=bound) if gamma == 0
                       else ConstantSet.finite([lo], lower_bound=bound))


def two_by_two_constants(l1: complex, l2: complex) -> Optional[ConstantSet]:
    """Constant set of diag(l1, l2) (distinct, nonzero), or None if empty.

    Achievability holds exactly when gamma = (l2+l1)/(l2-l1) vanishes or
    Re(gamma^2) < |gamma|^4 <= 1; the set is a closed half-line from
    rho/sqrt(2) when gamma = 0 and a singleton otherwise.  The pair is
    evaluated at unit scale (``scalar.unit_exponent``) and the set scaled back.
    """
    found = _order_two(complex(l1), complex(l2))
    return None if found is None else found[2]


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

Built = tuple["ApportionCertificate", tuple]
Match = Optional[tuple[Verdict, ConstantSet, Optional[Callable[[float], Built]]]]


def _numeric():
    """``constructors``, the builders' module, imported when a build runs: classifying
    loads no numpy and builds nothing."""
    from . import constructors

    return constructors


@dataclass(frozen=True)
class Rule:
    """One matrix class of the case analysis.

    ``match`` returns None when the spec is outside the class, else (verdict,
    constants, build).  ``build`` is None for refuting and open classes;
    otherwise it maps a member kappa of the constants to a certificate and the
    blocks, in order, it was built for, unchecked (``request_certificate``
    checks it once), bound to the shape the match found.  Classification only
    matches: no rule builds while classifying.
    """

    tag: str
    match: Callable[[JordanSpec], Match]


_REFUTED = (Verdict.NOT_APPORTIONABLE, ConstantSet.empty(), None)


def _unknown(spec: JordanSpec) -> Match:
    return Verdict.UNKNOWN, ConstantSet.unknown(max(spec_bounds(spec.blocks))), None


def _match_zero(spec: JordanSpec) -> Match:
    if not spec.is_zero_matrix():
        return None
    return (Verdict.APPORTIONABLE, _nilpotent_constants(spec),
            lambda k: (_numeric()._zero(spec), spec.blocks))


def _match_rank_one(spec: JordanSpec) -> Match:
    """diag(lam, 0, ..., 0) with lam != 0, in any block order."""
    if spec.rank != 1 or spec.is_nilpotent():
        return None
    n, lam = spec.order, next(lam for lam, _ in spec.blocks if lam != 0)
    return Verdict.APPORTIONABLE, _rank_one_constants(lam, n), lambda k: (
        _numeric()._rank_one(lam, n, k), ((lam, 1),) + ((0j, 1),) * (n - 1))


def _match_identity_plus_zero(spec: JordanSpec) -> Match:
    """lam I_n + O_n with n >= 2 and lam != 0, 1-blocks in any order: K is exactly
    [|lam|/2, inf), from its trace bound up, its end rounded up to the least positive
    float where |lam|/2 underflows (as rank one's is), so 0 is never a member."""
    n = spec.rank
    if n < 2 or not spec.order == len(spec.blocks) == 2 * n:
        return None
    nonzero = {lam for lam, _ in spec.blocks if lam != 0}
    if len(nonzero) != 1:
        return None
    lam = nonzero.pop()
    lo = max(modulus(lam, over=2.0), math.ulp(0.0))

    def build(k):
        c = _numeric()
        return (c._scaled(c._identity_plus_zero(n, modulus(lam, dividing=k)), lam),
                ((lam, 1),) * n + ((0j, 1),) * n)

    return Verdict.APPORTIONABLE, ConstantSet.closed_half_line(lo), build


def _match_half_rank(spec: JordanSpec) -> Match:
    if 2 * spec.rank > spec.order or spec.is_nilpotent():
        return None
    return (Verdict.APPORTIONABLE, _half_rank_constants(spec),
            lambda k: _numeric()._half_rank(spec, k))


def _match_perturb(spec: JordanSpec) -> Match:
    """mu * (rank-one perturbation of I), n >= 3: n-1 blocks share an eigenvalue
    mu != 0.  Refuted when they are sizes 1, ..., 1, 2; else apportionable
    exactly when I_(n-1) + [other/mu] is, for the odd eigenvalue out."""
    n = spec.order
    if n < 3:
        return None
    eigenvalues = [lam for lam, _ in spec.blocks]
    for mu, count in Counter(eigenvalues).items():
        if mu == 0 or count != n - 1:
            continue
        sizes = sorted(size for lam, size in spec.blocks if lam == mu)
        if len(eigenvalues) == n - 1 and sizes == [1] * (n - 2) + [2]:
            return _REFUTED
        if len(eigenvalues) == n and sizes == [1] * (n - 1):
            other = next(lam for lam in eigenvalues if lam != mu)
            constants = perturb_identity_constants(n, other / mu)
            if constants is None:
                return _REFUTED

            def build(k):
                c = _numeric()
                return (c._scaled(c._perturb_identity(n, other / mu, modulus(mu, dividing=k)),
                                  mu), ((mu, 1),) * (n - 1) + ((other, 1),))

            return Verdict.APPORTIONABLE, constants.scaled(mu), build
    return None


def _match_two_by_two(spec: JordanSpec) -> Match:
    """Order 2 with distinct nonzero eigenvalues (every other order-2 spec
    is caught by an earlier rule)."""
    if spec.order != 2 or len(spec.blocks) != 2:
        return None
    (l1, _), (l2, _) = spec.blocks
    found = _order_two(l1, l2)
    if found is None:
        return _REFUTED
    return Verdict.APPORTIONABLE, found[2], lambda k: (
        _numeric()._two_by_two(l1, l2, found, k), spec.blocks)


def _match_template(spec: JordanSpec, kind: TemplateKind, sizes: tuple[int, int],
                    divisor: float) -> Match:
    """Blocks (lam, sizes[0]) and (0, sizes[1]) in either order, lam != 0."""
    if len(spec.blocks) != 2:
        return None
    for (lam, s), (mu, t) in (spec.blocks, spec.blocks[::-1]):
        if lam != 0 and mu == 0 and (s, t) == sizes:
            constants = ConstantSet.finite([modulus(lam, over=divisor)], exact=False,
                                           lower_bound=max(spec_bounds(spec.blocks)))
            return Verdict.APPORTIONABLE, constants, lambda k: (
                _numeric()._template(kind, lam), ((lam, sizes[0]), (0j, sizes[1])))
    return None


def _pair_plus_zero(spec: JordanSpec) -> Optional[tuple[complex, complex]]:
    """The two nonzero eigenvalues of diag(l1, l2, 0) in any order, else None."""
    if spec.order != 3 or len(spec.blocks) != 3:
        return None
    nonzero = [lam for lam, _ in spec.blocks if lam != 0]
    return tuple(nonzero) if len(nonzero) == 2 else None


def _match_pad_zero(spec: JordanSpec) -> Match:
    """diag(l1, l2, 0) whose pair is apportionable at order 2: padding keeps
    its constants, but only one way, so the set is a subset claim."""
    pair = _pair_plus_zero(spec)
    found = None if pair is None else _order_two(*pair)
    if found is None:
        return None
    (l1, l2), base = pair, found[2]
    constants = replace(base, exact=False,
                        lower_bound=min(base.lower_bound, max(spec_bounds(spec.blocks))))

    def build(k):
        c = _numeric()
        return c._padded(c._two_by_two(l1, l2, found, k)), ((l1, 1), (l2, 1), (0j, 1))

    return Verdict.APPORTIONABLE, constants, build


#: The case analysis, in order: the first rule that matches decides.
RULES: tuple[Rule, ...] = (
    Rule("zero-matrix", _match_zero),
    Rule("order-one",
         lambda s: ((Verdict.APPORTIONABLE, _rank_one_constants(s.blocks[0][0], 1),
                     lambda k: (_numeric()._rank_one(s.blocks[0][0], 1, k), s.blocks))
                    if s.order == 1 else None)),
    # lam * I, lam != 0
    Rule("scalar-matrix",
         lambda s: (_REFUTED if len(set(s.blocks)) == 1 and s.blocks[0][1] == 1
                    and s.blocks[0][0] != 0 else None)),
    Rule("nilpotent",
         lambda s: ((Verdict.APPORTIONABLE, _nilpotent_constants(s),
                     lambda k: _numeric()._nilpotent(s, k))
                    if s.is_nilpotent() else None)),
    Rule("rank-one", _match_rank_one),
    Rule("identity-plus-zero", _match_identity_plus_zero),
    Rule("half-rank", _match_half_rank),
    Rule("perturb-identity", _match_perturb),
    # a single 2x2 block with nonzero eigenvalue
    Rule("repeated-eigenvalue",
         lambda s: _REFUTED if s.order == 2 and len(s.blocks) == 1 else None),
    Rule("two-by-two", _match_two_by_two),
    Rule("3x3-template-j2-plus-zero",
         lambda s: _match_template(s, TemplateKind.LAMBDA_J2_PLUS_ZERO, (2, 1), 1.0)),
    Rule("3x3-template-plus-nilpotent",
         lambda s: _match_template(s, TemplateKind.LAMBDA_PLUS_N2, (1, 2), math.sqrt(3.0))),
    Rule("two-by-two-pad-zero", _match_pad_zero),
    # the pair fails at order 2, but padding could still help
    Rule("two-by-two-pad-zero-inconclusive",
         lambda s: None if _pair_plus_zero(s) is None else _unknown(s)),
    # J3(lam), J2(lam) + [mu] and three distinct nonzero eigenvalues
    Rule("open-3x3", lambda s: _unknown(s) if s.order == 3 else None),
    Rule("order-not-covered", _unknown),
)

_RULES_BY_TAG = {rule.tag: rule for rule in RULES}


def _coerce(input_matrix: MatrixLike) -> tuple[JordanSpec, bool]:
    """The block list of a matrix and whether it is approximate: a JordanSpec as it is,
    raw entries as ``jordan.eigenstructure_small`` reads them (which loads numpy)."""
    if isinstance(input_matrix, JordanSpec):
        return input_matrix, False
    from .jordan import eigenstructure_small

    result = eigenstructure_small(input_matrix)
    return result.spec, result.approximate


def classify(input_matrix: MatrixLike) -> ClassificationReport:
    """Verdict, constant set and rule tag for a matrix; no certificate is built
    (``request_certificate`` builds one), so the report's ``certificate`` is None.

    Raw entries are accepted up to order 3 (the Jordan structure is recovered
    by closed-form eigenvalues and rank tests, and near-degenerate spectra are
    flagged approximate); larger inputs must arrive as a JordanSpec.
    """
    spec, approximate = _coerce(input_matrix)
    return _classify_spec(spec, approximate)


def _classify_spec(spec: JordanSpec, approximate: bool = False) -> ClassificationReport:
    for rule in RULES:  # the last rule matches every spec
        found = rule.match(spec)
        if found is not None:
            return ClassificationReport(*found[:2], rule.tag, approximate_eigen=approximate)


def constant_set(input_matrix: MatrixLike,
                 report: Optional[ClassificationReport] = None) -> ConstantSet:
    """The constant-set description of a matrix (reusing a prior report)."""
    return (report or classify(input_matrix)).constants

