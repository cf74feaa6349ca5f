"""Classification of matrices by apportionability.

``classify`` runs a JordanSpec (any order) or raw entries (order <= 3)
through one ordered table of rules, one per covered matrix class, and returns
the first matching rule's verdict, constant-set description and tag; it builds
no certificate.  Each rule is one function: its match also returns the builder
for the shape it found.  ``request_certificate`` matches the report's rule
against the matrix the caller asked about, reads kappa against that match's
constant set, builds with its builder, places the certificate in the matrix's block
order (``constructors._placed``) and checks it against that matrix.  Orders 2 and 3 are resolved completely up to the open families; the
admissible-eigenvalue region for order 2 can be sampled and rendered.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .constructors import (
    ApportionCertificate,
    CertTag,
    TemplateKind,
    _certificate,
    _certified,
    _coerce_spec,
    _gamma_test,
    _half_rank,
    _half_rank_constants,
    _identity_plus_zero,
    _nilpotent,
    _nilpotent_constants,
    _order_two,
    _padded,
    _perturb_identity,
    _placed,
    _rank_one,
    _rank_one_constants,
    _scaled,
    _template,
    _two_by_two,
    perturb_identity_constants,
    spec_bounds,
)
from .core import as_matrix, modulus, times_power_of_two, unit_exponent
from .errors import InvalidInputError
from .jordan import JordanSpec, build_jordan, eigenstructure_small
from .reports import ClassificationReport, ConstantSet, Verdict

__all__ = [
    "classify",
    "constant_set",
    "request_certificate",
    "RegionSample",
    "admissible_region",
    "region_to_csv",
    "region_to_svg",
]

MatrixLike = Union[JordanSpec, np.ndarray, list]


def _coerce(input_matrix: MatrixLike) -> tuple[JordanSpec, bool]:
    if isinstance(input_matrix, JordanSpec):
        return input_matrix, False
    result = eigenstructure_small(input_matrix)
    return result.spec, result.approximate


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

Built = tuple[ApportionCertificate, tuple]
Match = Optional[tuple[Verdict, ConstantSet, Optional[Callable[[float], Built]]]]


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
    n = spec.order
    return Verdict.APPORTIONABLE, _nilpotent_constants(spec), lambda k: (
        _certificate(np.eye(n), np.eye(n), build_jordan(spec), 0.0, CertTag.NILPOTENT),
        spec.blocks)


def _match_rank_one(spec: JordanSpec) -> Match:
    """diag(lam, 0, ..., 0) with lam != 0, in any block order."""
    if spec.rank != 1 or spec.is_nilpotent():
        return None
    n, lam = spec.order, next(lam for lam, _ in spec.blocks if lam != 0)
    return Verdict.APPORTIONABLE, _rank_one_constants(lam, n), lambda k: (
        _rank_one(lam, n, k), ((lam, 1),) + ((0j, 1),) * (n - 1))


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
    return Verdict.APPORTIONABLE, ConstantSet.closed_half_line(lo), lambda k: (
        _scaled(_identity_plus_zero(n, modulus(lam, dividing=k)), lam),
        ((lam, 1),) * n + ((0j, 1),) * n)


def _match_half_rank(spec: JordanSpec) -> Match:
    if 2 * spec.rank > spec.order or spec.is_nilpotent():
        return None
    return (Verdict.APPORTIONABLE, _half_rank_constants(spec),
            lambda k: _half_rank(spec, k))


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
            return Verdict.APPORTIONABLE, constants.scaled(mu), lambda k: (
                _scaled(_perturb_identity(n, other / mu, modulus(mu, dividing=k)), mu),
                ((mu, 1),) * (n - 1) + ((other, 1),))
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
        _two_by_two(l1, l2, found, k), spec.blocks)


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
                _template(kind, lam), ((lam, sizes[0]), (0j, sizes[1])))
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
    return Verdict.APPORTIONABLE, constants, lambda k: (
        _padded(_two_by_two(l1, l2, found, k)), ((l1, 1), (l2, 1), (0j, 1)))


#: The case analysis, in order: the first rule that matches decides.
RULES: tuple[Rule, ...] = (
    Rule("zero-matrix", _match_zero),
    Rule("order-one",
         lambda s: ((Verdict.APPORTIONABLE, _rank_one_constants(s.blocks[0][0], 1),
                     lambda k: (_rank_one(s.blocks[0][0], 1, k), s.blocks))
                    if s.order == 1 else None)),
    # lam * I, lam != 0
    Rule("scalar-matrix",
         lambda s: (_REFUTED if len(set(s.blocks)) == 1 and s.blocks[0][1] == 1
                    and s.blocks[0][0] != 0 else None)),
    Rule("nilpotent",
         lambda s: ((Verdict.APPORTIONABLE, _nilpotent_constants(s),
                     lambda k: _nilpotent(s, k))
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


def request_certificate(input_matrix: MatrixLike, kappa: Optional[float] = None,
                        report: Optional[ClassificationReport] = None
                        ) -> ApportionCertificate:
    """Build a certificate for an Apportionable input at ``kappa``.

    ``kappa`` is read against the constant set of the report's rule matched on the input,
    the matrix being built, and defaults to a deterministic member of it.  Raises
    InvalidInputError when kappa is not real, the verdict is not Apportionable or the rule
    does not match the input (the certificate is built by that rule, for the shape it
    matches); ConstantNotAchievableError when kappa is outside the (known part of the)
    set; and ConstructionError when the construction leaves the float range.  Raw
    entries must already sit in Jordan-block arrangement (certificates are
    built for the input matrix, in its own block order); conjugated raw input
    is refused since recovering a transforming basis for it is out of scope.
    The certificate is checked once, against the raw entries themselves when
    they are given, else against the Jordan matrix of the spec.
    """
    spec = _coerce_spec(input_matrix)
    report = report or _classify_spec(spec)
    if report.verdict is not Verdict.APPORTIONABLE:
        raise InvalidInputError(
            f"no constructive certificate: verdict is {report.verdict.value}"
        )
    rule = _RULES_BY_TAG.get(report.theorem_tag)
    found = None if rule is None else rule.match(spec)
    if found is None or found[2] is None:
        raise InvalidInputError(
            f"no constructive path for tag {report.theorem_tag!r} on this matrix")
    _, constants, build = found
    A = build_jordan(spec) if isinstance(input_matrix, JordanSpec) else as_matrix(input_matrix)
    return _certified(lambda k: _placed(*build(k), spec), A,
                      constants.smallest_member() if kappa is None else kappa, constants)


# ---------------------------------------------------------------------------
# admissible region for the second eigenvalue at order 2
# ---------------------------------------------------------------------------

#: grid points closer than this to 0 or to lambda1 are skipped as degenerate
DEGENERATE_ATOL = 1e-9
#: points per axis of the region grid, at most (about a million samples)
MAX_REGION_RESOLUTION = 1001


@dataclass(frozen=True)
class RegionSample:
    """One grid sample: admissible True/False, or None for degenerate points."""

    re: float
    im: float
    admissible: Optional[bool]


def admissible_region(lambda1: complex,
                      box: tuple[tuple[float, float], tuple[float, float]],
                      resolution: int) -> list[RegionSample]:
    """Sample the second-eigenvalue admissibility predicate on a grid: the gamma
    test of ``two_by_two_constants``, so each flag is the verdict ``classify``
    gives diag(lambda1, lambda2).

    ``box`` is ((re_min, re_max), (im_min, im_max)); each axis carries
    ``resolution`` evenly spaced points (endpoints included).  Points within
    DEGENERATE_ATOL of 0 or of lambda1 are skipped.  Output order is
    row-major: the imaginary axis varies in the outer loop.
    """
    lambda1 = complex(lambda1)
    if lambda1 == 0:
        raise InvalidInputError("lambda1 must be nonzero")
    if not (isinstance(resolution, (int, np.integer))
            and 2 <= resolution <= MAX_REGION_RESOLUTION):
        raise InvalidInputError(
            f"resolution must be an integer in [2, {MAX_REGION_RESOLUTION}]")
    (re_min, re_max), (im_min, im_max) = box
    if not (re_min < re_max and im_min < im_max):
        raise InvalidInputError("box must have positive extent on both axes")
    if not all(map(math.isfinite, (lambda1.real, lambda1.imag, re_max - re_min, im_max - im_min))):
        raise InvalidInputError("lambda1 and the box must be finite, with a finite extent")
    # the gamma test is scale-free: the whole box goes to unit scale at once
    e = unit_exponent((lambda1, complex(re_min, im_min), complex(re_max, im_max)))
    unit_l1 = times_power_of_two(lambda1, -e)
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    unit_res = np.ldexp(res, -e).tolist()
    atol = DEGENERATE_ATOL
    samples = []
    for im, unit_im in zip(ims.tolist(), np.ldexp(ims, -e).tolist()):
        for re, unit_re in zip(res.tolist(), unit_res):
            l2 = complex(re, im)
            admissible = None
            # |z| exceeds atol wherever a part does, so |z| is read only at tiny points
            if ((abs(re) > atol or abs(im) > atol or modulus(l2) > atol)
                    and (abs(re - lambda1.real) > atol or abs(im - lambda1.imag) > atol
                         or modulus(l2 - lambda1) > atol)):
                admissible = _gamma_test(unit_l1, complex(unit_re, unit_im)) is not None
            samples.append(RegionSample(re, im, admissible))
    return samples


class _Text17(dict):
    """x -> f"{x:.17g}", formatting each distinct nonzero x once; a zero is
    formatted every time, since 0.0 and -0.0 are one key but two texts."""

    def __missing__(self, x):
        text = f"{x:.17g}"
        if x:
            self[x] = text
        return text


_FLAG_TEXT = {None: "skip", False: "0", True: "1"}


def region_to_csv(samples: list[RegionSample]) -> str:
    """CSV rows ``re,im,admissible`` with admissible in {0, 1, skip}."""
    text = _Text17()
    rows = [f"{text[s.re]},{text[s.im]},{_FLAG_TEXT[s.admissible]}\n" for s in samples]
    return "re,im,admissible\n" + "".join(rows)


def region_to_svg(samples: list[RegionSample], cell_px: int = 8) -> str:
    """Self-contained SVG raster of the region: two cell colors plus axes."""
    if not samples:
        raise InvalidInputError("no samples to render")
    res = sorted({s.re for s in samples})
    ims = sorted({s.im for s in samples})
    ncols, nrows = len(res), len(ims)
    col_of = {v: i for i, v in enumerate(res)}
    row_of = {v: i for i, v in enumerate(ims)}
    w, h = ncols * cell_px, nrows * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    for s in samples:
        if s.admissible is None:
            continue
        x = col_of[s.re] * cell_px
        y = (nrows - 1 - row_of[s.im]) * cell_px  # imaginary axis points up
        color = "#2e7d32" if s.admissible else "#e0e0e0"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" fill="{color}"/>'
        )
    # axes through re = 0 and im = 0 when inside the box
    if res[0] <= 0.0 <= res[-1] and res[-1] > res[0]:
        fx = (0.0 - res[0]) / (res[-1] - res[0]) * (w - cell_px) + cell_px / 2
        parts.append(f'<line x1="{fx:.2f}" y1="0" x2="{fx:.2f}" y2="{h}" '
                     f'stroke="#000000" stroke-width="1"/>')
    if ims[0] <= 0.0 <= ims[-1] and ims[-1] > ims[0]:
        fy = h - ((0.0 - ims[0]) / (ims[-1] - ims[0]) * (h - cell_px) + cell_px / 2)
        parts.append(f'<line x1="0" y1="{fy:.2f}" x2="{w}" y2="{fy:.2f}" '
                     f'stroke="#000000" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
