"""Classification of matrices by apportionability.

``classify`` runs a JordanSpec (any order) or raw entries (order <= 3)
through one ordered table of rules, one per covered matrix class, and returns
the first rule's verdict, constant-set description and tag; the same rule
builds the certificate on request.  Orders 2 and 3 are resolved completely
up to the families that remain open; the admissible-eigenvalue region for
order 2 can be sampled and rendered.
"""

from __future__ import annotations

import math
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
    _nilpotent,
    _nilpotent_constants,
    _order_two,
    _padded,
    _perturb_identity,
    _rank_one,
    _rank_one_constants,
    _reordered,
    _scaled,
    _template,
    _template_spec,
    _two_by_two,
    perturb_identity_constants,
    spec_bounds,
    two_by_two_constants,
)
from .core import as_matrix, times_power_of_two, unit_exponent
from .errors import InvalidInputError, UnsupportedOrderError
from .jordan import (
    JordanSpec,
    block_permutation,
    build_jordan,
    eigenstructure_small,
)
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
    M = as_matrix(input_matrix, square=True, name="A")
    if M.shape[0] > 3:
        raise UnsupportedOrderError(
            "raw-entry classification is limited to order 3; supply a JordanSpec"
        )
    result = eigenstructure_small(M)
    return result.spec, result.approximate


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

Match = Optional[tuple[Verdict, ConstantSet]]
Built = tuple[ApportionCertificate, JordanSpec]


@dataclass(frozen=True)
class Rule:
    """One matrix class of the case analysis.

    ``match`` returns (verdict, constants) when the spec belongs to the class,
    else None.  ``build`` returns a certificate at a member kappa of the
    constants together with the block order it was built for, unchecked
    (``request_certificate`` checks it once); refuting and open classes have
    no builder.  ``certify_on_classify`` attaches a certificate at the default
    member to the classification report.
    """

    tag: str
    match: Callable[[JordanSpec], Match]
    build: Optional[Callable[[JordanSpec, float], Built]] = None
    certify_on_classify: bool = False


_REFUTED = (Verdict.NOT_APPORTIONABLE, ConstantSet.empty())


def _unknown(spec: JordanSpec) -> Match:
    return Verdict.UNKNOWN, ConstantSet.unknown(max(spec_bounds(spec)))


def _match_rank_one(spec: JordanSpec) -> Match:
    if spec.rank != 1:
        return None
    return Verdict.APPORTIONABLE, _rank_one_constants(spec.spectral_radius, spec.order)


def _build_rank_one(spec: JordanSpec, kappa: float) -> Built:
    lam = next(lam for lam, _ in spec.blocks if lam != 0)
    built = JordanSpec(((lam, 1),) + ((0j, 1),) * (spec.order - 1))
    return _rank_one(lam, spec.order, kappa), built


def _match_half_rank(spec: JordanSpec) -> Match:
    if 2 * spec.rank > spec.order:
        return None
    return Verdict.APPORTIONABLE, _half_rank_constants(spec)


def _perturb_shape(spec: JordanSpec) -> Optional[tuple[complex, complex, bool]]:
    """Detect mu * (rank-one perturbation of I): n-1 blocks share an eigenvalue.

    Returns (mu, other eigenvalue, has_size2_block) or None.  ``other`` is the
    odd eigenvalue out for the diagonalizable shape; for the one-size-2-block
    shape it equals mu.
    """
    n = spec.order
    if n < 3:
        return None
    eigenvalues = [lam for lam, _ in spec.blocks]
    for mu in set(eigenvalues) - {0}:
        if eigenvalues.count(mu) != n - 1:
            continue
        sizes = sorted(size for lam, size in spec.blocks if lam == mu)
        if len(eigenvalues) == n - 1 and sizes == [1] * (n - 2) + [2]:
            return mu, mu, True      # all blocks share mu: sizes 1, ..., 1, 2
        if len(eigenvalues) == n and sizes == [1] * (n - 1):
            return mu, next(lam for lam in eigenvalues if lam != mu), False
    return None


def _match_perturb(spec: JordanSpec) -> Match:
    shape = _perturb_shape(spec)
    if shape is None:
        return None
    mu, other, has_j2 = shape
    constants = None if has_j2 else perturb_identity_constants(spec.order, other / mu)
    if constants is None:
        return _REFUTED
    return Verdict.APPORTIONABLE, constants.scaled(abs(mu))


def _build_perturb(spec: JordanSpec, kappa: float) -> Built:
    n = spec.order
    mu, other, _ = _perturb_shape(spec)
    built = JordanSpec(((mu, 1),) * (n - 1) + ((other, 1),))
    return _scaled(_perturb_identity(n, other / mu, kappa / abs(mu)), mu), built


def _match_two_by_two(spec: JordanSpec) -> Match:
    """Order 2 with distinct nonzero eigenvalues (every other order-2 spec
    is caught by an earlier rule)."""
    if spec.order != 2:
        return None
    constants = two_by_two_constants(spec.blocks[0][0], spec.blocks[1][0])
    return _REFUTED if constants is None else (Verdict.APPORTIONABLE, constants)


def _build_two_by_two(spec: JordanSpec, kappa: float) -> Built:
    l1, l2 = spec.blocks[0][0], spec.blocks[1][0]
    return _two_by_two(l1, l2, _order_two(l1, l2), kappa), spec


def _template_eigenvalue(spec: JordanSpec, sizes: tuple[int, int]) -> Optional[complex]:
    """lam when the blocks are (lam, sizes[0]) and (0, sizes[1]) in either
    order with lam != 0, else None."""
    if len(spec.blocks) != 2:
        return None
    for (lam, s), (mu, t) in (spec.blocks, spec.blocks[::-1]):
        if lam != 0 and mu == 0 and (s, t) == sizes:
            return lam
    return None


def _match_template(spec: JordanSpec, sizes: tuple[int, int], divisor: float) -> Match:
    lam = _template_eigenvalue(spec, sizes)
    if lam is None:
        return None
    return Verdict.APPORTIONABLE, ConstantSet.finite(
        [abs(lam) / divisor], exact=False, lower_bound=max(spec_bounds(spec)))


def _build_template(spec: JordanSpec, kind: TemplateKind, sizes: tuple[int, int]) -> Built:
    lam = _template_eigenvalue(spec, sizes)
    return _template(kind, lam), _template_spec(kind, lam)


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
    base = None if pair is None else two_by_two_constants(*pair)
    if base is None:
        return None
    return Verdict.APPORTIONABLE, replace(
        base, exact=False, lower_bound=min(base.lower_bound, max(spec_bounds(spec))))


def _build_pad_zero(spec: JordanSpec, kappa: float) -> Built:
    l1, l2 = _pair_plus_zero(spec)
    cert = _two_by_two(l1, l2, _order_two(l1, l2), kappa)
    return _padded(cert), JordanSpec(((l1, 1), (l2, 1), (0j, 1)))


#: The case analysis, in order: the first rule that matches decides.
RULES: tuple[Rule, ...] = (
    Rule("zero-matrix",
         lambda s: ((Verdict.APPORTIONABLE, _nilpotent_constants(s))
                    if s.is_zero_matrix() else None),
         lambda s, k: (_certificate(np.eye(s.order), np.eye(s.order), build_jordan(s), 0.0,
                                    CertTag.NILPOTENT), s)),
    Rule("order-one",
         lambda s: ((Verdict.APPORTIONABLE, _rank_one_constants(abs(s.blocks[0][0]), 1))
                    if s.order == 1 else None),
         lambda s, k: (_rank_one(s.blocks[0][0], 1, k), s)),
    # lam * I, lam != 0
    Rule("scalar-matrix",
         lambda s: (_REFUTED if len(set(s.blocks)) == 1 and s.blocks[0][1] == 1
                    and s.blocks[0][0] != 0 else None)),
    Rule("nilpotent",
         lambda s: ((Verdict.APPORTIONABLE, _nilpotent_constants(s))
                    if s.is_nilpotent() else None),
         lambda s, k: (_nilpotent(s, k), s)),
    Rule("rank-one", _match_rank_one, _build_rank_one),
    Rule("half-rank", _match_half_rank, lambda s, k: (_half_rank(s, k), s)),
    Rule("perturb-identity", _match_perturb, _build_perturb),
    # a single 2x2 block with nonzero eigenvalue
    Rule("repeated-eigenvalue",
         lambda s: _REFUTED if s.order == 2 and len(s.blocks) == 1 else None),
    Rule("two-by-two", _match_two_by_two, _build_two_by_two, certify_on_classify=True),
    Rule("3x3-template-j2-plus-zero",
         lambda s: _match_template(s, (2, 1), 1.0),
         lambda s, k: _build_template(s, TemplateKind.LAMBDA_J2_PLUS_ZERO, (2, 1))),
    Rule("3x3-template-plus-nilpotent",
         lambda s: _match_template(s, (1, 2), math.sqrt(3.0)),
         lambda s, k: _build_template(s, TemplateKind.LAMBDA_PLUS_N2, (1, 2))),
    Rule("two-by-two-pad-zero", _match_pad_zero, _build_pad_zero),
    # the pair fails at order 2, but padding could still help
    Rule("two-by-two-pad-zero-inconclusive",
         lambda s: None if _pair_plus_zero(s) is None else _unknown(s)),
    # J3(lam), J2(lam) + [mu] and three distinct nonzero eigenvalues
    Rule("open-3x3", lambda s: _unknown(s) if s.order == 3 else None),
    Rule("order-not-covered", _unknown),
)

_RULES_BY_TAG = {rule.tag: rule for rule in RULES}


def _permute_to(cert: ApportionCertificate, built_spec: JordanSpec,
                target_spec: JordanSpec) -> ApportionCertificate:
    """Map a certificate built for one block order onto the requested order, unchecked."""
    if built_spec.blocks == target_spec.blocks:
        return cert
    used = [False] * len(target_spec.blocks)
    order = []
    for blk in built_spec.blocks:
        idx = next(i for i, b in enumerate(target_spec.blocks)
                   if not used[i] and b == blk)
        used[idx] = True
        order.append(idx)
    # reordering target by `order` reproduces built: J_built = Q J_target Q^T
    _, Q = block_permutation(target_spec, order)
    return _reordered(cert, Q, cert.theorem_tag)


def classify(input_matrix: MatrixLike) -> ClassificationReport:
    """Verdict, constant set, and certificate availability for a matrix.

    Raw entries are accepted up to order 3 (the Jordan structure is recovered
    by closed-form eigenvalues and rank tests, and near-degenerate spectra are
    flagged approximate); larger inputs must arrive as a JordanSpec.
    """
    spec, approximate = _coerce(input_matrix)
    report = _classify_spec(spec)
    return replace(report, approximate_eigen=True) if approximate else report


def _classify_spec(spec: JordanSpec) -> ClassificationReport:
    for rule in RULES:  # the last rule matches every spec
        found = rule.match(spec)
        if found is not None:
            break
    report = ClassificationReport(*found, rule.tag)
    if rule.certify_on_classify and report.verdict is Verdict.APPORTIONABLE:
        report = replace(report, certificate=request_certificate(spec, report=report))
    return report


def constant_set(input_matrix: MatrixLike,
                 report: Optional[ClassificationReport] = None) -> ConstantSet:
    """The constant-set description of a matrix (reusing a prior report)."""
    return (report or classify(input_matrix)).constants


def request_certificate(input_matrix: MatrixLike, kappa: Optional[float] = None,
                        report: Optional[ClassificationReport] = None
                        ) -> ApportionCertificate:
    """Build a certificate for an Apportionable input at ``kappa``.

    ``kappa`` defaults to a deterministic member of the constant set.  Raises
    ConstantNotAchievableError when kappa is outside the (known part of the)
    set, InvalidInputError when the verdict is not Apportionable, and
    ConstructionError when the construction leaves the float range.  Raw
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
    constants = report.constants
    if kappa is None:
        kappa = constants.smallest_member()
        if kappa is None:
            raise InvalidInputError("no default constant available for this class")
    kappa = float(kappa)
    rule = _RULES_BY_TAG.get(report.theorem_tag)
    if rule is None or rule.build is None:
        raise InvalidInputError(f"no constructive path for tag {report.theorem_tag!r}")
    A = build_jordan(spec) if isinstance(input_matrix, JordanSpec) else as_matrix(input_matrix)
    return _certified(lambda: _permute_to(*rule.build(spec, kappa), spec), A, kappa, constants)


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
    samples = []
    for im, unit_im in zip(ims.tolist(), np.ldexp(ims, -e).tolist()):
        for re, unit_re in zip(res.tolist(), unit_res):
            l2 = complex(re, im)
            admissible = None
            if abs(l2) > DEGENERATE_ATOL and abs(l2 - lambda1) > DEGENERATE_ATOL:
                admissible = _gamma_test(unit_l1, complex(unit_re, unit_im)) is not None
            samples.append(RegionSample(re, im, admissible))
    return samples


def region_to_csv(samples: list[RegionSample]) -> str:
    """CSV rows ``re,im,admissible`` with admissible in {0, 1, skip}."""
    lines = ["re,im,admissible"]
    for s in samples:
        flag = "skip" if s.admissible is None else str(int(s.admissible))
        lines.append(f"{s.re:.17g},{s.im:.17g},{flag}")
    return "\n".join(lines) + "\n"


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
