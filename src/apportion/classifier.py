"""Certificates for classified matrices, and the admissible region at order 2.

``classify`` and its one table of rules live in ``rules``, which imports no numpy; this
module re-exports them.  ``request_certificate`` matches the report's rule against the
matrix the caller asked about, reads kappa against that match's constant set, builds with
its builder, places the certificate in the matrix's block order (``constructors._placed``)
and checks it against that matrix.  Orders 2 and 3 are resolved completely up to the open
families; the admissible-eigenvalue region for order 2 can be sampled and rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constructors import ApportionCertificate, _certified, _coerce_spec, _placed
from .core import as_matrix, modulus, times_power_of_two, unit_exponent
from .errors import InvalidInputError
from .jordan import build_jordan
from .reports import ClassificationReport, Verdict
# RULES, classify and constant_set are re-exported from the theory layer
from .rules import (RULES, MatrixLike, _classify_spec, _gamma_test, _RULES_BY_TAG, classify,
                    constant_set)
from .spec import JordanSpec

__all__ = [
    "classify",
    "constant_set",
    "request_certificate",
    "RegionSample",
    "admissible_region",
    "region_to_csv",
    "region_to_svg",
]


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
