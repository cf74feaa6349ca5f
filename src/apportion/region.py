"""The admissible region of the second eigenvalue at order 2, sampled on a grid.

A cell lambda2 is flagged 1 when diag(lambda1, lambda2) is apportionable: the gamma test
of ``rules._gamma_test`` (gamma = (lambda2+lambda1)/(lambda2-lambda1) vanishes, or
Re(gamma^2) < |gamma|^4 <= 1).  ``_region_blocks`` evaluates the test on whole row blocks
of the grid with numpy and runs the scalar test only on the cells where a comparison falls
within a relative ``BAND`` of its threshold, so every flag is the scalar test's flag.  The
blocks are formatted one at a time (``region_text``), so neither the temporaries nor
the output grow with the resolution.  This module imports no certificate layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .rules import _gamma_test
from .scalar import _integer, modulus, times_power_of_two, unit_exponent

__all__ = [
    "RegionSample",
    "admissible_region",
    "region_to_csv",
    "region_to_svg",
    "region_text",
]

#: grid points closer than this to 0 or to lambda1 are skipped as degenerate
DEGENERATE_ATOL = 1e-9
#: points per axis of the region grid, at most (about a million samples)
MAX_REGION_RESOLUTION = 1001
#: cells per row block, at most: the peak memory of a grid of any resolution
BLOCK_CELLS = 1 << 16
#: pixels per cell side of the SVG raster
CELL_PX = 8
#: a comparison within this relative distance of its threshold is decided by the scalar
#: test: far above the last-bit differences of the array form (numpy divides a complex
#: by multiplying with a reciprocal, CPython divides), so the array flags are the same
BAND = 1e-9
#: below this, |lambda2| and |lambda1| at unit scale are decided by the scalar test, as
#: subnormal quotients lose the relative precision the band assumes
_TINY = 2.0 ** -800


@dataclass(frozen=True)
class RegionSample:
    """One grid sample: admissible True/False, or None for degenerate points."""

    re: float
    im: float
    admissible: Optional[bool]


def _scalar_flag(lambda1: complex, unit_l1: complex, re: float, im: float,
                 unit_re: float, unit_im: float) -> int:
    """The flag of one cell by the per-cell test: -1 (degenerate), 0 or 1."""
    atol = DEGENERATE_ATOL
    l2 = complex(re, im)
    # |z| exceeds atol wherever a part does, so |z| is read only at tiny points
    if ((abs(re) > atol or abs(im) > atol or modulus(l2) > atol)
            and (abs(re - lambda1.real) > atol or abs(im - lambda1.imag) > atol
                 or modulus(l2 - lambda1) > atol)):
        return int(_gamma_test(unit_l1, complex(unit_re, unit_im)) is not None)
    return -1


def _near(a, b, scale):
    return np.abs(a - b) <= BAND * scale


def _block_flags(lambda1: complex, unit_l1: complex, res, ims, unit_res, unit_ims):
    """int8 flags (-1 skip, 0, 1) of the cells ims x res, row-major: the gamma test on the
    arrays, and the scalar test on the cells in its band."""
    with np.errstate(all="ignore"):   # NaN and inf are routed to the scalar test
        atol = DEGENERATE_ATOL
        re, im = res[None, :], ims[:, None]
        ure, uim = unit_res[None, :], unit_ims[:, None]
        # within atol of 0 or of lambda1 in both parts: the scalar test decides (its modulus
        # read skips a subset of these); outside, the cell is not degenerate
        near = (((np.abs(re) <= atol) & (np.abs(im) <= atol))
                | ((np.abs(re - lambda1.real) <= atol) & (np.abs(im - lambda1.imag) <= atol)))
        sr, si = unit_l1.real + ure, unit_l1.imag + uim
        dr, di = ure - unit_l1.real, uim - unit_l1.imag
        abs_s, abs_d = np.hypot(sr, si), np.hypot(dr, di)
        top = np.maximum(abs(unit_l1), np.hypot(ure, uim))
        floor_s = 1e-12 * top
        vanish = abs_s <= floor_s
        wide = abs_s > 2.0 * abs_d
        gamma = (sr + 1j * si) / (dr + 1j * di)
        gr, gi = gamma.real, gamma.imag
        g4 = np.hypot(gr, gi) ** 4
        re_g2 = gr * gr - gi * gi
        inside = (g4 <= 1.0) & (re_g2 < g4 - 1e-12)
        flags = np.where(vanish, 1, np.where(wide, 0, inside)).astype(np.int8)
        # |gamma|^4 within BAND of 1 holds the 4e-12 snap to 1 and the test |gamma|^4 <= 1
        open_ = ~vanish & ~wide
        band = (near | (top < _TINY) | _near(abs_s, floor_s, floor_s)
                | (~vanish & _near(abs_s, 2.0 * abs_d, abs_s))
                | (open_ & (_near(g4, 1.0, 1.0) | ~np.isfinite(g4)
                            | _near(re_g2, g4 - 1e-12, gr * gr + gi * gi + 1e-12))))
    for i, j in zip(*np.nonzero(band)):
        flags[i, j] = _scalar_flag(lambda1, unit_l1, float(res[j]), float(ims[i]),
                                   float(unit_res[j]), float(unit_ims[i]))
    return flags


def _region_blocks(lambda1: complex,
                   box: tuple[tuple[float, float], tuple[float, float]], resolution: int):
    """(res, ims, blocks): the grid's axes, and an iterator over its int8 flags (-1 skip,
    0, 1) in row blocks of at most BLOCK_CELLS cells, the imaginary axis outer.

    The arguments are checked here, before any block is evaluated; see
    ``admissible_region``."""
    lambda1 = complex(lambda1)
    if lambda1 == 0:
        raise InvalidInputError("lambda1 must be nonzero")
    _integer(resolution, 2, MAX_REGION_RESOLUTION,
             refusal=f"resolution must be an integer in [2, {MAX_REGION_RESOLUTION}]")
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
    unit_res, unit_ims = np.ldexp(res, -e), np.ldexp(ims, -e)
    rows = max(1, BLOCK_CELLS // resolution)
    blocks = (_block_flags(lambda1, unit_l1, res, ims[i:i + rows], unit_res, unit_ims[i:i + rows])
              for i in range(0, resolution, rows))
    return res, ims, blocks


def _region_grid(lambda1: complex,
                 box: tuple[tuple[float, float], tuple[float, float]], resolution: int):
    """(res, ims, flags): the grid's axes and its int8 flags (-1 skip, 0, 1), of shape
    (len(ims), len(res))."""
    res, ims, blocks = _region_blocks(lambda1, box, resolution)
    return res, ims, np.concatenate(list(blocks))


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
    res, ims, flags = _region_grid(lambda1, box, resolution)
    admissible = (None, False, True)
    res = res.tolist()
    return [RegionSample(re, im, admissible[flag + 1])
            for im, row in zip(ims.tolist(), flags.tolist()) for re, flag in zip(res, row)]


# ---------------------------------------------------------------------------
# output: one row formatter per format, shared by the sample lists and the grid
# ---------------------------------------------------------------------------

#: a flag's code: None, False and True are -1, 0 and 1
_CODE = {None: -1, False: 0, True: 1}
_CSV_FLAG = ("0", "1", "skip")          # indexed by the code, so -1 is "skip"
_CSV_HEAD = "re,im,admissible\n"


def _csv_rows(re_texts, im_texts, codes) -> str:
    """CSV rows ``re,im,admissible`` with admissible in {0, 1, skip}."""
    return "".join([f"{r},{i},{_CSV_FLAG[c]}\n" for r, i, c in zip(re_texts, im_texts, codes)])


def region_to_csv(samples: list[RegionSample]) -> str:
    """CSV rows ``re,im,admissible`` with admissible in {0, 1, skip}."""
    return _CSV_HEAD + _csv_rows([f"{s.re:.17g}" for s in samples],
                                 [f"{s.im:.17g}" for s in samples],
                                 [_CODE[s.admissible] for s in samples])


_SVG_FILL = ("#e0e0e0", "#2e7d32")      # indexed by the code: 0 and 1


def _svg_rects(xs, ys, codes) -> str:
    """One cell rectangle per non-degenerate sample, at pixel corners xs, ys."""
    return "".join([f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" '
                    f'fill="{_SVG_FILL[c]}"/>\n'
                    for x, y, c in zip(xs, ys, codes) if c >= 0])


def _svg_frame(re_values, im_values):
    """(x of, y of, head, tail) for an SVG raster of samples at these coordinates: each
    distinct value's pixel corner (the imaginary axis points up), and the text before and
    after the cells: the canvas, and the axes through re = 0 and im = 0 when inside."""
    res, ims = sorted(set(re_values)), sorted(set(im_values))
    x_of = {v: i * CELL_PX for i, v in enumerate(res)}
    y_of = {v: (len(ims) - 1 - i) * CELL_PX for i, v in enumerate(ims)}
    w, h = len(res) * CELL_PX, len(ims) * CELL_PX
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n'
            f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>\n')
    tail = []
    if res[0] <= 0.0 <= res[-1] and res[-1] > res[0]:
        fx = (0.0 - res[0]) / (res[-1] - res[0]) * (w - CELL_PX) + CELL_PX / 2
        tail.append(f'<line x1="{fx:.2f}" y1="0" x2="{fx:.2f}" y2="{h}" '
                    f'stroke="#000000" stroke-width="1"/>\n')
    if ims[0] <= 0.0 <= ims[-1] and ims[-1] > ims[0]:
        fy = h - ((0.0 - ims[0]) / (ims[-1] - ims[0]) * (h - CELL_PX) + CELL_PX / 2)
        tail.append(f'<line x1="0" y1="{fy:.2f}" x2="{w}" y2="{fy:.2f}" '
                    f'stroke="#000000" stroke-width="1"/>\n')
    return x_of, y_of, head, "".join(tail) + "</svg>\n"


def region_to_svg(samples: list[RegionSample]) -> str:
    """Self-contained SVG raster of the region, CELL_PX pixels per cell: two cell colors
    plus axes."""
    if not samples:
        raise InvalidInputError("no samples to render")
    x_of, y_of, head, tail = _svg_frame([s.re for s in samples], [s.im for s in samples])
    return head + _svg_rects([x_of[s.re] for s in samples], [y_of[s.im] for s in samples],
                             [_CODE[s.admissible] for s in samples]) + tail


def region_text(lambda1: complex,
                box: tuple[tuple[float, float], tuple[float, float]], resolution: int,
                fmt: str = "csv"):
    """The text of ``region_to_csv`` (fmt "csv") or ``region_to_svg`` (fmt "svg") of
    ``admissible_region(lambda1, box, resolution)``, as an iterator of chunks, one per
    row block.  The arguments are checked before it is returned."""
    res, ims, blocks = _region_blocks(lambda1, box, resolution)
    return (_csv_chunks if fmt == "csv" else _svg_chunks)(res.tolist(), ims.tolist(), blocks)


def _csv_chunks(res, ims, blocks):
    re_texts = [f"{x:.17g}" for x in res]
    im_texts = [f"{y:.17g}" for y in ims]
    yield _CSV_HEAD
    n, start = len(res), 0
    for flags in blocks:
        k = len(flags)
        yield _csv_rows(chain.from_iterable(repeat(re_texts, k)),
                        chain.from_iterable(repeat(t, n) for t in im_texts[start:start + k]),
                        flags.ravel().tolist())
        start += k


def _svg_chunks(res, ims, blocks):
    x_of, y_of, head, tail = _svg_frame(res, ims)
    xs = [x_of[x] for x in res]
    yield head
    n, start = len(res), 0
    for flags in blocks:
        k = len(flags)
        yield _svg_rects(chain.from_iterable(repeat(xs, k)),
                         chain.from_iterable(repeat(y_of[y], n) for y in ims[start:start + k]),
                         flags.ravel().tolist())
        start += k
    yield tail
