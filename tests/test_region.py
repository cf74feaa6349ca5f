"""The array-native region against the per-cell loop it replaced, kept here as the
reference: the same flags, the same CLI bytes, a memory budget, and no certificate layer
loaded by the ``region`` command."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import apportion
from apportion.cli import main
from apportion.region import (DEGENERATE_ATOL, _region_grid, admissible_region, region_text,
                              region_to_csv, region_to_svg)
from apportion.rules import _gamma_test
from apportion.scalar import modulus, times_power_of_two, unit_exponent

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_flags(lambda1, box, resolution):
    """The per-cell loop: one scalar gamma test per grid point at unit scale, -1 for a
    point within DEGENERATE_ATOL of 0 or of lambda1."""
    lambda1 = complex(lambda1)
    (re_min, re_max), (im_min, im_max) = box
    e = unit_exponent((lambda1, complex(re_min, im_min), complex(re_max, im_max)))
    unit_l1 = times_power_of_two(lambda1, -e)
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    unit_res = np.ldexp(res, -e).tolist()
    atol = DEGENERATE_ATOL
    flags = []
    for im, unit_im in zip(ims.tolist(), np.ldexp(ims, -e).tolist()):
        row = []
        for re, unit_re in zip(res.tolist(), unit_res):
            l2 = complex(re, im)
            flag = -1
            if ((abs(re) > atol or abs(im) > atol or modulus(l2) > atol)
                    and (abs(re - lambda1.real) > atol or abs(im - lambda1.imag) > atol
                         or modulus(l2 - lambda1) > atol)):
                flag = int(_gamma_test(unit_l1, complex(unit_re, unit_im)) is not None)
            row.append(flag)
        flags.append(row)
    return res.tolist(), ims.tolist(), flags


def reference_csv(lambda1, box, resolution):
    res, ims, flags = reference_flags(lambda1, box, resolution)
    text = {-1: "skip", 0: "0", 1: "1"}
    return "re,im,admissible\n" + "".join(
        f"{re:.17g},{im:.17g},{text[flag]}\n"
        for im, row in zip(ims, flags) for re, flag in zip(res, row))


def cli_text(lambda1, box, resolution, fmt="csv"):
    (re_min, re_max), (im_min, im_max) = box
    argv = ["region", "--lambda1-re", repr(lambda1.real), "--lambda1-im", repr(lambda1.imag),
            "--re-min", repr(re_min), "--re-max", repr(re_max),
            "--im-min", repr(im_min), "--im-max", repr(im_max),
            "--resolution", str(resolution), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def check_against_reference(lambda1, box, resolution):
    res, ims, flags = _region_grid(lambda1, box, resolution)
    want_res, want_ims, want = reference_flags(lambda1, box, resolution)
    assert flags.dtype == np.int8 and flags.shape == (resolution, resolution)
    assert (res.tolist(), ims.tolist()) == (want_res, want_ims)
    assert flags.tolist() == want
    assert cli_text(lambda1, box, resolution) == reference_csv(lambda1, box, resolution)


def _boundary_ratios():
    """lambda2 / lambda1 on the boundary of the region, |r cos(theta) + 1| = |sin(theta)|,
    at the angles of Pythagorean triples, and on |gamma| = 1 (lambda2 / lambda1 = i t)."""
    ratios = [2j, -0.5j]
    for a, b, h in ((3, 4, 5), (5, 12, 13), (8, 15, 17)):
        for c in (a / h, -a / h, b / h, -b / h):
            for sin in (math.sqrt(1 - c * c), -math.sqrt(1 - c * c)):
                for r in ((abs(sin) - 1) / c, (-abs(sin) - 1) / c):
                    if r > 0:
                        ratios.append(r * complex(c, sin))
    return ratios


BOUNDARY_RATIOS = _boundary_ratios()


@st.composite
def wide_floats(draw, low=-1000, high=1000):
    """m 2^k with m in [-2, 2] and k in [low, high]."""
    return math.ldexp(draw(st.floats(-2.0, 2.0)), draw(st.integers(low, high)))


@st.composite
def region_cases(draw):
    kind = draw(st.sampled_from(["wide", "real", "boundary"]))
    if kind == "wide":
        lambda1 = complex(draw(wide_floats()), draw(wide_floats()))
    elif kind == "real":   # Re lambda2 = 0 is |gamma| = 1 exactly
        lambda1 = complex(draw(wide_floats()), 0.0)
    else:                  # criterion 7's boundary point
        lambda1 = draw(st.sampled_from([-1.8 + 2.4j, -1.8 - 2.4j]))
    assume(lambda1 != 0)
    scale = max(abs(lambda1.real), abs(lambda1.imag))
    shape = draw(st.sampled_from(["around", "symmetric", "signed-zero", "near-zero",
                                  "near-lambda1", "near-boundary", "near-minus-lambda1"]))
    if shape == "around":
        corners = sorted(draw(st.floats(-3.0, 3.0)) * scale for _ in range(2))
        corners += sorted(draw(st.floats(-3.0, 3.0)) * scale for _ in range(2))
        box = ((corners[0], corners[1]), (corners[2], corners[3]))
    elif shape == "symmetric":
        a, b = (draw(st.floats(0.1, 3.0)) * scale for _ in range(2))
        box = ((-a, a), (-b, b))
    elif shape == "signed-zero":
        a, b = (draw(st.floats(0.1, 3.0)) * scale for _ in range(2))
        box = draw(st.sampled_from([((-0.0, a), (-b, -0.0)), ((-a, -0.0), (-0.0, b)),
                                    ((-0.0, a), (-0.0, b))]))
    elif shape in ("near-zero", "near-lambda1"):
        t = draw(st.floats(1e-12, 1e-8))
        c = 0j if shape == "near-zero" else lambda1
        box = ((c.real - t, c.real + t), (c.imag - t, c.imag + t))
    else:   # many cells at a threshold: |gamma| = 1 or Re(gamma^2) = |gamma|^4, or gamma = 0
        c = lambda1 * (draw(st.sampled_from(BOUNDARY_RATIOS)) if shape == "near-boundary" else -1)
        t = scale * math.ldexp(1.0, draw(st.integers(-50, -10)))
        box = ((c.real - t, c.real + t), (c.imag - t, c.imag + t))
    (re_min, re_max), (im_min, im_max) = box
    assume(re_min < re_max and im_min < im_max
           and math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min))
    return lambda1, box, draw(st.integers(2, 64))


class TestAgainstTheLoop:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(region_cases())
    def test_flags_and_csv(self, case):
        check_against_reference(*case)

    @pytest.mark.parametrize("lambda1, box, resolution", [
        (1 + 0j, ((-3.0, 3.0), (-3.0, 3.0)), 201),
        (-1.8 + 2.4j, ((-3.0, 3.0), (-3.0, 3.0)), 201),
        (0.8 + 0.6j, ((-3.0, 3.0), (-3.0, 3.0)), 1001),
    ])
    def test_fixed_grids(self, lambda1, box, resolution):
        check_against_reference(lambda1, box, resolution)

    @pytest.mark.parametrize("lambda1, box, resolution", [
        (0.8 + 0.6j, ((-3.0, 3.0), (-3.0, 3.0)), 201),
        (1 + 0j, ((-0.0, 1e-300), (-1e300, 1e300)), 7),
        (1 + 0j, ((1.0, 1.0 + 1e-13), (-1e-15, 1e-15)), 101),   # repeated axis values
    ])
    def test_samples_and_stream_agree(self, lambda1, box, resolution):
        samples = admissible_region(lambda1, box, resolution)
        assert "".join(region_text(lambda1, box, resolution)) == region_to_csv(samples)
        assert cli_text(lambda1, box, resolution, "svg") == region_to_svg(samples)


class TestBudgets:
    def test_region_memory_is_bounded(self, tmp_path):
        # the grid is evaluated and written one row block at a time: 285 MiB at the
        # per-cell loop for this call, which writes 37.3 MB
        out = tmp_path / "region.csv"
        argv = ["region", "--lambda1-re", "0.8", "--lambda1-im", "0.6", "--resolution", "1001",
                "-o", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2**20
        with open(out, "rb") as fh:
            assert sum(1 for _ in fh) == 1 + 1001 * 1001

    def test_region_loads_no_certificate_layer(self):
        src = os.path.dirname(os.path.dirname(apportion.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "apportion.cli",
                               "region", "--lambda1-re", "1"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.count("\n") == 1 + 201 * 201
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "apportion.region" in imported
        for module in ("constructors", "jordan", "core"):
            assert "apportion." + module not in imported
