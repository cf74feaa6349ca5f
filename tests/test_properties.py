"""Metamorphic properties of classification and certification on random
Jordan specifications: block order and power-of-two scale change nothing but
the scale of the constants, for Jordan documents and raw entries alike."""

import cmath
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apportion import (
    ConstructionError,
    JordanSpec,
    Verdict,
    classify,
    request_certificate,
    verify_certificate,
)

EIGENVALUES = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 2 + 0j, -2 + 0j, 3 + 0j,
               cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3),
               0.5 + 0.5j, -0.5 + 1j)
EXPONENTS = st.integers(-900, 900)
PROPERTY = settings(derandomize=True, max_examples=600, deadline=None)


@st.composite
def specs(draw, max_order=8, max_size=3):
    """A JordanSpec of order <= max_order with blocks of size 1..max_size."""
    blocks = []
    order = 0
    while order < max_order and (not blocks or draw(st.booleans())):
        size = draw(st.integers(1, min(max_size, max_order - order)))
        blocks.append((draw(st.sampled_from(EIGENVALUES)), size))
        order += size
    return JordanSpec(tuple(blocks))


def assert_constants_match(got, want, factor=1.0):
    """``got`` is ``want`` scaled by ``factor``: same shape, values to 1e-12."""
    assert (got.shape, got.exact) == (want.shape, want.exact)
    for a, b in ((got.lo, want.lo), (got.lower_bound, want.lower_bound),
                 *zip(got.values, want.values)):
        assert math.isclose(a, b * factor, rel_tol=1e-12, abs_tol=0.0)
    assert len(got.values) == len(want.values)


@PROPERTY
@given(specs(), st.randoms(use_true_random=False))
def test_block_order_changes_nothing(spec, rnd):
    order = list(range(len(spec.blocks)))
    rnd.shuffle(order)
    base = classify(spec)
    permuted = classify(JordanSpec(tuple(spec.blocks[i] for i in order)))
    assert (permuted.verdict, permuted.theorem_tag) == (base.verdict, base.theorem_tag)
    assert_constants_match(permuted.constants, base.constants)


@PROPERTY
@given(specs(), EXPONENTS)
@example(JordanSpec(((-1j, 1), (-0.5 + 1j, 1))), -582)   # |l1 l2| underflows
def test_power_of_two_scale_scales_the_constants(spec, k):
    base = classify(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = classify(spec.scaled(2.0 ** k))
    assert (scaled.verdict, scaled.theorem_tag) == (base.verdict, base.theorem_tag)
    assert_constants_match(scaled.constants, base.constants, 2.0 ** k)


@PROPERTY
@given(specs(max_order=3, max_size=1), EXPONENTS)
@example(JordanSpec(((1 + 0j, 1), (2 + 0j, 1))), -40)    # once the zero matrix
@example(JordanSpec(((-2 + 0j, 1), (3 + 0j, 1))), 510)   # 4|det| overflows
def test_raw_diagonal_entries_at_any_scale(spec, k):
    # raw entries get the verdict and tag of their own block list, with no
    # warning, and every certificate built for them verifies against them
    scaled = spec.scaled(2.0 ** k)
    A = np.diag(scaled.diagonal)
    want = classify(scaled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classify(A)
        assert (got.verdict, got.theorem_tag) == (want.verdict, want.theorem_tag)
        if got.verdict is not Verdict.APPORTIONABLE:
            return
        try:
            cert = request_certificate(A)
        except ConstructionError:
            return
        verify_certificate(cert, A)
