"""Metamorphic properties of classification and certification on random
Jordan specifications: block order and power-of-two scale change nothing but
the scale of the constants, for Jordan documents and raw entries alike, and
the numerical search stays one-sided at every scale: at order 2, where the
paper's classification is complete, every find lies in the constant set.  The
order-2 test and the kappa-membership rule each decide once, so
``polar_condition_2x2`` is ``classify``'s verdict and ``request_certificate`` builds
every kappa the reported set accepts."""

import cmath
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apportion import (
    ConstantNotAchievableError,
    ConstructionError,
    JordanSpec,
    SearchConfig,
    Verdict,
    build_jordan,
    classify,
    find_apportioning,
    hadamard_lower_bound,
    polar_condition_2x2,
    request_certificate,
    trace_lower_bound,
    two_by_two_constants,
    verify_certificate,
)

EIGENVALUES = (0j, 1 + 0j, -1 + 0j, 1j, -1j, 2 + 0j, -2 + 0j, 3 + 0j,
               cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3),
               0.5 + 0.5j, -0.5 + 1j)
EXPONENTS = st.integers(-900, 900)
PROPERTY = settings(derandomize=True, max_examples=600, deadline=None)
SEARCH_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
SMALL_SEARCH = SearchConfig(restarts=4, max_iters=300, seed=0, defect_target=1e-6)


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


def _search(spec, k):
    """The search on the Jordan matrix of ``spec`` times 2^k, with no warning."""
    A = build_jordan(spec) * 2.0 ** k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return A, find_apportioning(A, SMALL_SEARCH)


@SEARCH_PROPERTY
@given(specs(max_order=3), EXPONENTS)
def test_search_never_finds_what_classify_refutes(spec, k):
    if classify(spec).verdict is not Verdict.NOT_APPORTIONABLE:
        return
    _, out = _search(spec, k)
    assert not out.found and out.certificate is None


@SEARCH_PROPERTY
@given(specs(max_order=3), EXPONENTS)
def test_search_finds_no_constant_below_the_lower_bounds(spec, k):
    A, out = _search(spec, k)
    if out.found:
        bound = max(trace_lower_bound(A), hadamard_lower_bound(A))
        assert out.certificate.kappa >= bound * (1 - 1e-6)


ORDER_TWO = st.one_of(
    st.tuples(st.sampled_from(EIGENVALUES), st.sampled_from(EIGENVALUES)).map(
        lambda pair: JordanSpec(((pair[0], 1), (pair[1], 1)))),
    st.sampled_from(EIGENVALUES).map(lambda lam: JordanSpec(((lam, 2),))),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ORDER_TWO, EXPONENTS)
@example(JordanSpec(((1 + 0j, 1), (-1 + 0j, 1))), 0)
@example(JordanSpec(((0j, 2),)), -700)
def test_order_two_finds_lie_in_the_constant_set(spec, k):
    A, out = _search(spec, k)
    if not out.found:
        return
    scaled = spec.scaled(2.0 ** k)
    report = classify(scaled)
    kappa = out.certificate.kappa
    assert report.verdict is Verdict.APPORTIONABLE
    assert report.constants.contains(kappa) is True
    (l1, size), *rest = scaled.blocks
    if size == 1 and rest and 0 not in (l1, rest[0][0]) and l1 != rest[0][0]:
        lower = two_by_two_constants(l1, rest[0][0]).lower_bound
        assert kappa >= lower * (1 - 1e-9)


def _boundary_ratios():
    """l2 / l1 on the boundary of the order-2 region, |r cos(theta) + 1| = |sin(theta)|:
    r = (+-|sin(theta)| - 1) / cos(theta) for angles of Pythagorean triples."""
    ratios = []
    for a, b, h in ((3, 4, 5), (5, 12, 13), (7, 24, 25), (8, 15, 17), (20, 21, 29)):
        for c in (a / h, -a / h, b / h, -b / h):
            for sin in (math.sqrt(1 - c * c), -math.sqrt(1 - c * c)):
                for r in ((abs(sin) - 1) / c, (-abs(sin) - 1) / c):
                    if r > 0:
                        ratios.append(r * complex(c, sin))
    return ratios


RATIOS = st.one_of(
    st.sampled_from(_boundary_ratios()),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False))


@PROPERTY
@given(st.sampled_from([lam for lam in EIGENVALUES if lam != 0]), RATIOS, EXPONENTS)
@example(1 + 0j, -1.8 + 2.4j, 0)     # on criterion 7's grid
@example(1 + 0j, -0.72 + 0.21j, 0)
def test_polar_condition_is_the_classification(l1, ratio, k):
    l1 = l1 * 2.0 ** k
    l2 = l1 * ratio
    if l2 == l1:
        return
    verdict = classify(JordanSpec(((l1, 1), (l2, 1)))).verdict
    assert polar_condition_2x2(l1, l2) == (verdict is Verdict.APPORTIONABLE)


@PROPERTY
@given(specs(), st.sampled_from([1 - 5e-10, 1.0, 1 + 5e-10, 1.5, 4.0]))
@example(JordanSpec(((0j, 1), (2 + 0j, 1), (0j, 1))), 1 - 5e-10)     # rank one
@example(JordanSpec(((1 + 0j, 1), (-1 + 0j, 1))), 1 - 5e-10)         # gamma = 0
@example(JordanSpec(((3j, 1), (0j, 1), (-3j, 1))), 1 - 1e-9)         # padded gamma = 0
def test_request_certificate_builds_every_accepted_kappa(spec, factor):
    # near the lower end of each set: lo, or the smallest member of the others
    report = classify(spec)
    constants = report.constants
    if report.verdict is not Verdict.APPORTIONABLE:
        return
    kappa = (constants.lo or constants.smallest_member()) * factor
    if constants.contains(kappa) is not True:
        return
    try:
        cert = request_certificate(spec, kappa=kappa, report=report)
    except ConstantNotAchievableError as exc:
        raise AssertionError(f"kappa = {kappa!r} in {constants.describe()} refused") from exc
    verify_certificate(cert, build_jordan(spec))
