import cmath
import math

import numpy as np
import pytest

from apportion import (
    CertTag,
    ConstantNotAchievableError,
    InvalidInputError,
    JordanSpec,
    TemplateKind,
    Verdict,
    apportion_2x2,
    apportion_3x3_template,
    apportion_A_oplus_zeros,
    apportion_half_rank,
    apportion_I_oplus_O,
    apportion_nilpotent,
    apportion_perturb_identity,
    apportion_rank_one,
    build_jordan,
    half_rank_plan,
    hadamard_lower_bound,
    is_uniform,
    pad_by_zero,
    perturb_identity_constants,
    polar_condition_2x2,
    reorder_certificate,
    spiral_sum,
    trace_lower_bound,
    two_by_two_constants,
    two_by_two_plan,
    verify_certificate,
)

from helpers import GOLDEN_5X5_IMAGE, GOLDEN_3X3_J2_IMAGE, W3, random_half_rank_spec

KAPPA_13 = 1.0 / math.sqrt(3.0)


def check_cert(cert, A, kappa=None):
    """Full re-verification plus the two unconditional lower bounds."""
    rep = verify_certificate(cert, A)
    assert rep.is_uniform
    if kappa is not None:
        assert rep.kappa == pytest.approx(kappa, rel=1e-9, abs=1e-12)
    floor = max(trace_lower_bound(A), hadamard_lower_bound(A))
    assert rep.kappa >= floor - 1e-9 * max(1.0, floor)
    return rep


def test_zero_certificate_for_small_matrix_refused():
    # B = 0 is no image of diag(1e-10, 2e-10): its residual, 2e-10, is the
    # whole size of A
    from apportion import ApportionCertificate, ConstructionError

    cert = ApportionCertificate(np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                                np.zeros((2, 2), dtype=complex), 0.0, CertTag.NILPOTENT)
    with pytest.raises(ConstructionError):
        verify_certificate(cert, np.diag([1e-10, 2e-10]))


class TestPadByZero:
    def test_single_entry(self):
        from apportion import ApportionCertificate

        lam = 2.0 - 1.0j
        base = ApportionCertificate(np.eye(1, dtype=complex), np.eye(1, dtype=complex),
                                    np.array([[lam]]), abs(lam), CertTag.RANK_ONE)
        cert = pad_by_zero(base, A=np.array([[lam]]))
        A2 = np.diag([lam, 0.0])
        check_cert(cert, A2, abs(lam))

    def test_golden_then_pad(self):
        cert = apportion_nilpotent(JordanSpec(((0j, 3), (0j, 2))), KAPPA_13)
        A5 = build_jordan(JordanSpec(((0j, 3), (0j, 2))))
        padded = pad_by_zero(cert, A=A5)
        A6 = np.zeros((6, 6), dtype=complex)
        A6[:5, :5] = A5
        check_cert(padded, A6, KAPPA_13)

    def test_double_pad_preserves_kappa(self):
        cert = apportion_rank_one(1.0, 2, 0.5)
        A = np.diag([1.0, 0.0]).astype(complex)
        for _ in range(2):
            cert = pad_by_zero(cert, A=A)
            grown = np.zeros((A.shape[0] + 1, A.shape[0] + 1), dtype=complex)
            grown[: A.shape[0], : A.shape[0]] = A
            A = grown
        check_cert(cert, A, 0.5)


class TestNilpotent:
    def test_golden_5x5_entrywise(self):
        cert = apportion_nilpotent(JordanSpec(((0j, 3), (0j, 2))), KAPPA_13)
        assert np.abs(cert.B - GOLDEN_5X5_IMAGE).max() < 1e-12
        rep = check_cert(cert, build_jordan(JordanSpec(((0j, 3), (0j, 2)))), KAPPA_13)
        assert abs(rep.kappa - KAPPA_13) < 1e-12

    def test_single_block_transform(self):
        # the un-rescaled construction: phase-ladder M with base modulus 1/sqrt(3)
        cert = apportion_nilpotent(JordanSpec(((0j, 2),)), KAPPA_13)
        expected_M = np.array([[1.0, W3], [1.0, 1.0]])
        assert np.abs(cert.M - expected_M).max() < 1e-12
        check_cert(cert, np.array([[0, 1], [0, 0]], dtype=complex), KAPPA_13)
        # requesting modulus 1 composes a diagonal rescale into M
        cert = apportion_nilpotent(JordanSpec(((0j, 2),)), 1.0)
        check_cert(cert, np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_strip_and_pad_path(self):
        spec = JordanSpec(((0j, 2), (0j, 1)))
        cert = apportion_nilpotent(spec, 7.0)
        check_cert(cert, build_jordan(spec), 7.0)

    def test_leading_one_block(self):
        spec = JordanSpec(((0j, 1), (0j, 3)))
        cert = apportion_nilpotent(spec, 2.5)
        check_cert(cert, build_jordan(spec), 2.5)

    @pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3])
    def test_any_positive_constant(self, kappa):
        spec = JordanSpec(((0j, 2),))
        cert = apportion_nilpotent(spec, kappa)
        rep = is_uniform(cert.B)
        assert rep.is_uniform
        assert rep.kappa == pytest.approx(kappa, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConstantNotAchievableError):
            apportion_nilpotent(JordanSpec(((0j, 1), (0j, 1))), 1.0)

    def test_nonzero_eigenvalue_rejected(self):
        with pytest.raises(InvalidInputError):
            apportion_nilpotent(JordanSpec(((1 + 0j, 2),)), 1.0)

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(InvalidInputError):
            apportion_nilpotent(JordanSpec(((0j, 2),)), 0.0)


class TestIOplusO:
    def test_minimum_constant_2x2(self):
        cert = apportion_I_oplus_O(1, 0.5)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert np.abs(cert.B - expected).max() < 1e-14
        A = np.diag([1.0, 0.0]).astype(complex)
        check_cert(cert, A, 0.5)

    def test_order_six(self):
        cert = apportion_I_oplus_O(3, 2.0)
        A = np.zeros((6, 6), dtype=complex)
        A[:3, :3] = np.eye(3)
        check_cert(cert, A, 2.0)
        assert trace_lower_bound(A) == pytest.approx(0.5)

    def test_below_minimum_rejected(self):
        with pytest.raises(ConstantNotAchievableError) as err:
            apportion_I_oplus_O(2, 0.4)
        assert err.value.constants.lo == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boundary_exact(self, n):
        cert = apportion_I_oplus_O(n, 0.5)
        assert is_uniform(cert.B).kappa == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ConstantNotAchievableError):
            apportion_I_oplus_O(n, 0.5 - 1e-9)


class TestHalfRank:
    def test_diag_two_zero(self):
        spec = JordanSpec(((2 + 0j, 1), (0j, 1)))
        cert = apportion_half_rank(spec, 1.5)
        check_cert(cert, build_jordan(spec), 1.5)

    def test_size2_nonzero_block(self):
        # exercises the in-block superdiagonal branch with a nonzero eigenvalue
        spec = JordanSpec(((1 + 0j, 2), (0j, 1), (0j, 1)))
        cert = apportion_half_rank(spec, 1.0)
        check_cert(cert, build_jordan(spec), 1.0)

    def test_nilpotent_dispatch(self):
        spec = JordanSpec(((0j, 2),))
        cert = apportion_half_rank(spec, 3.0)
        assert cert.theorem_tag is CertTag.NILPOTENT
        check_cert(cert, build_jordan(spec), 3.0)

    def test_threshold_open(self):
        spec = JordanSpec(((2 + 0j, 1), (0j, 1)))
        with pytest.raises(ConstantNotAchievableError):
            apportion_half_rank(spec, 1.0)       # rho/2 exactly
        cert = apportion_half_rank(spec, 1.0 + 1e-6)
        check_cert(cert, build_jordan(spec), 1.0 + 1e-6)

    def test_rank_above_half_rejected(self):
        with pytest.raises(InvalidInputError):
            apportion_half_rank(JordanSpec(((1 + 0j, 1), (2 + 0j, 1))), 5.0)

    def test_raw_matrix_input(self):
        A = np.diag([2.0, 0.0]).astype(complex)
        cert = apportion_half_rank(A, 1.25)
        check_cert(cert, A, 1.25)

    def test_plan_invariants(self):
        spec = JordanSpec(((1.5 + 0.5j, 2), (0j, 2), (0j, 1), (0j, 1)))
        assert 2 * spec.rank == spec.order
        kappa = spec.spectral_radius / 2 + 0.8
        plan = half_rank_plan(spec, kappa)
        canon = spec.canonical()
        mu = canon.diagonal / kappa
        r = spec.rank
        for k, zeta in plan.zetas.items():
            assert abs(abs(zeta) - 1.0) < 1e-12
            assert zeta.real == pytest.approx(abs(mu[k - 1]) / 2, rel=1e-12)
            assert abs(plan.gammas[k]) > 0
        # biorthogonality of the first r columns/rows
        prod = plan.vs @ plan.us[:, :r]
        assert np.abs(prod - np.eye(r)).max() < 1e-10
        # hatted columns annihilated by every v row
        assert np.abs(plan.vs @ plan.us[:, r:]).max() < 1e-12
        # phi enumerates the nonzero-column set order-preservingly onto 1..r
        images = [plan.phi[k - 1] for k in plan.omega_set]
        assert images == sorted(images) and set(images) == set(range(1, r + 1))
        for k in range(1, r + 1):
            if mu[k - 1] != 0:
                assert plan.phi[k - 1] == k

    def test_random_specs(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            spec = random_half_rank_spec(rng, max_order=8)
            kappa = spec.spectral_radius / 2 + rng.uniform(0.05, 2.0)
            cert = apportion_half_rank(spec, kappa)
            check_cert(cert, build_jordan(spec), kappa)


class TestAOplusZeros:
    def test_identity_two(self):
        cert, m = apportion_A_oplus_zeros(JordanSpec(((1 + 0j, 1), (1 + 0j, 1))), 1.0)
        assert m == 2 and cert.order == 4
        A = np.zeros((4, 4), dtype=complex)
        A[:2, :2] = np.eye(2)
        check_cert(cert, A, 1.0)

    def test_full_block(self):
        cert, m = apportion_A_oplus_zeros(JordanSpec(((1 + 0j, 3),)), 2.0)
        assert m == 3 and cert.order == 6
        A = np.zeros((6, 6), dtype=complex)
        A[:3, :3] = build_jordan(JordanSpec(((1 + 0j, 3),)))
        check_cert(cert, A, 2.0)

    def test_no_padding_needed(self):
        cert, m = apportion_A_oplus_zeros(JordanSpec(((1 + 0j, 1), (0j, 1))), 2.0)
        assert m == 0 and cert.order == 2

    def test_low_rank_rejected(self):
        with pytest.raises(InvalidInputError):
            apportion_A_oplus_zeros(JordanSpec(((1 + 0j, 1), (0j, 1), (0j, 1))), 2.0)


class TestSpiralSum:
    def test_full_sum(self):
        sol = spiral_sum(2, 0.5)
        assert sol.rho == 0.0 and sol.thetas == (0.0, 0.0)

    def test_full_sum_three(self):
        sol = spiral_sum(3, 1 / 3)
        assert sol.rho == 0.0

    def test_unit_r(self):
        sol = spiral_sum(2, 1.0)
        assert sol.rho == pytest.approx(2 * math.pi / 3, rel=1e-12)
        assert 2 * abs(math.cos(sol.rho / 2)) == pytest.approx(1.0, abs=1e-12)
        total = sum(cmath.exp(1j * t) for t in sol.thetas)
        assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("n,r", [(2, 0.7), (3, 2.5), (5, 0.31), (8, 10.0)])
    def test_identity_holds(self, n, r):
        sol = spiral_sum(n, r)
        assert 0.0 <= sol.rho <= 2 * math.pi / n
        total = r * sum(cmath.exp(1j * t) for t in sol.thetas)
        assert abs(total - 1.0) < 1e-10

    def test_infeasible(self):
        with pytest.raises(InvalidInputError):
            spiral_sum(4, 0.2)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    def test_matches_direct_sum_bisection(self, n):
        # reference: bisection on the modulus of the summed phasors themselves
        def modulus(theta):
            return abs(sum(cmath.exp(1j * j * theta) for j in range(1, n + 1)))

        for r in np.linspace(1.0 / n + 1e-3, 3.0, 12):
            lo, hi = 0.0, 2 * math.pi / n
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if modulus(mid) <= 1.0 / r else (mid, hi)
            assert spiral_sum(n, r).rho == pytest.approx(hi, abs=1e-12)


class TestRankOne:
    def test_boundary_two(self):
        cert = apportion_rank_one(2.0, 2, 1.0)
        A = np.diag([2.0, 0.0]).astype(complex)
        rep = check_cert(cert, A, 1.0)
        assert rep.kappa == pytest.approx(trace_lower_bound(A), rel=1e-12)

    def test_boundary_three(self):
        cert = apportion_rank_one(1.0, 3, 1 / 3)
        check_cert(cert, np.diag([1.0, 0, 0]).astype(complex), 1 / 3)

    def test_large_constant(self):
        cert = apportion_rank_one(1j, 2, 5.0)
        check_cert(cert, np.diag([1j, 0]).astype(complex), 5.0)

    def test_below_minimum(self):
        with pytest.raises(ConstantNotAchievableError):
            apportion_rank_one(2.0, 2, 0.9)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            apportion_rank_one(0.0, 2, 1.0)

    def test_order_one(self):
        cert = apportion_rank_one(3 + 4j, 1, 5.0)
        assert cert.kappa == pytest.approx(5.0)
        with pytest.raises(ConstantNotAchievableError):
            apportion_rank_one(3 + 4j, 1, 2.0)

    def test_order_one_matched_relatively(self):
        with pytest.raises(ConstantNotAchievableError):
            apportion_rank_one(1e-14, 1, 2e-14)


class TestPerturbIdentity:
    def test_even_real_closed_half_line(self):
        cert = apportion_perturb_identity(4, -1.0, target=0.5)
        A = np.diag([1, 1, 1, -1]).astype(complex)
        check_cert(cert, A, 0.5)

    def test_finite_set_both_values(self):
        lam = -0.5 + 1j
        constants = perturb_identity_constants(3, lam)
        expected = sorted([math.sqrt(1 / 9 + 0.25), math.sqrt(1 + 0.25)])
        assert list(constants.values) == pytest.approx(expected, rel=1e-12)
        A = np.diag([1, 1, lam]).astype(complex)
        for value in constants.values:
            cert = apportion_perturb_identity(3, lam, target=value)
            check_cert(cert, A, value)

    def test_negative_imaginary_part(self):
        lam = -0.5 - 2.0j
        constants = perturb_identity_constants(3, lam)
        for value in constants.values:
            cert = apportion_perturb_identity(3, lam, target=value)
            check_cert(cert, np.diag([1, 1, lam]).astype(complex), value)

    def test_dft_route_unitary(self):
        lam = -1.5 + 0.7j
        cert = apportion_perturb_identity(5, lam)
        assert np.abs(cert.M @ cert.M.conj().T - np.eye(5)).max() < 1e-12
        A = np.diag([1, 1, 1, 1, lam]).astype(complex)
        check_cert(cert, A, math.hypot(0.5, lam.imag / 5))

    def test_refusal_is_report_not_error(self):
        result = apportion_perturb_identity(3, 0.0)
        assert result.verdict is Verdict.NOT_APPORTIONABLE
        assert result.constants.kind == "Empty"

    def test_target_outside_set(self):
        with pytest.raises(ConstantNotAchievableError):
            apportion_perturb_identity(3, -0.5 + 1j, target=0.7)


class TestTwoByTwo:
    def test_opposite_pair_half_line(self):
        rep = apportion_2x2(1.0, -1.0)
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "ClosedHalfLine"
        assert rep.constants.lo == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        check_cert(rep.certificate, np.diag([1.0, -1.0]).astype(complex),
                   1 / math.sqrt(2))

    def test_unit_gamma_singleton(self):
        rep = apportion_2x2(1.0, 1j)
        assert rep.constants.kind == "FiniteSet"
        assert rep.constants.values[0] == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
        check_cert(rep.certificate, np.diag([1.0, 1j]), math.sqrt(2) / 2)

    def test_near_equal_not_apportionable(self):
        rep = apportion_2x2(1.0, 1.1)
        assert rep.verdict is Verdict.NOT_APPORTIONABLE
        assert rep.certificate is None

    def test_plan_identities(self):
        rng = np.random.default_rng(9)
        seen = 0
        while seen < 50:
            l1 = complex(rng.standard_normal(), rng.standard_normal())
            l2 = complex(rng.standard_normal(), rng.standard_normal())
            if min(abs(l1), abs(l2)) < 0.05 or abs(l1 - l2) < 1e-6:
                continue
            if two_by_two_constants(l1, l2) is None:
                continue
            plan = two_by_two_plan(l1, l2)
            assert plan.a * plan.d - plan.b * plan.c == pytest.approx(1.0, abs=1e-10)
            assert 2 * plan.b * plan.c + 1 == pytest.approx(plan.omega, abs=1e-10)
            if plan.gamma != 0:
                assert abs(plan.gamma - plan.omega) == pytest.approx(
                    abs(plan.gamma + plan.omega), rel=1e-9)
            assert abs(plan.b) > 1e-12
            seen += 1

    def test_target_outside_singleton(self):
        with pytest.raises(ConstantNotAchievableError):
            apportion_2x2(1.0, 1j, target=1.0)

    def test_gamma_zero_below_minimum(self):
        with pytest.raises(ConstantNotAchievableError):
            apportion_2x2(1.0, -1.0, target=0.5)

    @pytest.mark.parametrize("scale", [1e155, 1e175, 1e300])
    def test_bound_near_float_range(self, scale):
        # |l1 l2| overflows from about 1.3e154: the bound keeps its value
        unit = two_by_two_constants(1.0, -1.0)
        constants = two_by_two_constants(scale, -scale)
        assert constants.lower_bound == pytest.approx(unit.lower_bound * scale, rel=1e-12)
        assert constants.lo == pytest.approx(unit.lo * scale, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160])
    def test_bound_far_below_unit_scale(self, scale):
        # |l1 l2| underflows from about 1e-154: the bound keeps its value
        unit = two_by_two_constants(1.0, -1.0)
        constants = two_by_two_constants(scale, -scale)
        assert constants.lower_bound == pytest.approx(unit.lower_bound * scale, rel=1e-12, abs=0)
        assert constants.lo == pytest.approx(unit.lo * scale, rel=1e-12, abs=0)

    def test_small_singleton_matched_relatively(self):
        # kappa = 3 v is not the set's one member v, however small v is
        value = two_by_two_constants(1e-10, 1e-10j).values[0]
        assert value == pytest.approx(math.sqrt(2) / 2 * 1e-10, rel=1e-12, abs=0)
        with pytest.raises(ConstantNotAchievableError):
            two_by_two_plan(1e-10, 1e-10j, 3 * value)


class TestPolarCondition:
    def test_opposite(self):
        assert polar_condition_2x2(3.0, -3.0)

    def test_imaginary_multiple(self):
        assert polar_condition_2x2(3j, 1.0)

    def test_strip_case(self):
        theta = 2 * math.pi / 3
        l2 = cmath.exp(1j * theta)
        assert abs(1 * math.cos(theta) + 1) < abs(math.sin(theta))
        assert polar_condition_2x2(1.0, l2)

    def test_positive_ray_excluded(self):
        assert not polar_condition_2x2(1.0, 2.0)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            polar_condition_2x2(0.0, 1.0)

    def test_agrees_with_two_by_two(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            l1 = complex(rng.standard_normal(), rng.standard_normal())
            l2 = complex(rng.standard_normal(), rng.standard_normal())
            if min(abs(l1), abs(l2)) < 0.05 or abs(l1 - l2) < 1e-9:
                continue
            assert polar_condition_2x2(l1, l2) == (two_by_two_constants(l1, l2) is not None)


class TestTemplates:
    def test_first_family_golden(self):
        cert = apportion_3x3_template(TemplateKind.LAMBDA_J2_PLUS_ZERO, 1.0)
        assert np.abs(cert.B - GOLDEN_3X3_J2_IMAGE).max() < 1e-13
        A = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=complex)
        check_cert(cert, A, 1.0)

    def test_second_family_modulus(self):
        cert = apportion_3x3_template(TemplateKind.LAMBDA_PLUS_N2, 1.0)
        A = np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        check_cert(cert, A, KAPPA_13)

    def test_first_family_complex(self):
        lam = 2.0 - 1.0j
        cert = apportion_3x3_template(TemplateKind.LAMBDA_J2_PLUS_ZERO, lam)
        A = np.array([[lam, 1, 0], [0, lam, 0], [0, 0, 0]], dtype=complex)
        check_cert(cert, A, abs(lam))

    def test_zero_dispatches_to_nilpotent(self):
        cert = apportion_3x3_template(TemplateKind.LAMBDA_J2_PLUS_ZERO, 0.0)
        assert cert.theorem_tag is CertTag.NILPOTENT
        check_cert(cert, build_jordan(JordanSpec(((0j, 2), (0j, 1)))))



@pytest.mark.parametrize("call", [
    lambda: apportion_nilpotent(JordanSpec(((0j, 6),)), 1e-300),
    lambda: apportion_nilpotent(JordanSpec(((0j, 6),)), 1e300),
    lambda: apportion_half_rank(JordanSpec(((1 + 0j, 2), (0j, 1), (0j, 1))), 1e300),
    lambda: apportion_2x2(1, -1, 1e300),
    lambda: apportion_perturb_identity(4, -1, 1e300),
    lambda: two_by_two_plan(1, -1, 1e300),
    lambda: half_rank_plan(JordanSpec(((1, 2), (0, 1), (0, 1))), 1e300),
], ids=["nilpotent-tiny", "nilpotent-huge", "half-rank", "2x2", "perturb-identity",
        "two-by-two-plan", "half-rank-plan"])
def test_overflowing_construction_refused_quietly(call):
    # at an extreme kappa every public constructor and plan fails as a construction,
    # never with a warning, a bare OverflowError or a ValueError
    import warnings

    from apportion import ConstructionError

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ConstructionError, ConstantNotAchievableError)):
            call()


class TestOneCheckPerCertificate:
    """Each returned certificate is checked once, against the caller's matrix; the
    paddings and permutations that build it check nothing."""

    @pytest.fixture
    def residual_checks(self, monkeypatch):
        import apportion.constructors as constructors

        calls = []
        check = constructors.check_residual

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(constructors, "check_residual", counted)
        return calls

    def test_constructions(self, residual_checks):
        from apportion import reorder_certificate
        from apportion.jordan import block_permutation

        nilpotent = JordanSpec(((0j, 3), (0j, 1), (0j, 2), (0j, 1)))
        peeled = JordanSpec(((0j, 1), (1 + 0j, 1), (0j, 2), (2j, 1), (0j, 1), (0j, 1),
                             (0j, 1)))
        exact = JordanSpec(((1 + 0j, 2), (0j, 1), (0j, 1)))
        swapped, Q = block_permutation(exact, [1, 0, 2])
        rank_one = apportion_rank_one(1.0, 2, 0.5)
        half_rank = apportion_half_rank(swapped, 1.3)
        builds = [
            (lambda: apportion_nilpotent(nilpotent, 0.7), build_jordan(nilpotent)),
            (lambda: apportion_half_rank(peeled, 1.3), build_jordan(peeled)),
            (lambda: apportion_half_rank(exact, 1.3), build_jordan(exact)),
            (lambda: pad_by_zero(rank_one, A=np.diag([1.0, 0.0])), np.diag([1.0, 0.0, 0.0])),
            (lambda: reorder_certificate(half_rank, Q, A=build_jordan(exact)),
             build_jordan(exact)),
        ]
        counts = []
        for build, A in builds:
            residual_checks.clear()
            cert = build()
            counts.append(len(residual_checks))
            # the one check ran against the matrix the certificate is for
            assert np.array_equal(residual_checks[0][2], A)
            check_cert(cert, A)
        assert counts == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("spec", [
        JordanSpec(((0j, 3), (0j, 1), (0j, 2), (0j, 1))),
        JordanSpec(((0j, 1), (1 + 0j, 1), (0j, 2), (2j, 1), (0j, 1), (0j, 1), (0j, 1))),
        # built in another block order, then permuted
        JordanSpec(((0j, 1), (2 + 0j, 1), (0j, 1))),
        JordanSpec(((0j, 1), (1 + 0j, 2))),
        # padded, then permuted
        JordanSpec(((0j, 1), (1 + 0j, 1), (-1 + 0j, 1))),
        # built for mu = 1, then scaled
        JordanSpec(((2 + 0j, 1),) * 3 + ((-2 + 0j, 1),)),
    ])
    def test_request_certificate(self, residual_checks, spec):
        from apportion import classify, request_certificate

        constants = classify(spec).constants
        # a 3x3 template has one constant, |lam| = 1 here
        kappa = 1.3 if constants.contains(1.3) else constants.smallest_member()
        residual_checks.clear()
        cert = request_certificate(spec, kappa=kappa)
        assert len(residual_checks) == 1
        # the one check ran against the matrix the certificate is for
        assert np.array_equal(residual_checks[0][2], build_jordan(spec))
        check_cert(cert, build_jordan(spec), kappa)

    @pytest.mark.parametrize("doc, A", [
        ({"jordan": {"blocks": [{"re": 0, "im": 0, "size": 3},
                                {"re": 0, "im": 0, "size": 2}]}},
         build_jordan(JordanSpec(((0j, 3), (0j, 2))))),
        # raw entries are checked against themselves, not the spec read from them
        ({"entries": [[[0, 0], [1 + 2 ** -50, 0]], [[0, 0], [0, 0]]]},
         np.array([[0, 1 + 2 ** -50], [0, 0]], dtype=complex)),
    ], ids=["jordan", "raw"])
    def test_cli_apportion(self, residual_checks, tmp_path, capsys, doc, A):
        import json

        from apportion import cli

        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        residual_checks.clear()
        assert cli.main(["apportion", str(path)]) == 0
        assert len(residual_checks) == 1
        assert np.array_equal(residual_checks[0][2], A)
        cert = json.loads(capsys.readouterr().out)
        assert cert["theorem_tag"] == "Nilpotent"

    def test_verify_runs_uniformity_once(self, monkeypatch):
        import apportion.constructors as constructors

        cert = apportion_nilpotent(JordanSpec(((0j, 3), (0j, 2))), KAPPA_13)
        reports = []
        uniform = constructors.is_uniform

        def counted(*args):
            reports.append(uniform(*args))
            return reports[-1]

        monkeypatch.setattr(constructors, "is_uniform", counted)
        rep = verify_certificate(cert, build_jordan(JordanSpec(((0j, 3), (0j, 2)))))
        assert reports == [rep] and rep.is_uniform

    @pytest.mark.parametrize("call", [
        lambda cert: verify_certificate(cert, np.eye(3)),
        lambda cert: pad_by_zero(cert, A=np.eye(4)),
        lambda cert: reorder_certificate(cert, np.eye(2), A=np.eye(3)),
    ])
    def test_order_mismatch_is_invalid_input(self, residual_checks, call):
        # a certificate of order 2 against A of another order is refused
        # before any check runs
        cert = apportion_rank_one(1.0, 2, 0.5)
        residual_checks.clear()
        with pytest.raises(InvalidInputError, match="order mismatch"):
            call(cert)
        assert residual_checks == []
