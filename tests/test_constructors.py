import cmath
import math

import numpy as np
import pytest

from apportion import (
    ApportionError,
    CertTag,
    ConstantNotAchievableError,
    InvalidInputError,
    JordanSpec,
    TemplateKind,
    Verdict,
    admissible_region,
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
    request_certificate,
    scale_certificate,
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


# [1e-10] + J2(0) in Jordan arrangement, and the [0] + J2(0) it is mistaken for
TINY_BESIDE_J2 = np.array([[1e-10, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
ZERO_BESIDE_J2 = JordanSpec(((0j, 1), (0j, 2)))
FALSE_CERT_KAPPAS = [1e-12, 1e-9, 1e-6, 1e-3]


@pytest.mark.parametrize("kappa", FALSE_CERT_KAPPAS)
def test_false_certificate_refused(kappa):
    # the [0] + J2(0) certificate is not one for [1e-10] + J2(0): its true image is off B
    # by 1e-10, which is 100 kappa at 1e-12 and 1e-7 kappa at 1e-3; the check compares
    # the image with kappa, however large M is (5.8e11 at kappa 1e-12)
    from apportion import ConstructionError

    cert = apportion_nilpotent(ZERO_BESIDE_J2, kappa)
    with pytest.raises(ConstructionError, match="image"):
        verify_certificate(cert, TINY_BESIDE_J2)


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("kappa", FALSE_CERT_KAPPAS)
def test_image_check_is_scale_free(kappa, k):
    # 2^k times the false pair is refused and 2^k times the true pair certifies, far
    # outside unit scale either way
    from apportion import ConstructionError

    cert = apportion_nilpotent(ZERO_BESIDE_J2, kappa)
    mu = 2.0 ** k
    with pytest.raises(ConstructionError, match="image"):
        scale_certificate(cert, mu, A=mu * TINY_BESIDE_J2)
    A = mu * build_jordan(ZERO_BESIDE_J2)
    check_cert(scale_certificate(cert, mu, A=A), A, mu * kappa)


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


class TestScaleCertificate:
    def test_scaled_nilpotent(self):
        # the same M apportions mu A, at |mu| times the modulus
        mu = 2 + 1j
        A = build_jordan(JordanSpec(((0j, 2),)))
        cert = scale_certificate(apportion_nilpotent(JordanSpec(((0j, 2),)), 1.0), mu, mu * A)
        check_cert(cert, mu * A, math.sqrt(5.0))

    def test_zero_factor_refused(self):
        cert = apportion_nilpotent(JordanSpec(((0j, 2),)), 1.0)
        with pytest.raises(InvalidInputError):
            scale_certificate(cert, 0)


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

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_inverse_matches_the_dense_series(self, n):
        # at the base modulus M = I + P D; its inverse, built by index, is the
        # alternating series of dense powers of P D over det M = 1 - e^(2 pi i/3);
        # every entry is a product of at most n - 1 unit-modulus phases, so the
        # two forms round apart by a few eps per factor
        cert = apportion_nilpotent(JordanSpec(((0j, n),)), KAPPA_13)
        PD = cert.M - np.eye(n)
        adj = power = np.eye(n, dtype=complex)
        for _ in range(n - 1):
            power = power @ (-PD)
            adj = adj + power
        want = adj / (1.0 - cmath.exp(2j * math.pi / 3))
        assert np.abs(cert.Minv - want).max() <= 8 * n * np.finfo(float).eps

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
        with pytest.raises(ConstantNotAchievableError):
            apportion_nilpotent(JordanSpec(((0j, 2),)), 0.0)

    @pytest.mark.parametrize("spec", [JordanSpec(((0j, 1),)), JordanSpec(((0j, 1), (0j, 1)))])
    def test_zero_matrix_at_zero(self, spec):
        # K(O) = {0}: M = I and B = O, as request_certificate builds it
        cert = apportion_nilpotent(spec, 0.0)
        n = spec.order
        assert cert.kappa == 0.0 and cert.theorem_tag is CertTag.NILPOTENT
        assert np.array_equal(cert.M, np.eye(n)) and np.array_equal(cert.B, np.zeros((n, n)))
        check_cert(cert, build_jordan(spec), 0.0)

    @pytest.mark.parametrize("kappa", [np.int64(1), np.float32(0.5), np.int32(3)])
    def test_numpy_real_kappa_accepted(self, kappa):
        # as apportion_rank_one, apportion_half_rank and request_certificate accept it
        spec = JordanSpec(((0j, 2), (0j, 1)))
        cert = apportion_nilpotent(spec, kappa)
        assert cert.kappa == float(kappa)
        check_cert(cert, build_jordan(spec), float(kappa))

    @pytest.mark.parametrize("kappa, error", [
        (np.int64(0), ConstantNotAchievableError), (np.float32(-0.5), ConstantNotAchievableError),
        (np.float32("nan"), ConstantNotAchievableError), (1j, InvalidInputError)])
    def test_non_positive_or_non_real_kappa_rejected(self, kappa, error):
        # a real kappa outside (0, inf) is no member, as at every other entry point
        with pytest.raises(ApportionError) as info:
            apportion_nilpotent(JordanSpec(((0j, 2),)), kappa)
        assert type(info.value) is error


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

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_split_column_completion_at_large_constant(self, n):
        # M is completed by the columns that jump at even positions, and only the rows
        # below V are solved for
        A = np.diag([1.0] * n + [0.0] * n).astype(complex)
        check_cert(apportion_I_oplus_O(n, 1e3), A, 1e3)

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

    def test_image_is_the_sum_of_outer_products(self):
        # the image, one product kappa (P T) Q, against the construction's sum over the
        # blocks: mu_k u_phi(k) v_phi(k)^T on the diagonal, u_phi(k-1) v_phi(k)^T inside a block
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            spec = random_half_rank_spec(rng, max_order=10).canonical()
            if 2 * spec.rank != spec.order or spec.is_nilpotent():
                continue
            kappa = spec.spectral_radius / 2 + rng.uniform(0.05, 2.0)
            plan = half_rank_plan(spec, kappa)
            phi = plan.phi
            mu, alphas = spec.diagonal / kappa, spec.alphas
            C = np.zeros((spec.order, spec.order), dtype=complex)
            for k in plan.omega_set:
                C += mu[k - 1] * np.outer(plan.us[:, phi[k - 1] - 1], plan.vs[phi[k - 1] - 1])
            for k in range(2, spec.order + 1):
                if alphas[k - 2] == 1:
                    C += np.outer(plan.us[:, phi[k - 2] - 1], plan.vs[phi[k - 1] - 1])
            B = apportion_half_rank(spec, kappa).B
            assert np.abs(B - kappa * C).max() <= 1e-14 * kappa
            checked += 1

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

    def test_nan_r_infeasible(self):
        with pytest.raises(InvalidInputError, match="infeasible"):
            spiral_sum(3, float("nan"))

    @pytest.mark.parametrize("r", [1e300, math.inf])
    def test_huge_r_fails_as_construction(self, r):
        from apportion import ConstructionError

        with pytest.raises(ConstructionError):
            spiral_sum(3, r)

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

    @pytest.mark.parametrize("n", [3, 4, 16])
    @pytest.mark.parametrize("ratio", [1e3, 1e4])
    def test_closed_form_inverse_at_large_constant(self, n, ratio):
        # M = [1 | e_j - (v_j/v_0) e_0] is inverted in closed form, so these members of
        # the set certify; a generic completion's inverse check refused most of them
        lam = 0.7 - 0.3j
        kappa = ratio * abs(lam)
        check_cert(apportion_rank_one(lam, n, kappa), np.diag([lam] + [0j] * (n - 1)), kappa)

    @pytest.mark.parametrize("n", [3, 4, 16])
    def test_past_the_phase_sum_check(self, n):
        # the angles are checked by the certificate's one check, not by spiral_sum's
        # 1e-10 phase-sum identity, which refused these members.  At 1e7 the build is
        # past its numerical limit (max|M Minv - I| is about 7 n 1e-10 there), so it
        # either certifies or raises ConstructionError, never another error
        from apportion import ConstructionError

        A = np.diag([1.0] + [0.0] * (n - 1))
        for kappa in (1e5, 1e6):
            check_cert(apportion_rank_one(1, n, kappa), A, kappa)
        try:
            cert = apportion_rank_one(1, n, 1e7)
        except ConstructionError:
            return
        check_cert(cert, A, 1e7)


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

    @pytest.mark.parametrize("n", [0, 1, 2, True, 4.0])
    def test_constants_need_an_integer_order_of_three(self, n):
        with pytest.raises(InvalidInputError, match="n >= 3"):
            perturb_identity_constants(n, 1 - n / 2)


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


@pytest.mark.parametrize("call", [two_by_two_constants, polar_condition_2x2, two_by_two_plan,
                                  apportion_2x2])
@pytest.mark.parametrize("l1, l2", [
    (math.nan, 1), (1, math.inf), (math.inf, math.inf), (complex(1, math.nan), -1),
    (-math.inf, 1j),
])
def test_non_finite_eigenvalues_refused(call, l1, l2):
    # as a JordanSpec refuses them: no verdict, plan or report for a non-finite pair
    with pytest.raises(InvalidInputError, match="finite"):
        call(l1, l2)


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



#: order 4, rank 2: the half-rank construction applies exactly
HALF_RANK_SPEC = JordanSpec(((1 + 0j, 2), (0j, 1), (0j, 1)))

#: every public entry point that takes a caller's kappa, at an input whose set has members
KAPPA_ENTRY_POINTS = {
    "apportion_nilpotent": lambda k: apportion_nilpotent(JordanSpec(((0j, 2),)), k),
    "apportion_I_oplus_O": lambda k: apportion_I_oplus_O(2, k),
    "apportion_half_rank": lambda k: apportion_half_rank(HALF_RANK_SPEC, k),
    "apportion_A_oplus_zeros": lambda k: apportion_A_oplus_zeros(
        JordanSpec(((1 + 0j, 1), (2 + 0j, 1))), k),
    "apportion_rank_one": lambda k: apportion_rank_one(1, 3, k),
    "apportion_perturb_identity": lambda k: apportion_perturb_identity(4, -1, k),
    "apportion_2x2": lambda k: apportion_2x2(1, -1, k),
    "two_by_two_plan": lambda k: two_by_two_plan(1, -1, k),
    "half_rank_plan": lambda k: half_rank_plan(HALF_RANK_SPEC, k),
    "request_certificate": lambda k: request_certificate(JordanSpec(((1 + 0j, 1), (-1 + 0j, 1))),
                                                         kappa=k),
}


class TestKappaReader:
    """Every requested kappa is read by one rule: only a real number is taken, and only
    a member of the set of the matrix being built."""

    @pytest.mark.parametrize("name", list(KAPPA_ENTRY_POINTS))
    @pytest.mark.parametrize("kappa", [1j, "2"], ids=["complex", "string"])
    def test_non_real_kappa_is_invalid_input(self, name, kappa):
        with pytest.raises(InvalidInputError, match="real"):
            KAPPA_ENTRY_POINTS[name](kappa)

    @pytest.mark.parametrize("name", list(KAPPA_ENTRY_POINTS))
    def test_nan_kappa_is_no_member(self, name):
        with pytest.raises(ApportionError) as info:
            KAPPA_ENTRY_POINTS[name](float("nan"))
        assert type(info.value) is ConstantNotAchievableError

    @pytest.mark.parametrize("name", list(KAPPA_ENTRY_POINTS))
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_int_beyond_float_range_is_no_member(self, name, sign):
        # a real number, though float() of it overflows: no set holds it
        with pytest.raises(ApportionError) as info:
            KAPPA_ENTRY_POINTS[name](sign * 10 ** 400)
        assert type(info.value) is ConstantNotAchievableError

    @pytest.mark.parametrize("name", list(KAPPA_ENTRY_POINTS))
    @pytest.mark.parametrize("kappa", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_kappa_is_invalid_input(self, name, kappa):
        # True is not kappa = 1.0, as the document readers refuse a boolean
        with pytest.raises(InvalidInputError, match="real"):
            KAPPA_ENTRY_POINTS[name](kappa)

    def test_bool_kappa_refused_where_one_is_a_member(self):
        spec = JordanSpec(((0j, 2), (0j, 1)))
        for call in (lambda: request_certificate(spec, kappa=True),
                     lambda: apportion_nilpotent(spec, True)):
            with pytest.raises(InvalidInputError):
                call()

    def test_closed_half_line_raises_kappa_to_its_end(self):
        cert = apportion_I_oplus_O(1, 0.5 * (1 - 1e-10))
        assert cert.kappa == 0.5

    def test_finite_set_moves_kappa_to_its_value(self):
        value = perturb_identity_constants(3, -0.5 + 1j).values[1]
        cert = apportion_perturb_identity(3, -0.5 + 1j, target=value * (1 + 1e-10))
        assert cert.kappa == value


INTEGER_ENTRY_POINTS = {
    "apportion_I_oplus_O": lambda n: apportion_I_oplus_O(n, 1.0),
    "apportion_rank_one": lambda n: apportion_rank_one(1, n, 1.0),
    "spiral_sum": lambda n: spiral_sum(n, 1.0),
    "perturb_identity_constants": lambda n: perturb_identity_constants(n, -1.0),
    "admissible_region": lambda n: admissible_region(1.0, ((-1.0, 1.0), (-1.0, 1.0)), n),
}


class TestIntegerReader:
    """Every integer argument is read by one rule: an int or a numpy integer is taken, and a
    bool or any other number is invalid input, never a bare TypeError."""

    @pytest.mark.parametrize("name", list(INTEGER_ENTRY_POINTS))
    @pytest.mark.parametrize("n", [True, 3.0, 2.5, "3", None],
                             ids=["bool", "integral-float", "float", "string", "none"])
    def test_non_integer_is_invalid_input(self, name, n):
        with pytest.raises(InvalidInputError):
            INTEGER_ENTRY_POINTS[name](n)

    @pytest.mark.parametrize("name", list(INTEGER_ENTRY_POINTS))
    def test_numpy_integer_is_read_as_int(self, name):
        assert repr(INTEGER_ENTRY_POINTS[name](np.int64(4))) == repr(
            INTEGER_ENTRY_POINTS[name](4))


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


@pytest.mark.parametrize("name", list(KAPPA_ENTRY_POINTS))
@pytest.mark.parametrize("kappa", [1e6, 1e300])
def test_large_member_kappa_certifies_or_fails_as_construction(name, kappa):
    # a member the floats cannot carry fails the certificate's one check (exit 3 on the
    # command line), never an inverse check of its own with SingularMatrixError
    from apportion import ConstructionError

    try:
        KAPPA_ENTRY_POINTS[name](kappa)
    except ApportionError as exc:
        assert type(exc) is ConstructionError, exc


class TestCertificateJson:
    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_left_as_found(self, collecting):
        # to_json pauses the cyclic collector and restores its state, even on error
        import dataclasses
        import gc

        cert = apportion_rank_one(1.0, 3, 1.0)
        broken = dataclasses.replace(cert, B="not a matrix")
        was = gc.isenabled()
        try:
            gc.enable() if collecting else gc.disable()
            doc = cert.to_json()
            assert gc.isenabled() is collecting
            with pytest.raises(ValueError):
                broken.to_json()
            assert gc.isenabled() is collecting
        finally:
            gc.enable() if was else gc.disable()
        assert doc["M"] == [[[z.real, z.imag] for z in row] for row in cert.M.tolist()]

    def test_no_collection_during_the_conversions(self):
        # J_64's three matrices become 12,288 small lists, which ran the collector
        import gc

        cert = request_certificate(JordanSpec(((0j, 64),)))
        runs = []

        def record(phase, info):
            runs.append(phase)

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            cert.to_json()
        finally:
            gc.callbacks.remove(record)
            gc.enable() if was else gc.disable()
        assert runs == []


class TestOneCheckPerCertificate:
    """Each returned certificate is checked once, against the caller's matrix; the
    paddings and permutations that build it check nothing."""

    @pytest.fixture
    def residual_checks(self, monkeypatch):
        # the certificate check tests the image M A Minv against B; its arguments
        # start (B, M, A)
        import apportion.constructors as constructors

        calls = []
        check = constructors._check_image

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(constructors, "_check_image", counted)
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

    @pytest.mark.parametrize("doc, A, tag", [
        ({"jordan": {"blocks": [{"re": 0, "im": 0, "size": 3},
                                {"re": 0, "im": 0, "size": 2}]}},
         build_jordan(JordanSpec(((0j, 3), (0j, 2)))), "Nilpotent"),
        # raw entries are checked against themselves, not the spec read from them
        ({"entries": [[[0, 0], [1 + 2 ** -50, 0]], [[0, 0], [0, 0]]]},
         np.array([[0, 1 + 2 ** -50], [0, 0]], dtype=complex), "Nilpotent"),
        # an order-2 class that classify certifies: no certificate at classification
        ({"entries": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
         np.diag([1.0, -1.0]).astype(complex), "TwoByTwo"),
    ], ids=["jordan", "raw", "raw-two-by-two"])
    def test_cli_apportion(self, residual_checks, tmp_path, capsys, doc, A, tag):
        import json

        from apportion import cli

        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        residual_checks.clear()
        assert cli.main(["apportion", str(path)]) == 0
        assert len(residual_checks) == 1
        assert np.array_equal(residual_checks[0][2], A)
        cert = json.loads(capsys.readouterr().out)
        assert cert["theorem_tag"] == tag

    def test_verify_runs_uniformity_once(self, monkeypatch):
        import apportion.constructors as constructors

        cert = apportion_nilpotent(JordanSpec(((0j, 3), (0j, 2))), KAPPA_13)
        reports = []
        # the uniformity check, which the certificate check runs once on B
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

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_fails_the_check(self, kappa):
        # B scaled by 1e6 with kappa inf would pass a kappa test relative to kappa and an
        # image tolerance of rel * kappa = inf: kappa is compared with B's measured modulus
        import dataclasses

        from apportion import ConstructionError

        cert = apportion_2x2(1, -1).certificate
        forged = dataclasses.replace(cert, B=1e6 * cert.B, kappa=kappa)
        with pytest.raises(ConstructionError, match="does not match"):
            verify_certificate(forged, np.diag([1.0, -1.0]))


#: I_256 + [lam] with Re(lam) = 1 - 257/2: its set is finite, and its order one past the cap
PERTURB_257 = complex(1 - 257 / 2, 0.3)


class TestOrderBudget:
    """Every public constructor builds the matrix it checks by ``build_jordan``, so each
    refuses an order past ``jordan.MAX_DENSE_ORDER`` (256), as request_certificate does."""

    @pytest.mark.parametrize("call", [
        lambda: apportion_rank_one(1.0, 257, 1.0),
        # |lam|/n, the least member of K(diag(lam, 0, ..., 0))
        lambda: apportion_rank_one(1.0, 257, 1 / 257),
        lambda: apportion_perturb_identity(257, PERTURB_257),
        lambda: apportion_perturb_identity(
            257, PERTURB_257, target=perturb_identity_constants(257, PERTURB_257).values[0]),
        lambda: request_certificate(JordanSpec(((1 + 0j, 1),) + ((0j, 1),) * 256), kappa=1.0),
        lambda: request_certificate(JordanSpec(((1 + 0j, 1),) * 256 + ((PERTURB_257, 1),))),
    ], ids=["rank-one", "rank-one-least", "perturb-identity", "perturb-identity-least",
            "request-rank-one", "request-perturb-identity"])
    def test_order_past_the_cap_refused(self, call):
        with pytest.raises(InvalidInputError, match="exceeds 256"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: apportion_rank_one(1.0, 10**6, 1.0),
        lambda: apportion_I_oplus_O(10**6, 1.0),
        lambda: apportion_perturb_identity(10**6, complex(1 - 10**6 / 2, 0.3)),
        # a lam that misses Re(lam) = 1 - n/2 is refused by its order first too
        lambda: apportion_perturb_identity(10**6, 0.0),
    ], ids=["rank-one", "identity-plus-zero", "perturb-identity", "perturb-identity-missed"])
    def test_order_refused_before_it_allocates(self, call):
        # the order is read from the arguments: no JordanSpec or constant set of that
        # order is built first (77-154 MiB each)
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=r"order [12]000000 exceeds 256"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _same_certificate(cert, want):
    assert np.array_equal(cert.M, want.M) and np.array_equal(cert.Minv, want.Minv)
    assert np.array_equal(cert.B, want.B)
    assert (cert.kappa, cert.theorem_tag) == (want.kappa, want.theorem_tag)


def _by_rule(tag, spec, kappa):
    from apportion.constructors import _by_rule

    return _by_rule(tag, spec, build_jordan(spec), kappa)


def _template_spec(kind, lam):
    from apportion.constructors import _template_spec

    return _template_spec(kind, complex(lam))


def _route_cases():
    """(constructor call, the rule route's call on its class's spec), on the inputs of the
    tests above and a seeded sweep of lam, n and kappa."""
    cases = []

    def add(call, route):
        cases.append((call, route))

    for spec, kappa in [(JordanSpec(((0j, 3), (0j, 2))), KAPPA_13), (JordanSpec(((0j, 2),)), 1.0),
                        (JordanSpec(((0j, 2), (0j, 1))), 7.0), (JordanSpec(((0j, 1), (0j, 3))), 2.5),
                        (JordanSpec(((0j, 1), (0j, 1))), 0.0)]:
        add(lambda s=spec, k=kappa: apportion_nilpotent(s, k),
            lambda s=spec, k=kappa: request_certificate(s, k))
    for n, kappa in [(1, 0.5), (3, 2.0), (2, 0.5 * (1 - 1e-10)), (4, 1e3)]:
        spec = JordanSpec(((1 + 0j, 1),) * n + ((0j, 1),) * n)
        add(lambda n=n, k=kappa: apportion_I_oplus_O(n, k),
            lambda s=spec, k=kappa: _by_rule("identity-plus-zero", s, k))
    for spec, kappa in [(JordanSpec(((2 + 0j, 1), (0j, 1))), 1.5),
                        (JordanSpec(((1 + 0j, 2), (0j, 1), (0j, 1))), 1.0),
                        (JordanSpec(((1 + 0j, 1), (1 + 0j, 1), (0j, 1), (0j, 1))), 0.7)]:
        add(lambda s=spec, k=kappa: apportion_half_rank(s, k),
            lambda s=spec, k=kappa: _by_rule("half-rank", s, k))
    for lam, n, kappa in [(2.0, 2, 1.0), (1.0, 3, 1 / 3), (1j, 2, 5.0), (3 + 4j, 1, 5.0),
                          (0.7 - 0.3j, 16, 1e4 * abs(0.7 - 0.3j))]:
        spec = JordanSpec(((complex(lam), 1),) + ((0j, 1),) * (n - 1))
        add(lambda a=(lam, n, kappa): apportion_rank_one(*a),
            lambda s=spec, k=kappa: request_certificate(s, k))
    for n, lam, target in [(4, -1.0, 0.5), (3, -0.5 + 1j, None), (3, -0.5 - 2.0j, None)]:
        spec = JordanSpec(((1 + 0j, 1),) * (n - 1) + ((complex(lam), 1),))
        for t in perturb_identity_constants(n, lam).values or (target,):
            add(lambda a=(n, lam, t): apportion_perturb_identity(*a),
                lambda s=spec, t=t: request_certificate(s, t))
    for l1, l2, target in [(1.0, -1.0, None), (1.0, 1j, None), (1.0, -1.0, 2.0)]:
        spec = JordanSpec(((complex(l1), 1), (complex(l2), 1)))
        add(lambda a=(l1, l2, target): apportion_2x2(*a).certificate,
            lambda s=spec, t=target: request_certificate(s, t))
    for kind in TemplateKind:
        for lam in (1.0, 2.0 - 1.0j, 0.0):
            add(lambda a=(kind, lam): apportion_3x3_template(*a),
                lambda s=_template_spec(kind, lam), lam=lam: request_certificate(
                    s, 1.0 if lam == 0 else None))

    rng = np.random.default_rng(34)
    for _ in range(12):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        n = int(rng.integers(1, 12))
        kappa = abs(lam) / n * rng.uniform(1.0, 20.0)
        spec = JordanSpec(((lam, 1),) + ((0j, 1),) * (n - 1))
        add(lambda a=(lam, n, kappa): apportion_rank_one(*a),
            lambda s=spec, k=kappa: request_certificate(s, k))
        m = int(rng.integers(1, 6))
        kappa = rng.uniform(0.5, 10.0)
        spec = JordanSpec(((1 + 0j, 1),) * m + ((0j, 1),) * m)
        add(lambda a=(m, kappa): apportion_I_oplus_O(*a),
            lambda s=spec, k=kappa: _by_rule("identity-plus-zero", s, k))
        spec = random_half_rank_spec(rng, max_order=8)
        kappa = spec.spectral_radius / 2 + rng.uniform(0.05, 2.0)
        route = ((lambda s=spec, k=kappa: request_certificate(s, k)) if spec.is_nilpotent()
                 else (lambda s=spec, k=kappa: _by_rule("half-rank", s, k)))
        add(lambda s=spec, k=kappa: apportion_half_rank(s, k), route)
        sizes = rng.permutation([int(rng.integers(2, 5))] + list(rng.integers(1, 4, size=2)))
        nilpotent = JordanSpec(tuple((0j, int(size)) for size in sizes))
        kappa = 10.0 ** rng.uniform(-3, 3)
        add(lambda s=nilpotent, k=kappa: apportion_nilpotent(s, k),
            lambda s=nilpotent, k=kappa: request_certificate(s, k))
        p = int(rng.integers(3, 8))
        lam = complex(1 - p / 2, rng.uniform(-2.0, 2.0))
        spec = JordanSpec(((1 + 0j, 1),) * (p - 1) + ((lam, 1),))
        for t in perturb_identity_constants(p, lam).values:
            add(lambda a=(p, lam, t): apportion_perturb_identity(*a),
                lambda s=spec, t=t: request_certificate(s, t))
        l1, l2 = (complex(rng.standard_normal(), rng.standard_normal()) for _ in range(2))
        if two_by_two_constants(l1, l2) is not None:
            spec = JordanSpec(((l1, 1), (l2, 1)))
            add(lambda a=(l1, l2): apportion_2x2(*a).certificate,
                lambda s=spec: request_certificate(s))
        kind = list(TemplateKind)[int(rng.integers(2))]
        add(lambda a=(kind, lam): apportion_3x3_template(*a),
            lambda s=_template_spec(kind, lam): request_certificate(s))
    return cases


def test_each_constructor_builds_by_the_rule_route():
    # request_certificate on the class's spec, or the half-rank and I + O rules themselves,
    # whose inputs can classify under an earlier rule
    cases = _route_cases()
    assert len(cases) > 100
    for call, route in cases:
        _same_certificate(call(), route())
