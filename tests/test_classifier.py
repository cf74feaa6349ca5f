import math

import numpy as np
import pytest

from apportion import (
    ConstantNotAchievableError,
    ConstantSet,
    ConstructionError,
    InvalidInputError,
    JordanSpec,
    SetShape,
    UnsupportedOrderError,
    Verdict,
    admissible_region,
    apportion_2x2,
    build_jordan,
    classify,
    constant_set,
    is_uniform,
    polar_condition_2x2,
    region_to_csv,
    region_to_svg,
    request_certificate,
    two_by_two_constants,
    verify_certificate,
)

LAMBDAS = [1.0 + 0j, -2.0 + 0j, 1.0 + 1.0j]


def diag_spec(*lams):
    return JordanSpec(tuple((complex(l), 1) for l in lams))


class TestVerdictChain:
    def test_zero_matrix(self):
        rep = classify(diag_spec(0, 0, 0))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "ZeroOnly"

    def test_order_one(self):
        rep = classify(JordanSpec(((3 + 4j, 1),)))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.values == (5.0,)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_scalar_matrix(self, lam):
        rep = classify(diag_spec(lam, lam))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE
        rep = classify(diag_spec(lam, lam, lam))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE

    def test_nilpotent_any_order(self):
        rep = classify(JordanSpec(((0j, 4), (0j, 2), (0j, 1))))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "OpenHalfLine" and rep.constants.lo == 0.0

    def test_rank_one_exact_set(self):
        rep = classify(JordanSpec(((3 + 0j, 1), (0j, 1), (0j, 1), (0j, 1))))
        assert rep.constants.kind == "ClosedHalfLine"
        assert rep.constants.lo == pytest.approx(3 / 4)

    def test_half_rank_superset(self):
        spec = JordanSpec(((2 + 0j, 2), (0j, 2), (0j, 1), (0j, 1)))
        rep = classify(spec)
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "SupersetOfOpenHalfLine"
        assert rep.constants.lo == pytest.approx(1.0)

    def test_repeated_2x2(self):
        rep = classify(JordanSpec(((2 + 0j, 2),)))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE
        assert rep.constants.kind == "Empty"

    def test_perturb_rejections_any_order(self):
        # one size-2 block among equal eigenvalues, order 4
        rep = classify(JordanSpec(((2j, 2), (2j, 1), (2j, 1))))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE
        # identity plus one zero, order 4: trace condition fails
        rep = classify(diag_spec(1, 1, 1, 0))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE

    def test_perturb_accepts_matching_real_part(self):
        lam = complex(1 - 5 / 2, 0.9)
        rep = classify(JordanSpec(((1 + 0j, 1),) * 4 + ((lam, 1),)))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "FiniteSet"
        assert len(rep.constants.values) == 3      # one value per sign count

    def test_order_four_unknown(self):
        rep = classify(diag_spec(1, 2, 3, 4))
        assert rep.verdict is Verdict.UNKNOWN
        assert rep.constants.lower_bound > 0

    def test_raw_entries_above_three_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            classify(np.eye(4))


TABLE_2X2 = "zero, nilpotent, rank-one, scalar, repeated-block, distinct"


class TestTableOrderTwo:
    def test_zero(self):
        rep = classify(diag_spec(0, 0))
        assert (rep.verdict, rep.constants.kind) == (Verdict.APPORTIONABLE, "ZeroOnly")

    def test_nilpotent_block(self):
        rep = classify(JordanSpec(((0j, 2),)))
        assert (rep.verdict, rep.constants.kind) == (Verdict.APPORTIONABLE, "OpenHalfLine")

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_rank_one(self, lam):
        rep = classify(diag_spec(lam, 0))
        assert rep.constants.kind == "ClosedHalfLine"
        assert rep.constants.lo == pytest.approx(abs(lam) / 2)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_repeated_block(self, lam):
        rep = classify(JordanSpec(((lam, 2),)))
        assert (rep.verdict, rep.constants.kind) == (Verdict.NOT_APPORTIONABLE, "Empty")

    @pytest.mark.parametrize("pair", [(1, -2), (1, 1 + 1j), (-2, 1 + 1j)])
    def test_distinct_matches_condition(self, pair):
        l1, l2 = (complex(v) for v in pair)
        rep = classify(diag_spec(l1, l2))
        gamma = (l2 + l1) / (l2 - l1)
        ok = gamma == 0 or (gamma * gamma).real < abs(gamma) ** 4 <= 1.0
        assert (rep.verdict is Verdict.APPORTIONABLE) == ok


class TestTableOrderThree:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_rank_one(self, lam):
        rep = classify(diag_spec(lam, 0, 0))
        assert rep.constants.kind == "ClosedHalfLine"
        assert rep.constants.lo == pytest.approx(abs(lam) / 3)

    def test_nilpotent_rows(self):
        for spec in (JordanSpec(((0j, 2), (0j, 1))), JordanSpec(((0j, 3),))):
            rep = classify(spec)
            assert (rep.verdict, rep.constants.kind) == (
                Verdict.APPORTIONABLE, "OpenHalfLine")

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_j2_with_same_eigenvalue(self, lam):
        rep = classify(JordanSpec(((lam, 2), (lam, 1))))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_two_identical_plus_zero(self, lam):
        rep = classify(diag_spec(lam, lam, 0))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE

    def test_two_identical_plus_matching_third(self):
        # lam2/lam1 = -1/2 + i has the required real part; two constants
        rep = classify(diag_spec(1, 1, complex(-0.5, 1.0)))
        assert rep.verdict is Verdict.APPORTIONABLE
        expected = sorted([math.sqrt(1 / 9 + 0.25), math.sqrt(1 + 0.25)])
        assert list(rep.constants.values) == pytest.approx(expected, rel=1e-12)
        # scaled version scales the set
        rep2 = classify(diag_spec(-2, -2, complex(1.0, -2.0)))
        assert rep2.verdict is Verdict.APPORTIONABLE
        assert list(rep2.constants.values) == pytest.approx(
            [2 * v for v in expected], rel=1e-12)

    def test_two_identical_plus_mismatched_third(self):
        rep = classify(diag_spec(1, 1, complex(0.3, 1.0)))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE

    def test_templates(self):
        rep = classify(JordanSpec(((2 + 0j, 2), (0j, 1))))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "SupersetOfFiniteSet"
        assert rep.constants.values == (2.0,)
        rep = classify(JordanSpec(((0j, 2), (2 + 0j, 1))))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.values[0] == pytest.approx(2 / math.sqrt(3))

    def test_distinct_pair_plus_zero(self):
        rep = classify(diag_spec(1, -1, 0))
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "SupersetOfClosedHalfLine"
        rep = classify(diag_spec(1, -2, 0))   # pair fails the order-2 test
        assert rep.verdict is Verdict.UNKNOWN

    def test_open_families(self):
        for spec in (JordanSpec(((2 + 0j, 3),)),
                     JordanSpec(((2 + 0j, 2), (1 + 0j, 1))),
                     diag_spec(1, 2, 3)):
            rep = classify(spec)
            assert rep.verdict is Verdict.UNKNOWN
            assert rep.constants.shape is SetShape.UNKNOWN
            assert rep.constants.lower_bound > 0


class TestConstantSetBehaviour:
    def test_contains_three_valued(self):
        s = ConstantSet.open_half_line(1.0, exact=False)
        assert s.contains(2.0) is True
        assert s.contains(1.0) is None
        assert s.contains(0.2) is None

    def test_unknown_floor(self):
        s = ConstantSet.unknown(2.0)
        assert s.contains(1.0) is False
        assert s.contains(3.0) is None

    def test_scaled(self):
        s = ConstantSet.finite([1.0, 2.0], lower_bound=1.0).scaled(3.0)
        assert s.values == (3.0, 6.0) and s.lower_bound == 3.0

    def test_constant_set_helper(self):
        spec = diag_spec(3, 0, 0)
        assert constant_set(spec).kind == "ClosedHalfLine"


class TestCertificateConsistency:
    @pytest.mark.parametrize("spec,samples", [
        (JordanSpec(((0j, 3),)), (0.01, 1.0, 50.0)),
        (diag_spec(2, 0), (1.0, 2.0, 11.0)),
        (diag_spec(1, -1), (1 / math.sqrt(2), 1.0, 4.0)),
    ])
    def test_members_constructible(self, spec, samples):
        rep = classify(spec)
        assert rep.verdict is Verdict.APPORTIONABLE
        A = build_jordan(spec)
        for kappa in samples:
            cert = request_certificate(spec, kappa=kappa, report=rep)
            rep_u = verify_certificate(cert, A)
            assert rep_u.kappa == pytest.approx(kappa, rel=1e-9)

    @pytest.mark.parametrize("spec,below", [
        (diag_spec(2, 0), 0.9),
        (diag_spec(1, -1), 0.5),
        (diag_spec(3, 0, 0), 0.99),
    ])
    def test_below_infimum_refused(self, spec, below):
        with pytest.raises(ConstantNotAchievableError):
            request_certificate(spec, kappa=below)

    def test_not_apportionable_refused(self):
        with pytest.raises(InvalidInputError):
            request_certificate(diag_spec(1, 1))

    def test_non_finite_certificate_refused(self):
        # the geometric rescaling underflows: Minv would come out all NaN
        with pytest.raises(ConstructionError):
            request_certificate(JordanSpec(((0j, 3), (0j, 2))), kappa=1e300)

    def test_default_member(self):
        cert = request_certificate(JordanSpec(((0j, 2),)))
        assert is_uniform(cert.B).is_uniform

    def test_scrambled_block_order(self):
        spec = JordanSpec(((0j, 1), (5 + 0j, 1), (0j, 1)))
        cert = request_certificate(spec, kappa=5 / 3)
        rep = verify_certificate(cert, build_jordan(spec))
        assert rep.kappa == pytest.approx(5 / 3, rel=1e-9)

    def test_raw_entries_keep_input_order(self):
        # diagonal order differs from the canonical (descending-modulus) order
        A = np.diag([1.0, 1.0, -0.5 + 1.0j])
        values = classify(A).constants.values
        cert = request_certificate(A, kappa=values[1])
        rep = verify_certificate(cert, A)
        assert rep.kappa == pytest.approx(values[1], rel=1e-9)

    def test_raw_conjugated_certificate_refused(self):
        rng = np.random.default_rng(30)
        P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = P @ np.diag([2.0, 0.0]) @ np.linalg.inv(P)
        assert classify(A).verdict is Verdict.APPORTIONABLE
        with pytest.raises(InvalidInputError):
            request_certificate(A, kappa=1.5)


class TestScalingCovariance:
    @pytest.mark.parametrize("factor", [2.0, 0.5j, -1.5 + 0.5j])
    def test_verdicts_and_sets_scale(self, factor):
        samples = [
            JordanSpec(((0j, 2),)),
            diag_spec(2, 0),
            diag_spec(1, -1),
            diag_spec(1, 1j),
            diag_spec(1, 1),
            diag_spec(1, 1, complex(-0.5, 1.0)),
            JordanSpec(((2 + 0j, 2), (0j, 1))),
        ]
        for spec in samples:
            base = classify(spec)
            scaled = classify(spec.scaled(factor))
            assert base.verdict == scaled.verdict
            if base.verdict is Verdict.APPORTIONABLE:
                expected = base.constants.scaled(abs(factor))
                assert scaled.constants.kind == expected.kind
                assert scaled.constants.lo == pytest.approx(expected.lo, rel=1e-9)
                assert list(scaled.constants.values) == pytest.approx(
                    list(expected.values), rel=1e-9)


class TestRegion:
    def test_known_points(self):
        samples = admissible_region(1.0, ((-2, 2), (-2, 2)), 5)
        lookup = {(s.re, s.im): s.admissible for s in samples}
        assert lookup[(-1.0, 0.0)] is True
        assert lookup[(2.0, 0.0)] is False
        assert lookup[(0.0, 1.0)] is True
        assert lookup[(0.0, 0.0)] is None          # degenerate at the origin
        assert lookup[(1.0, 0.0)] is None          # degenerate at lambda1

    def test_agrees_with_constructor(self):
        samples = admissible_region(1.0, ((-3, 3), (-3, 3)), 11)
        for s in samples:
            if s.admissible is None:
                continue
            l2 = complex(s.re, s.im)
            rep = apportion_2x2(1.0, l2)
            assert s.admissible == (rep.verdict is Verdict.APPORTIONABLE)
            if s.admissible:
                assert is_uniform(rep.certificate.B).is_uniform

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            admissible_region(0.0, ((-1, 1), (-1, 1)), 5)
        with pytest.raises(InvalidInputError):
            admissible_region(1.0, ((-1, 1), (-1, 1)), 1)

    def test_csv_format(self):
        samples = admissible_region(1.0, ((-1, 1), (-1, 1)), 3)
        text = region_to_csv(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "re,im,admissible"
        assert len(lines) == 10
        assert any(line.endswith(",skip") for line in lines[1:])
        assert text == region_to_csv(samples)      # deterministic

    def test_svg_format(self):
        samples = admissible_region(1.0, ((-1, 1), (-1, 1)), 5)
        svg = region_to_svg(samples)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") > 10
        assert svg == region_to_svg(samples)


class TestRawEntryDispatch:
    def test_raw_2x2(self):
        rep = classify(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert rep.verdict is Verdict.NOT_APPORTIONABLE

    def test_raw_3x3_apportionable(self):
        rep = classify(np.diag([1.0, -1.0, 0.0]))
        assert rep.verdict is Verdict.APPORTIONABLE

    def test_conjugated_input(self):
        rng = np.random.default_rng(8)
        spec = diag_spec(2, 0)
        P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = P @ build_jordan(spec) @ np.linalg.inv(P)
        rep = classify(A)
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "ClosedHalfLine"
        assert rep.constants.lo == pytest.approx(1.0, rel=1e-7)


class TestExtremeInputs:
    @pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
    def test_non_finite_kappa_not_member(self, kappa):
        for s in (ConstantSet.open_half_line(0.0), ConstantSet.closed_half_line(1.0),
                  ConstantSet.unknown(0.5), classify(diag_spec(1, 2, 0, 0)).constants):
            assert s.contains(kappa) is False

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_refused(self, kappa):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstantNotAchievableError):
                request_certificate(JordanSpec(((0j, 3), (0j, 2))), kappa=kappa)

    @pytest.mark.parametrize("spec, kappa", [
        (JordanSpec(((0j, 3), (0j, 2))), 1e300),
        (JordanSpec(((0j, 3), (0j, 2))), 1e-300),
        (diag_spec(1, 2, 0, 0), 1e200),
        (diag_spec(1, -1), 1e200),
        (np.diag([1.0, -1.0]).astype(complex), 1e200),
        (diag_spec(-0.26 - 0.54j, 0.41 + 0.56j, 0.49 + 0.27j, *[0] * 13), 1e20),
    ])
    def test_overflowing_construction_refused_quietly(self, spec, kappa):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError):
                request_certificate(spec, kappa=kappa)

    @pytest.mark.parametrize("scale", [1e175, 1e300])
    @pytest.mark.parametrize("lams", [(1, 1), (1, -1), (1, 2), (1, 1j), (1, -1, 0), (1, 2, 3)])
    def test_raw_entries_near_float_range(self, scale, lams):
        # the characteristic polynomial overflows at this scale; the verdict is
        # that of the unit-scale matrix, with the constants scaled
        import warnings

        unit = classify(np.diag(lams).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = classify(np.diag(lams).astype(complex) * scale)
        assert rep.verdict is unit.verdict
        assert rep.theorem_tag == unit.theorem_tag
        assert rep.constants.lo == pytest.approx(unit.constants.lo * scale, rel=1e-12)

    def test_raw_triangular_keeps_small_eigenvalues(self):
        # huge entries off the diagonal do not swamp exact small eigenvalues
        rep = classify(np.array([[1.0, 1e175], [0.0, 2.0]], dtype=complex))
        assert rep.verdict is classify(np.diag([1.0, 2.0]).astype(complex)).verdict

    @pytest.mark.parametrize("lams, scale", [((1, 2), 1e-10), ((1, 2), 1e-300),
                                             ((1, -1), 1e-10), ((1, 1j), 1e-10),
                                             ((1, -1, 0), 1e-200), ((1, 1), 1e-10)])
    def test_raw_entries_below_unit_scale(self, lams, scale):
        # the structure is read at unit scale: no entry below 1 counts as zero
        unit = classify(np.diag(lams).astype(complex))
        rep = classify(np.diag(lams).astype(complex) * scale)
        assert (rep.verdict, rep.theorem_tag) == (unit.verdict, unit.theorem_tag)
        assert rep.constants.lower_bound == pytest.approx(unit.constants.lower_bound * scale,
                                                          rel=1e-12, abs=1e-12 * scale)

    def test_small_singleton_refuses_other_kappa(self):
        spec = diag_spec(1e-10, 1e-10j)
        value = classify(spec).constants.values[0]
        assert value == pytest.approx(math.sqrt(2) / 2 * 1e-10, rel=1e-12, abs=0)
        assert classify(spec).constants.contains(3 * value) is False
        with pytest.raises(ConstantNotAchievableError):
            request_certificate(spec, kappa=3 * value)

    def test_region_resolution_capped(self):
        from apportion.classifier import MAX_REGION_RESOLUTION

        box = ((-1.0, 1.0), (-1.0, 1.0))
        with pytest.raises(InvalidInputError):
            admissible_region(1.0, box, MAX_REGION_RESOLUTION + 1)
        with pytest.raises(InvalidInputError):
            admissible_region(1.0, box, 10**9)
