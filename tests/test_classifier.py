import math
import re

import numpy as np
import pytest

from apportion import (
    ApportionError,
    CertTag,
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
    apportion_A_oplus_zeros,
    apportion_half_rank,
    apportion_nilpotent,
    build_jordan,
    classify,
    constant_set,
    is_uniform,
    polar_condition_2x2,
    region_to_csv,
    region_to_svg,
    request_certificate,
    sigma_estimate,
    two_by_two_constants,
    verify_certificate,
)
from apportion import classifier

LAMBDAS = [1.0 + 0j, -2.0 + 0j, 1.0 + 1.0j]
#: an eigenvalue whose modulus, 2.4e308, is past the float range, and the largest float
HUGE = 1.7e308 + 1.7e308j
LARGEST = 1.7976931348623157e308


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

    def test_order_one_floor(self):
        # K = {|lam|}: the floor is |lam| too, as for every other exact set
        for lam, want in ((3 + 4j, 5.0), (5e-324, 5e-324), (-1e300, 1e300)):
            constants = classify(JordanSpec(((lam, 1),))).constants
            assert constants.lower_bound == constants.values[0] == want

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

    @pytest.mark.parametrize("lam", [1, -2j, 1e-200, -3e200])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_identity_plus_zero_exact_set(self, n, lam):
        # K(lam I_n + O_n) is exactly [|lam|/2, inf): its trace bound is reached
        lams = [lam] * n + [0] * n
        np.random.default_rng(n).shuffle(lams)
        spec = diag_spec(*lams)
        rep = classify(spec)
        lo = abs(lam) / 2
        assert rep.theorem_tag == "identity-plus-zero" and rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants == ConstantSet.closed_half_line(lo)
        assert rep.constants.exact and rep.constants.lower_bound == lo
        cert = request_certificate(spec, kappa=lo, report=rep)
        assert cert.kappa == lo
        assert verify_certificate(cert, build_jordan(spec)).is_uniform

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

    def test_block_matching_and_reorder_match_the_scan_and_product(self):
        # the one-pass matching against the first-unused scan, and the index move
        # against the product with the permutation matrix: equal to the bit
        from apportion.constructors import CertTag, _certificate, _placed
        from apportion.jordan import block_permutation

        rng = np.random.default_rng(17)
        pool = [(0j, 1), (0j, 2), (1 + 0j, 1), (-2j, 1), (1 + 0j, 2)]
        for _ in range(50):
            target = JordanSpec(tuple(pool[i] for i in rng.integers(0, len(pool), 6)))
            built = tuple(target.blocks[i] for i in rng.permutation(6))
            used, order = [False] * 6, []
            for blk in built:
                idx = next(i for i, b in enumerate(target.blocks) if not used[i] and b == blk)
                used[idx] = True
                order.append(idx)
            _, Q = block_permutation(target, order)
            n = target.order
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            cert = _certificate(M, np.linalg.inv(M), np.eye(n), 1.0, CertTag.SEARCH)
            moved = _placed(cert, built, target)
            assert np.array_equal(moved.M, cert.M @ Q)
            assert np.array_equal(moved.Minv, Q.T @ cert.Minv)
            assert moved.B is cert.B

    def test_one_move_per_certificate(self, monkeypatch):
        # the half-rank certificate is built for the sorted kept blocks, padded for the
        # peeled zero 1-blocks and moved to the input's block order once
        from apportion import constructors

        moves = []
        block_rows = constructors._block_rows
        monkeypatch.setattr(constructors, "_block_rows",
                            lambda *args: moves.append(args) or block_rows(*args))
        spec = diag_spec(0, 1, 0, -2j, 0, 0)
        for build in (apportion_half_rank, request_certificate):
            moves.clear()
            cert = build(spec, 1.5)
            verify_certificate(cert, build_jordan(spec))
            assert len(moves) == 1

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
        # the second box's corners include two points on the boundary of the
        # region, -1.8 + 2.4i (on criterion 7's grid) and -0.72 + 0.21i
        samples = (admissible_region(1.0, ((-3, 3), (-3, 3)), 11)
                   + admissible_region(1.0, ((-1.8, -0.72), (0.21, 2.4)), 2))
        assert {complex(s.re, s.im) for s in samples} >= {-1.8 + 2.4j, -0.72 + 0.21j}
        for s in samples:
            if s.admissible is None:
                continue
            l2 = complex(s.re, s.im)
            rep = apportion_2x2(1.0, l2)
            assert s.admissible == (rep.verdict is Verdict.APPORTIONABLE)
            assert s.admissible == polar_condition_2x2(1.0, l2)
            if s.admissible:
                assert is_uniform(rep.certificate.B).is_uniform

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            admissible_region(0.0, ((-1, 1), (-1, 1)), 5)
        with pytest.raises(InvalidInputError):
            admissible_region(1.0, ((-1, 1), (-1, 1)), 1)
        # a non-finite lambda1, box or extent (linspace would overflow) is refused
        for lambda1, box in ((math.nan, ((-1, 1), (-1, 1))), (1.0, ((-1, math.inf), (-1, 1))),
                             (1.0, ((-1e308, 1e308), (-1, 1)))):
            with pytest.raises(InvalidInputError):
                admissible_region(lambda1, box, 3)

    def test_csv_format(self):
        samples = admissible_region(1.0, ((-1, 1), (-1, 1)), 3)
        text = region_to_csv(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "re,im,admissible"
        assert len(lines) == 10
        assert any(line.endswith(",skip") for line in lines[1:])
        assert text == region_to_csv(samples)      # deterministic

    @pytest.mark.parametrize("lambda1, box, resolution", [
        (0.7 + 0.3j, ((-3, 3), (-3, 3)), 201),
        # -0.0 corners and exponent-form coordinates
        (1.0, ((-0.0, 1e-300), (-1e300, 1e300)), 7),
        (1j, ((-1e-5, 1e-5), (-2e-20, -0.0)), 5),
        (-2.5e-7, ((-1e22, 3e22), (-0.0, 0.0 + 1e-17)), 4),
    ])
    def test_csv_matches_per_sample_formatting(self, lambda1, box, resolution):
        from apportion import RegionSample

        def per_sample(samples):
            lines = ["re,im,admissible"]
            for s in samples:
                flag = "skip" if s.admissible is None else str(int(s.admissible))
                lines.append(f"{s.re:.17g},{s.im:.17g},{flag}")
            return "\n".join(lines) + "\n"

        # 0.0 and -0.0 are one dict key but print differently
        zeros = [RegionSample(re, im, flag) for re in (0.0, -0.0, 1e-300)
                 for im in (-0.0, 0.0) for flag in (True, False, None)]
        samples = admissible_region(lambda1, box, resolution) + zeros
        assert region_to_csv(samples) == per_sample(samples)
        assert "\n-0,0,1\n" in region_to_csv(zeros)

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

    @pytest.mark.parametrize("lam", [1, 2j, 0.5, 1e3])
    @pytest.mark.parametrize("conjugate", [False, True], ids=["jordan", "conjugated"])
    def test_triple_eigenvalue_in_two_blocks_or_one(self, lam, conjugate):
        # raw J2(lam) + [lam] and J3(lam), as laid out or conjugated by an integer
        # unimodular Q: the eigenvalue's geometric multiplicity is 2 and 1
        Q = np.array([[2, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=complex)
        Qinv = np.array([[1, -1, 0], [-1, 2, 0], [1, -2, 1]], dtype=complex)
        for blocks, verdict, tag in (
                (((lam, 2), (lam, 1)), Verdict.NOT_APPORTIONABLE, "perturb-identity"),
                (((lam, 3),), Verdict.UNKNOWN, "open-3x3")):
            A = build_jordan(JordanSpec(tuple((complex(l), s) for l, s in blocks)))
            rep = classify(Q @ A @ Qinv if conjugate else A)
            assert (rep.verdict, rep.theorem_tag, rep.approximate_eigen) == (verdict, tag, False)

    def test_conjugated_input(self):
        rng = np.random.default_rng(8)
        spec = diag_spec(2, 0)
        P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = P @ build_jordan(spec) @ np.linalg.inv(P)
        rep = classify(A)
        assert rep.verdict is Verdict.APPORTIONABLE
        assert rep.constants.kind == "ClosedHalfLine"
        assert rep.constants.lo == pytest.approx(1.0, rel=1e-7)


#: one spec per rule of the case analysis, keyed by the rule's tag
SPEC_PER_RULE = {
    "zero-matrix": diag_spec(0, 0),
    "order-one": JordanSpec(((3 + 4j, 1),)),
    "scalar-matrix": diag_spec(2, 2),
    "nilpotent": JordanSpec(((0j, 2),)),
    "rank-one": diag_spec(3, 0, 0),
    "identity-plus-zero": diag_spec(0, 2j, 0, 2j),
    "half-rank": diag_spec(1, 2, 0, 0),
    "perturb-identity": JordanSpec(((1 + 0j, 1),) * 4 + ((-1.5 + 0.9j, 1),)),
    "repeated-eigenvalue": JordanSpec(((2 + 0j, 2),)),
    "two-by-two": diag_spec(1, -1),
    "3x3-template-j2-plus-zero": JordanSpec(((2 + 0j, 2), (0j, 1))),
    "3x3-template-plus-nilpotent": JordanSpec(((2 + 0j, 1), (0j, 2))),
    "two-by-two-pad-zero": diag_spec(1, -1, 0),
    "two-by-two-pad-zero-inconclusive": diag_spec(1, 1.1, 0),
    "open-3x3": diag_spec(1, 2, 3),
    "order-not-covered": diag_spec(1, 2, 3, 4),
}

#: Q diag(1, -1) Q^-1 for the integer unimodular Q = [[2, 1], [1, 1]], exact in floats
CONJUGATED_2X2 = np.array([[3.0, -4.0], [2.0, -3.0]])


class TestClassifyBuildsNothing:
    def test_no_rule_certifies_while_classifying(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify built a certificate")

        monkeypatch.setattr(classifier, "_certified", refuse)
        assert set(SPEC_PER_RULE) == {rule.tag for rule in classifier.RULES}
        for tag, spec in SPEC_PER_RULE.items():
            rep = classify(spec)
            assert rep.theorem_tag == tag and rep.certificate is None
        rep = classify(CONJUGATED_2X2)
        assert rep.theorem_tag == "two-by-two" and rep.verdict is Verdict.APPORTIONABLE
        assert rep.certificate is None
        # its entries are not in Jordan-block arrangement, so no certificate fits them
        with pytest.raises(InvalidInputError, match="Jordan-block arrangement"):
            request_certificate(CONJUGATED_2X2)

    def test_sigma_estimate_certifies_once(self, monkeypatch):
        calls = []
        certified = classifier._certified

        def counted(*args, **kwargs):
            calls.append(args)
            return certified(*args, **kwargs)

        monkeypatch.setattr(classifier, "_certified", counted)
        report = sigma_estimate(diag_spec(1, -1), 0)
        assert report.outcomes[0].found and len(calls) == 1


class TestForeignReports:
    """``request_certificate`` builds with the report's rule, matched against the input."""

    @pytest.mark.parametrize("spec, other", [
        (JordanSpec(((0j, 2),)), diag_spec(1, -1)),
        (diag_spec(1, -1), JordanSpec(((0j, 2),))),
    ], ids=["j2-with-pair-report", "pair-with-j2-report"])
    def test_report_of_another_class_refused(self, spec, other):
        with pytest.raises(InvalidInputError, match="no constructive path"):
            request_certificate(spec, report=classify(other))

    @pytest.mark.parametrize("A, kappa, other, described", [
        (np.diag([3.0, 0.0, 0.0]), 0.5, np.diag([1.0, 0.0, 0.0]), "[1, inf)"),
        (np.diag([4.0, -4.0]), 1.0, np.diag([1.0, -1.0]), "[2.82842712475, inf)"),
    ], ids=["rank-one", "two-by-two"])
    def test_kappa_read_against_the_matrix_built(self, A, kappa, other, described):
        # a report of another matrix under the same rule admits kappa, the input's set
        # does not: the certificate is never moved to another kappa
        report = classify(other)
        assert report.theorem_tag == classify(A).theorem_tag
        assert report.constants.contains(kappa) is True
        with pytest.raises(ConstantNotAchievableError, match=re.escape(described)):
            request_certificate(A, kappa=kappa, report=report)

    def test_any_report_gives_a_valid_certificate_or_a_refusal(self):
        for spec in SPEC_PER_RULE.values():
            for other in SPEC_PER_RULE.values():
                try:
                    cert = request_certificate(spec, report=classify(other))
                except ApportionError:
                    continue
                verify_certificate(cert, build_jordan(spec))


@pytest.mark.parametrize("tag", [tag for tag, spec in SPEC_PER_RULE.items()
                                 if classify(spec).verdict is Verdict.APPORTIONABLE])
@pytest.mark.parametrize("kappa", [1e6, 1e300])
def test_request_at_large_kappa_certifies_or_fails_as_construction(tag, kappa):
    # never SingularMatrixError: a kappa outside the set is refused, and a member the
    # floats cannot carry fails the certificate's one check
    spec = SPEC_PER_RULE[tag]
    member = classify(spec).constants.contains(kappa)
    try:
        verify_certificate(request_certificate(spec, kappa=kappa), build_jordan(spec))
    except ApportionError as exc:
        assert type(exc) is (ConstructionError if member else ConstantNotAchievableError), exc


class TestRawEntriesReadOnce:
    """A raw-entry certificate is built for the blocks the entries hold, as they hold
    them, with no eigenvalue recomputed and snapped onto them."""

    #: [1e-10] + J2(0) in Jordan arrangement: classify groups 1e-10 with the zeros
    A = np.array([[1e-10, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)

    def test_tiny_eigenvalue_is_not_snapped_to_zero(self):
        cert = request_certificate(self.A)
        assert cert.theorem_tag is CertTag.THREE_BY_THREE_TEMPLATE
        assert cert.kappa == pytest.approx(1e-10 / math.sqrt(3), rel=1e-12)
        image = cert.M @ self.A @ np.linalg.inv(cert.M)
        assert np.abs(np.abs(image) - cert.kappa).max() <= 1e-9 * cert.kappa

    def test_report_of_the_snapped_blocks_refused(self):
        report = classify(self.A)
        assert (report.theorem_tag, report.approximate_eigen) == ("nilpotent", True)
        with pytest.raises(InvalidInputError, match="no constructive path"):
            request_certificate(self.A, report=report)


@pytest.mark.parametrize("call", [
    request_certificate,
    lambda A: apportion_nilpotent(A, 1.0),
    lambda A: apportion_half_rank(A, 1.0),
    lambda A: apportion_A_oplus_zeros(A, 1.0),
], ids=["request_certificate", "apportion_nilpotent", "apportion_half_rank",
        "apportion_A_oplus_zeros"])
def test_raw_order_four_unsupported(call):
    with pytest.raises(UnsupportedOrderError, match="limited to order 3"):
        call(np.zeros((4, 4)))


class TestExtremeInputs:
    def test_many_distinct_blocks_classify_in_linear_time(self):
        import time

        spec = JordanSpec(tuple((complex(k + 1), 1) for k in range(30_000)))
        start = time.perf_counter()
        report = classify(spec)
        assert time.perf_counter() - start < 3.0
        assert report.verdict is Verdict.UNKNOWN

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

    def test_lower_bound_near_float_range(self):
        # tr = 2e308 overflows: lam I_2 + O_2's closed set still starts at 5e307, its own
        # default member, which is accepted and built
        import warnings

        spec = diag_spec(1e308, 1e308, 0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(spec)
            assert report.constants.lower_bound == report.constants.lo == 5e307
            cert = request_certificate(spec, report=report)
            verify_certificate(cert, build_jordan(spec))
        assert cert.kappa == 5e307

    def test_rank_one_subnormal_eigenvalue(self):
        # |lam|/2 underflows to 0, but the set's end is positive: it is rounded up to the
        # least positive float, and a request builds a certificate that verifies or
        # refuses with ConstructionError
        spec = diag_spec(5e-324, 0)
        report = classify(spec)
        assert report.theorem_tag == "rank-one"
        assert report.constants.lo == report.constants.lower_bound == math.ulp(0.0)
        assert report.constants.contains(0.0) is False
        try:
            cert = request_certificate(spec, report=report)
        except ConstructionError:
            return
        verify_certificate(cert, build_jordan(spec))

    def test_rank_one_eigenvalue_modulus_overflows(self):
        # |lam| = 2.4e308 leaves the float range and |lam|/3 = 8.01e307 does not: the set
        # and the build's r = kappa/|lam| read |lam| at unit scale
        import warnings

        lam = 1.7e308 + 1.7e308j
        spec = diag_spec(lam, 0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(spec)
            assert report.theorem_tag == "rank-one"
            assert report.constants.lo == pytest.approx(abs(lam / 4) / 3 * 4, rel=1e-15)
            try:
                cert = request_certificate(spec, report=report)
            except ConstructionError:
                return
        verify_certificate(cert, build_jordan(spec))

    @pytest.mark.parametrize("lam, match", [(5e-324, "image is not uniform"),
                                            (2.5e-323, "floating point")])
    def test_identity_plus_zero_subnormal(self, lam, match):
        # |lam|/2 rounds below the true end of the set (to 0 at 5e-324, so the end is the
        # least positive float), and the build is a ConstructionError, not a math domain
        # error: its image is not uniform, or it leaves the float range
        spec = diag_spec(lam, 0, lam, 0)
        assert classify(spec).theorem_tag == "identity-plus-zero"
        with pytest.raises(ConstructionError, match=match):
            request_certificate(spec)

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

    def test_default_kappa_follows_scale(self):
        # the default member of the open half-line (rho/2, inf) is 1.5 lo = 0.75 rho at
        # any scale, not an absolute floor that a tiny matrix cannot reach
        import warnings

        for k in (0, -40, -300, -900, 40, 300):
            s = math.ldexp(1.0, k)
            spec = diag_spec(s, s * 1j, 0, 0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cert = request_certificate(spec)
                rep = verify_certificate(cert, build_jordan(spec))
            assert rep.kappa == pytest.approx(0.75 * s, rel=1e-9), k

    # H = 1.7e308 (1 + i): |H| = 2.4e308 is past the float range, and |H|/2, |H|/sqrt(2)
    # are not; no rule, bound or build may read |H| with an OverflowError

    def test_order_one_modulus_past_range_refused(self):
        # K = {|H|} has no float member: the set is refused, as invalid input
        for target in (JordanSpec(((HUGE, 1),)), np.array([[HUGE]])):
            with pytest.raises(InvalidInputError, match="float range"):
                classify(target)
            with pytest.raises(InvalidInputError, match="float range"):
                request_certificate(target)

    def test_bounds_past_range_are_the_largest_float(self):
        from apportion.constructors import spec_bounds
        from apportion.core import hadamard_lower_bound, trace_lower_bound

        assert spec_bounds(((HUGE, 1),)) == (LARGEST, LARGEST)
        assert trace_lower_bound([[HUGE]]) == hadamard_lower_bound([[HUGE]]) == LARGEST

    def test_template_value_past_range_refused(self):
        with pytest.raises(InvalidInputError, match="float range"):
            classify(JordanSpec(((HUGE, 2), (0j, 1))))

    @pytest.mark.parametrize("lams, tag, lo", [
        ((HUGE, HUGE, 0, 0), "identity-plus-zero", 1.2020815280171307e308),
        ((HUGE, 1, 0, 0), "half-rank", 1.2020815280171307e308),
    ])
    def test_half_modulus_in_range(self, lams, tag, lo):
        import warnings

        spec = diag_spec(*lams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(spec)
            assert report.theorem_tag == tag and report.constants.lo == lo
            try:
                cert = request_certificate(spec, report=report)
            except ConstructionError:
                return
        verify_certificate(cert, build_jordan(spec))

    @pytest.mark.parametrize("target", [diag_spec(HUGE, -HUGE),
                                        np.diag([HUGE, -HUGE])])
    def test_opposite_pair_past_range(self, target):
        # gamma = 0: K = [rho/sqrt(2), inf) = [1.7e308, inf), and rho = |H| is past the range
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(target)
            assert report.theorem_tag == "two-by-two"
            assert report.constants.lo == pytest.approx(1.7e308, rel=1e-15)
            try:
                cert = request_certificate(target, report=report)
            except ConstructionError:
                return
        verify_certificate(cert, build_jordan(diag_spec(HUGE, -HUGE)))

    def test_determinant_bound_past_range_not_rounded_up(self):
        # |det|^(1/2) / sqrt(2) = |H| / sqrt(2) = 1.7e308 is in range: not the largest float
        from apportion.constructors import spec_bounds

        trace, det = spec_bounds(((HUGE, 1), (-HUGE, 1)))
        assert trace == 0.0
        assert det == pytest.approx(1.7e308, rel=1e-13) and det <= 1.7e308

    @pytest.mark.parametrize("lams, tag", [
        ((HUGE, HUGE), "scalar-matrix"),
        ((HUGE, HUGE, HUGE, -1.7e308 + 1.7e308j), "perturb-identity"),
    ])
    def test_refuted_past_range(self, lams, tag):
        from apportion.constructors import spec_bounds

        report = classify(diag_spec(*lams))
        assert (report.verdict, report.theorem_tag) == (Verdict.NOT_APPORTIONABLE, tag)
        trace, det = spec_bounds(diag_spec(*lams).blocks)
        assert trace == LARGEST and 1e308 < det < LARGEST

    def test_region_past_range(self):
        # |lambda2 - H| is past the float range at every point; only lambda2 = 0 is skipped
        samples = admissible_region(HUGE, ((-3.0, 3.0), (-3.0, 3.0)), 5)
        assert len(samples) == 25
        assert [(s.re, s.im) for s in samples if s.admissible is None] == [(0.0, 0.0)]

    @pytest.mark.parametrize("lams", [(-1e300 - 1e-300j, -1e300 - 5e-324j),
                                      (-1e-300 - 1e300j, 1 - 1e300j, 0)])
    def test_pair_difference_underflows_at_unit_scale(self, lams):
        # l2 - l1 is 0 or subnormal at the pair's unit scale: |gamma| > 2, refuted without
        # dividing by it or raising it to the fourth power
        report = classify(diag_spec(*lams))
        assert report.theorem_tag in ("two-by-two", "two-by-two-pad-zero-inconclusive")
        assert report.verdict is not Verdict.APPORTIONABLE

    def test_half_rank_quotient_underflow_is_a_construction_failure(self):
        # lam / kappa underflows to 0 at every member kappa (all above 5e299)
        spec = diag_spec(5e-324, 1e300, 0, 0)
        assert classify(spec).theorem_tag == "half-rank"
        with pytest.raises(ConstructionError, match="floating point"):
            request_certificate(spec)

    def test_region_resolution_capped(self):
        from apportion.classifier import MAX_REGION_RESOLUTION

        box = ((-1.0, 1.0), (-1.0, 1.0))
        with pytest.raises(InvalidInputError):
            admissible_region(1.0, box, MAX_REGION_RESOLUTION + 1)
        with pytest.raises(InvalidInputError):
            admissible_region(1.0, box, 10**9)
