import math

import numpy as np
import pytest

from apportion import (
    JordanSpec,
    SearchBudgetError,
    SearchConfig,
    build_jordan,
    defect_objective,
    find_apportioning,
    hadamard_lower_bound,
    sigma_estimate,
    trace_lower_bound,
    two_by_two_constants,
    verify_certificate,
)

FAST = SearchConfig(restarts=8, max_iters=600, seed=1, defect_target=1e-6)


class TestFindApportioning:
    def test_nilpotent_found(self):
        from apportion import Tolerance

        A = np.array([[0, 1], [0, 0]], dtype=complex)
        out = find_apportioning(A, FAST)
        assert out.found and out.certificate is not None
        search_tol = Tolerance(rel=FAST.defect_target, abs=FAST.defect_target)
        rep = verify_certificate(out.certificate, A, tol=search_tol)
        assert rep.kappa > 0

    def test_repeated_eigenvalue_not_found(self):
        # no transform exists; a budgeted run records evidence only
        A = np.array([[1, 1], [0, 1]], dtype=complex)
        out = find_apportioning(A, SearchConfig(restarts=8, seed=7, defect_target=1e-8))
        assert not out.found
        assert out.certificate is None
        assert out.best_defect > 1e-8

    def test_opposite_pair_respects_minimum(self):
        A = np.diag([1.0, -1.0]).astype(complex)
        out = find_apportioning(A, FAST)
        assert out.found
        assert out.certificate.kappa >= 1 / math.sqrt(2) - 1e-6
        floor = max(trace_lower_bound(A), hadamard_lower_bound(A))
        assert out.certificate.kappa >= floor - 1e-6

    def test_tiny_not_apportionable_not_found(self):
        # K(cA) = |c| K(A): the acceptance tolerance must scale with A
        out = find_apportioning(np.diag([1e-9, 2e-9]).astype(complex))
        assert not out.found

    def test_tiny_opposite_pair_found(self):
        out = find_apportioning(np.diag([1e-9, -1e-9]).astype(complex))
        assert out.found

    def test_determinism(self):
        A = np.diag([1.0, 2.0]).astype(complex)
        out1 = find_apportioning(A, FAST)
        out2 = find_apportioning(A, FAST)
        assert out1.found == out2.found
        assert out1.best_defect == out2.best_defect
        assert out1.restarts_used == out2.restarts_used
        assert out1.restart_defects == out2.restart_defects

    def test_budget_guard(self):
        with pytest.raises(SearchBudgetError):
            find_apportioning(np.eye(17), FAST)

    def test_transcript_length(self):
        out = find_apportioning(np.diag([1.0, 2.0]).astype(complex), FAST)
        assert len(out.restart_defects) == FAST.restarts

    def test_not_apportionable_sample(self):
        # verdict-negative eigenvalue pairs: a budgeted search never certifies
        # (one-sided evidence only; a miss here would be a soundness bug)
        rng = np.random.default_rng(13)
        cfg = SearchConfig(restarts=6, max_iters=400, seed=3, defect_target=1e-6)
        checked = 0
        while checked < 1000:
            l1 = complex(rng.standard_normal(), rng.standard_normal())
            l2 = complex(rng.standard_normal(), rng.standard_normal())
            if min(abs(l1), abs(l2)) < 0.1 or abs(l1 - l2) < 1e-6:
                continue
            if two_by_two_constants(l1, l2) is not None:
                continue
            out = find_apportioning(np.diag([l1, l2]), cfg)
            assert not out.found, (l1, l2, out.best_defect)
            checked += 1


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        A = np.diag([1.0, 0.3 + 0.7j]).astype(complex)
        h = 1e-6
        for _ in range(20):
            x = rng.standard_normal(8)
            _, g = defect_objective(x, A)
            num = np.empty(8)
            for i in range(8):
                e = np.zeros(8)
                e[i] = h
                fp, _ = defect_objective(x + e, A)
                fm, _ = defect_objective(x - e, A)
                num[i] = (fp - fm) / (2 * h)
            denom = max(np.abs(num).max(), 1e-12)
            assert np.abs(g - num).max() / denom < 1e-4


class TestSigmaEstimate:
    def test_identity_two(self):
        report = sigma_estimate(JordanSpec(((1 + 0j, 1), (1 + 0j, 1))), 2, FAST)
        assert report.sigma_upper_empirical == 2
        assert report.sigma_theory_upper == 2
        assert not report.outcomes[0].found and not report.outcomes[1].found
        # the theory-refuted paddings never consume search restarts
        assert report.outcomes[0].restarts_used == 0
        assert report.outcomes[1].restarts_used == 0

    def test_rank_deficient_needs_none(self):
        report = sigma_estimate(JordanSpec(((1 + 0j, 1), (0j, 1))), 1, FAST)
        assert report.sigma_upper_empirical == 0

    def test_identity_three_unresolved(self):
        cfg = SearchConfig(restarts=4, max_iters=200, seed=1, defect_target=1e-8)
        report = sigma_estimate(JordanSpec(((1 + 0j, 1),) * 3), 3, cfg)
        assert report.sigma_theory_upper == 3
        assert set(report.outcomes) == {0, 1, 2, 3}
        assert report.outcomes[3].found          # theory resolves m = 3
        assert report.sigma_upper_empirical in (2, 3)
        if report.sigma_upper_empirical == 3:
            assert not report.outcomes[2].found  # m = 2 stays open evidence

    def test_matrix_input(self):
        report = sigma_estimate(np.diag([2.0, 0.0]).astype(complex), 1, FAST)
        assert report.sigma_upper_empirical == 0

    def test_budget(self):
        with pytest.raises(SearchBudgetError):
            sigma_estimate(JordanSpec(((1 + 0j, 1),) * 10), 8, FAST)
