import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apportion import (
    InvalidInputError,
    JordanSpec,
    SearchBudgetError,
    SearchConfig,
    build_jordan,
    defect_objective,
    find_apportioning,
    hadamard_lower_bound,
    polar_condition_2x2,
    sigma_estimate,
    trace_lower_bound,
    two_by_two_constants,
    verify_certificate,
)

FAST = SearchConfig(restarts=8, max_iters=600, seed=1, defect_target=1e-6)


def _lm(A, cfg):
    """``_lm_search`` on A at any order, scaled as find_apportioning scales it."""
    from apportion import search
    from apportion.core import times_power_of_two, unit_exponent

    e = unit_exponent(A)
    return search._lm_search(A, times_power_of_two(A, -e), math.ldexp(1.0, e), cfg)


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

    def test_raw_entries_not_in_arrangement_refused(self):
        # Q diag(1, -1) Q^-1 with Q = [[2, 1], [1, 1]]: every padding is Apportionable, and
        # no rule builds for entries that do not hold their Jordan blocks
        with pytest.raises(InvalidInputError, match="Jordan-block arrangement"):
            sigma_estimate(np.array([[3, -4], [2, -3]], dtype=complex), 2, FAST)

    @pytest.mark.parametrize("A, found", [
        (np.diag([1.0, -1.0]), [True, True, True]),
        # Q diag(1, 2) Q^-1: refuted, then Unknown at m = 1, where the search runs on
        # the padded entries themselves
        (np.array([[0.0, 2.0], [-1.0, 3.0]]), [False, True]),
    ], ids=["arranged-pair", "conjugated-pair"])
    def test_raw_certificates_verify_against_the_padded_entries(self, A, found):
        report = sigma_estimate(A, len(found) - 1, FAST)
        assert [report.outcomes[m].found for m in range(len(found))] == found
        for m, out in report.outcomes.items():
            if out.certificate is not None:
                padded = np.pad(A.astype(complex), (0, m))
                assert verify_certificate(out.certificate, padded,
                                          tol=_search_tol(padded, FAST)).is_uniform

    def test_budget(self):
        with pytest.raises(SearchBudgetError):
            sigma_estimate(JordanSpec(((1 + 0j, 1),) * 10), 8, FAST)

    def test_negative_padding_refused(self):
        with pytest.raises(InvalidInputError):
            sigma_estimate(JordanSpec(((1 + 0j, 1), (2 + 0j, 1), (3j, 1))), -1, FAST)

    @pytest.mark.parametrize("m_max", [1.5, True, "1"])
    def test_non_integer_padding_refused(self, m_max):
        with pytest.raises(InvalidInputError):
            sigma_estimate(JordanSpec(((1 + 0j, 1), (-1 + 0j, 1))), m_max, FAST)


class TestSearchConfig:
    @pytest.mark.parametrize("field", ["restarts", "max_iters", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, 2.5, "2"],
                             ids=["bool", "integral-float", "float", "string"])
    def test_non_integer_count_refused(self, field, value):
        # restarts=2.5 raised a bare TypeError at the search, and max_iters=1.5 ran
        # silently at order 2
        with pytest.raises(InvalidInputError):
            SearchConfig(**{field: value})

    def test_numpy_integer_counts_taken(self):
        cfg = SearchConfig(restarts=np.int64(8), max_iters=np.int64(600), seed=np.int64(1),
                           defect_target=1e-6)
        A = np.diag([1.0, -1.0]).astype(complex)
        assert find_apportioning(A, cfg).to_json() == find_apportioning(A, FAST).to_json()


class TestSearchInternals:
    def test_certified_candidate_inverts_once(self, monkeypatch):
        from apportion.search import _certify_search_point

        # diag(1, -1) under the rotation by pi/8 has the uniform image
        # [[1, 1], [1, -1]] / sqrt(2)
        t = math.pi / 8
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        x = np.concatenate([rot.ravel(), np.zeros(4)])
        inversions = []
        inv = np.linalg.inv

        def counted(M):
            inversions.append(M)
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", counted)
        cert = _certify_search_point(x, np.diag([1.0, -1.0]).astype(complex), FAST)
        assert cert is not None and len(inversions) == 1
        assert np.array_equal(cert.Minv, inv(cert.M))

    def test_config_has_four_settings(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(SearchConfig)]
        assert names == ["restarts", "max_iters", "seed", "defect_target"]

    @pytest.mark.parametrize("target", [math.inf, 1e300, math.nan, 1.0, 0.0, -1e-8])
    def test_config_refuses_loose_or_non_finite_target(self, target):
        with pytest.raises(InvalidInputError, match="defect_target"):
            SearchConfig(defect_target=target)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
    def test_config_refuses_negative_or_non_integral_seed(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            SearchConfig(seed=seed)

    def test_config_accepts_integer_seeds(self):
        assert SearchConfig(seed=np.int64(3)).seed == 3
        assert SearchConfig(seed=0, defect_target=0.99).defect_target == 0.99

    def test_scalar_matrix_not_found_at_a_loose_target(self):
        # classify proves 2 I_3 NotApportionable (scalar-matrix rule)
        A = 2 * np.eye(3, dtype=complex)
        out = find_apportioning(A, SearchConfig(restarts=8, defect_target=0.99))
        assert not out.found and out.certificate is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_refine_jacobian_matches_central_differences(self, n):
        from apportion.search import _refine_jacobian, _to_matrix

        rng = np.random.default_rng(40 + n)

        def residual(x):
            M = _to_matrix(x, n)
            B = M @ A @ np.linalg.inv(M)
            v = (B.real ** 2 + B.imag ** 2).ravel()
            return v - v.mean()

        for _ in range(3):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = rng.standard_normal(2 * n * n)
            M = _to_matrix(x, n)
            Minv = np.linalg.inv(M)
            J = _refine_jacobian(M @ A @ Minv, A @ Minv, Minv)
            assert J.shape == (n * n, 2 * n * n)
            h = 1e-6
            num = np.empty_like(J)
            for k in range(2 * n * n):
                e = np.zeros_like(x)
                e[k] = h
                num[:, k] = (residual(x + e) - residual(x - e)) / (2 * h)
            assert np.abs(J - num).max() <= 1e-6 * max(1.0, np.abs(num).max())

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_rows_flagged_once(self, n):
        import warnings

        from apportion.search import _det_inv_batch

        rng = np.random.default_rng(n)
        M = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        M[1] = 0.0
        M[2, 0] = M[2, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det, Minv, bad = _det_inv_batch(M[:3])
        assert bad.tolist() == [False, True, True]
        M[3, 0, 0] = np.inf
        with np.errstate(all="ignore"):
            det, Minv, bad = _det_inv_batch(M)
        assert bad.tolist() == [False, True, True, True]
        assert np.allclose(Minv[0] @ M[0], np.eye(n))
        assert np.allclose(det[0], np.linalg.det(M[0]))
        for r in (1, 2, 3):
            assert det[r] == 1.0
            assert np.array_equal(Minv[r], np.eye(n))

    def test_restart_budget_refused_before_allocation(self, monkeypatch):
        from apportion import search

        def no_start(*_):
            raise AssertionError("starting points drawn for an over-budget search")

        monkeypatch.setattr(search, "_initial_points", no_start)
        n = 16
        restarts = search.MAX_HESSIAN_BYTES // (8 * (2 * n * n) ** 2) + 1
        for r in (restarts, 1_000_000):
            with pytest.raises(SearchBudgetError):
                find_apportioning(np.eye(n, dtype=complex), SearchConfig(restarts=r))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_refine_jacobian_matches_column_loop(self, n):
        from apportion.search import _refine_jacobian, _to_matrix

        rng = np.random.default_rng(50 + n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = _to_matrix(rng.standard_normal(2 * n * n), n)
        Minv = np.linalg.inv(M)
        B, AMinv = M @ A @ Minv, A @ Minv
        n2 = n * n
        ref = np.empty((n2, 2 * n2))
        for k in range(2 * n2):  # one column per parameter, from dB = E A M^-1 - B E M^-1
            E = np.zeros((n, n), dtype=complex)
            E[(k % n2) // n, k % n] = 1.0 if k < n2 else 1j
            dv = 2.0 * (B.conj() * (E @ AMinv - B @ (E @ Minv))).real.ravel()
            ref[:, k] = dv - dv.mean()
        J = _refine_jacobian(B, AMinv, Minv)
        assert np.abs(J - ref).max() <= 64 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("blocks", [[(0j, 5)], [(0j, 3), (0j, 2)], [(0j, 6)]])
    def test_blocked_update_matches_one_block(self, monkeypatch, blocks):
        # the inverse-Hessian update on one row at a time and on every row at
        # once performs the same operations on each entry: outcomes are the
        # same to the last bit
        from apportion import search

        A = build_jordan(JordanSpec(tuple(blocks)))
        cfg = SearchConfig(seed=0)
        runs = []
        for block_bytes in (1, 2**62):
            monkeypatch.setattr(search, "UPDATE_BLOCK_BYTES", block_bytes)
            runs.append(find_apportioning(A, cfg))
        rows, whole = runs
        assert rows.found == whole.found
        assert rows.restarts_used == whole.restarts_used
        assert rows.restart_defects == whole.restart_defects
        assert rows.best_defect == whole.best_defect
        assert (rows.certificate is None) == (whole.certificate is None)
        if rows.certificate is not None:
            for name in ("M", "Minv", "B"):
                assert np.array_equal(getattr(rows.certificate, name),
                                      getattr(whole.certificate, name))
            assert rows.certificate.kappa == whole.certificate.kappa

    @pytest.mark.parametrize("block_bytes", [1, 3 * 8 * 18 * 18, 2**62])
    def test_bfgs_update_matches_one_expression(self, monkeypatch, block_bytes):
        # a partial mask: the gathered rows are updated in blocks and written
        # back, the others keep their bits
        from apportion import search

        monkeypatch.setattr(search, "UPDATE_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(60)
        R, D = 11, 18
        H = rng.standard_normal((R, D, D))
        s, y = rng.standard_normal((R, D)), rng.standard_normal((R, D))
        sy = np.einsum("ri,ri->r", s, y)
        upd = rng.random(R) < 0.6
        upd[:2] = True, False
        ref = H.copy()
        Hu, s_u, y_u, sy_u = ref[upd], s[upd], y[upd], sy[upd]
        Hy = (Hu @ y_u[:, :, None])[:, :, 0]
        coeff = (sy_u + np.einsum("ri,ri->r", y_u, Hy)) / sy_u**2
        h = Hy / sy_u[:, None]
        Hu += np.stack([coeff[:, None] * s_u - h, -s_u], axis=2) @ np.stack([s_u, h], axis=1)
        ref[upd] = Hu
        search._bfgs_update(H, upd, s, y, sy)
        assert np.array_equal(H, ref)

    def test_bfgs_update_is_the_textbook_update(self):
        # H+ = (I - s y^T / sy) H (I - y s^T / sy) + s s^T / sy on positive
        # definite H with s^T y > 0; it maps y to s (the secant condition),
        # and rows outside the mask keep their bits
        from apportion import search

        rng = np.random.default_rng(61)
        R, D = 11, 18
        Q = rng.standard_normal((R, D, D))
        H = Q @ Q.transpose(0, 2, 1) / D + np.eye(D)
        s, y = rng.standard_normal((R, D)), rng.standard_normal((R, D))
        y = np.where(np.einsum("ri,ri->r", s, y)[:, None] > 0, y, -y)
        sy = np.einsum("ri,ri->r", s, y)
        upd = rng.random(R) < 0.6
        upd[:2] = True, False
        before = H.copy()
        search._bfgs_update(H, upd, s, y, sy)
        assert np.array_equal(H[~upd], before[~upd])
        for r in np.flatnonzero(upd):
            V = np.eye(D) - np.outer(y[r], s[r]) / sy[r]
            want = V.T @ before[r] @ V + np.outer(s[r], s[r]) / sy[r]
            assert np.abs(H[r] - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(H[r] @ y[r] - s[r]).max() <= 1e-10 * np.abs(s[r]).max()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_objective_matches_the_stacked_products(self, n):
        # M A as one (R n, n) @ (n, n) product and the det / inv gufuncs called directly
        # give the bits of np.linalg.det, np.linalg.inv and the stacked M @ A @ Minv,
        # singular rows included
        from apportion.search import BARRIER_WEIGHT, _objective_batch, _to_matrix

        rng = np.random.default_rng(80 + n)
        R, n2 = 32, n * n
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = rng.standard_normal((R, 2 * n2))
        X[3] = 0.0
        X[5, :n], X[5, n2:n2 + n] = 0.0, 0.0  # M's row 0 vanishes
        norms = np.sqrt(np.einsum("ri,ri->r", X, X))
        norms = np.where(norms == 0.0, 1.0, norms)
        Xn = X / norms[:, None]
        M = _to_matrix(Xn, n)
        det = np.linalg.det(M)
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-280)
        assert bad.tolist() == [r in (3, 5) for r in range(R)]
        det = np.where(bad, 1.0, det)
        M[bad] = np.eye(n)
        Minv = np.linalg.inv(M)
        B = M @ A @ Minv
        v = (B.real**2 + B.imag**2).reshape(R, n2)
        dev = v - np.add.reduce(v, axis=1, keepdims=True) / n2
        f = np.add.reduce(dev**2, axis=1) / n2 - 2.0 * BARRIER_WEIGHT * np.log(np.abs(det))
        T = Minv @ (dev.reshape(R, n, n) * B.conj()).transpose(0, 2, 1)
        gM = ((4.0 / n2) * (A @ T - T @ B).transpose(0, 2, 1)
              - 2.0 * BARRIER_WEIGHT * Minv.transpose(0, 2, 1))
        g = np.concatenate([gM.real.reshape(R, n2), -gM.imag.reshape(R, n2)], axis=1)
        g = (g - np.einsum("ri,ri->r", g, Xn)[:, None] * Xn) / norms[:, None]
        spread = np.sqrt(v).max(axis=1) - np.sqrt(v).min(axis=1)
        f[bad], g[bad], spread[bad] = np.inf, 0.0, np.inf
        for got, want in zip(_objective_batch(X, A), (f, g, spread)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("mask", ["full", "partial"])
    @pytest.mark.parametrize("block_bytes", [1, 2**62])
    def test_bfgs_update_matches_per_block_factors(self, monkeypatch, n, mask, block_bytes):
        # H y, c, h and the factors formed once for all rows give the bits of forming
        # them per block, through views of H under a full mask and on gathered rows
        # under a partial one
        from apportion import search

        monkeypatch.setattr(search, "UPDATE_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(90 + n)
        R, D = 12, 2 * n * n
        Q = rng.standard_normal((R, D, D))
        H = Q @ Q.transpose(0, 2, 1) / D + np.eye(D)
        s, y = rng.standard_normal((R, D)), rng.standard_normal((R, D))
        sy = np.einsum("ri,ri->r", s, y)
        upd = np.ones(R, dtype=bool) if mask == "full" else rng.random(R) < 0.6
        upd[:2] = True, mask == "full"
        ref = H.copy()
        size = max(1, block_bytes // (8 * D * D))
        rows = np.flatnonzero(upd)
        for a in range(0, rows.size, size):
            r = slice(a, a + size) if mask == "full" else rows[a:a + size]
            Hr, s_r, y_r, sy_r = ref[r], s[r], y[r], sy[r]
            Hy = (Hr @ y_r[:, :, None])[:, :, 0]
            coeff = (sy_r + np.einsum("ri,ri->r", y_r, Hy)) / sy_r**2
            h = Hy / sy_r[:, None]
            Hr += np.stack([coeff[:, None] * s_r - h, -s_r], axis=2) @ np.stack([s_r, h], axis=1)
            ref[r] = Hr
        search._bfgs_update(H, upd, s, y, sy)
        assert H.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_refine_jacobian_batched_matches_one_matrix(self, n):
        from apportion.search import _refine_jacobian, _to_matrix

        rng = np.random.default_rng(70 + n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = _to_matrix(rng.standard_normal((5, 2 * n * n)), n)
        Minv = np.linalg.inv(M)
        B, AMinv = M @ A @ Minv, A @ Minv
        J = _refine_jacobian(B, AMinv, Minv)
        assert J.shape == (5, n * n, 2 * n * n)
        for r in range(5):
            assert np.array_equal(J[r], _refine_jacobian(B[r], AMinv[r], Minv[r]))

    @pytest.mark.parametrize("seed, restarts, n", [
        (0, 1, 2), (1, 32, 2), (np.int64(7), 5, 3), (3, 4, 6),
    ])
    def test_initial_points_are_the_seeded_draws(self, monkeypatch, seed, restarts, n):
        from apportion import search

        monkeypatch.setattr(search, "_last_starts", (None, None))
        cfg = SearchConfig(seed=seed, restarts=restarts)
        want = np.array([np.random.default_rng((seed, r)).standard_normal(2 * n * n)
                         for r in range(restarts)])
        for _ in range(2):  # drawn, then from the kept table
            got = search._initial_points(cfg, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.writeable
            got[:] = 0.0  # the caller's copy: the next call is unchanged
        assert search._initial_points(SearchConfig(seed=int(seed), restarts=restarts),
                                      n).tobytes() == want.tobytes()

    def test_start_table_kept_within_the_byte_cap(self, monkeypatch):
        from apportion import search

        drawn = []
        default_rng = np.random.default_rng

        def counted(seed):
            drawn.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(search, "_last_starts", (None, None))
        monkeypatch.setattr(np.random, "default_rng", counted)
        monkeypatch.setattr(search, "START_CACHE_BYTES", 3 * 8 * 8)  # 3 restarts at order 2

        def draws(seed, restarts=3):
            del drawn[:]
            X = search._initial_points(SearchConfig(seed=seed, restarts=restarts), 2)
            assert X.flags.writeable and X.shape == (restarts, 8)
            return len(drawn)

        assert [draws(0), draws(0), draws(1), draws(0), draws(0)] == [3, 0, 3, 3, 0]
        assert [draws(5, restarts=4), draws(5, restarts=4)] == [4, 4]  # above the cap
        assert draws(0) == 0          # and the kept table stays

    def test_warm_search_constructs_no_generator(self, monkeypatch):
        cfg = SearchConfig(seed=1, restarts=32, defect_target=1e-6)  # criterion 7's
        A = np.diag([1.0, -1.0]).astype(complex)
        first = find_apportioning(A, cfg)

        def refuse(*_):
            raise AssertionError("a generator was constructed")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        again = find_apportioning(A, cfg)
        assert again.found and again.restart_defects == first.restart_defects
        assert np.array_equal(again.certificate.M, first.certificate.M)

    @pytest.mark.parametrize("A, cfg", [
        (np.diag([1.0, 2.0]).astype(complex),
         SearchConfig(seed=1, restarts=32, defect_target=1e-6)),
        (np.array([[1, 1], [0, 1]], dtype=complex), SearchConfig(seed=3, restarts=8)),
        # orders 3-6, which find_apportioning searches by BFGS, through _lm_search
        (2 * np.eye(3, dtype=complex), SearchConfig(seed=0, restarts=4)),
        (build_jordan(JordanSpec(((1 + 0j, 2), (1 + 0j, 1)))), SearchConfig(seed=0, restarts=4)),
        (build_jordan(JordanSpec(((0j, 2), (0j, 2)))), SearchConfig(seed=0, restarts=4)),
        (build_jordan(JordanSpec(((0j, 2), (0j, 2), (0j, 1)))), SearchConfig(seed=0, restarts=3)),
        (build_jordan(JordanSpec(((0j, 2),) * 3)), SearchConfig(seed=0, restarts=3)),
        (np.diag([1, 1, 1, 1, 1, 2]).astype(complex), SearchConfig(seed=0, restarts=3)),
    ])
    def test_lm_restart_alone_matches_the_batch(self, monkeypatch, A, cfg):
        # every LM operation acts row by row: on a refuted input each restart
        # ends on the same bits whether it runs in the full batch or alone
        from apportion import search

        whole = _lm(A, cfg)
        assert not whole.found and len(whole.restart_defects) == cfg.restarts
        draw = search._initial_points
        for r in range(cfg.restarts):
            monkeypatch.setattr(search, "_initial_points",
                                lambda cfg_, n, r=r: draw(cfg_, n)[r:r + 1])
            alone = _lm(A, cfg)
            assert alone.restart_defects == (whole.restart_defects[r],)

    @pytest.mark.parametrize("A, cfg", [
        # criterion 7's refutations, the ones test_lm_refutation_cost counts
        (np.diag([1.0, 2.0]).astype(complex),
         SearchConfig(seed=1, restarts=32, defect_target=1e-6)),
        (np.diag([1.0, -3.0 - 0.75j]), SearchConfig(seed=1, restarts=32, defect_target=1e-6)),
        (np.array([[1, 1], [0, 1]], dtype=complex), SearchConfig(seed=3, restarts=8)),
        # the iteration budget ends the ladders
        (np.diag([1.0, 2.0]).astype(complex), SearchConfig(seed=1, restarts=32, max_iters=2)),
        (build_jordan(JordanSpec(((0j, 2), (0j, 2)))), SearchConfig(seed=0, restarts=4)),
    ])
    def test_lm_ladder_matches_one_trial_per_pass(self, monkeypatch, A, cfg):
        # a pass tries each restart's damping ladder at once; with one value per
        # pass every restart takes the same steps, so every outcome of a
        # refutation is the same to the last bit, in fewer passes
        from apportion import search

        residuals, depth = search._lm_residuals, search._lm_ladder_depth

        def run():
            rows = []

            def counted(X, A_):
                rows.append(X.shape[0])
                return residuals(X, A_)

            monkeypatch.setattr(search, "_lm_residuals", counted)
            return _lm(A, cfg), rows

        ladder, ladder_rows = run()
        monkeypatch.setattr(search, "_lm_ladder_depth", lambda *a: np.minimum(depth(*a), 1))
        plain, plain_rows = run()
        assert not plain.found and not ladder.found
        assert ladder.restart_defects == plain.restart_defects
        assert ladder.best_defect == plain.best_defect
        assert ladder.restarts_used == plain.restarts_used
        assert max(plain_rows) <= cfg.restarts
        assert max(ladder_rows) <= search.LM_STALL_STEPS * cfg.restarts
        assert len(ladder_rows) <= len(plain_rows)
        if cfg.max_iters > 2:
            assert len(ladder_rows) < len(plain_rows)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_lapack_solve_is_np_linalg_solve(self, n):
        # the LM step calls LAPACK's gufunc as np.linalg.solve does, without its
        # checks: the same bits, and a non-finite solution where solve would raise
        import warnings

        from apportion import search

        rng = np.random.default_rng(80 + n)
        n2 = n * n
        J = rng.standard_normal((50, n2, 2 * n2))
        K = J @ J.swapaxes(1, 2) + rng.uniform(1e-12, 1.0, (50, 1, 1)) * np.eye(n2)
        b = rng.standard_normal((50, n2, 1))
        assert search._solve(K, b, signature="dd->d").tobytes() == np.linalg.solve(K, b).tobytes()
        K[3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(K, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                z = search._solve(K, b, signature="dd->d")
        assert not np.isfinite(z[3]).all() and np.isfinite(np.delete(z, 3, axis=0)).all()
        # such a step has infinite residuals and |r|^2, so its trial is rejected
        step = np.full((1, 2 * n2), np.nan)
        with np.errstate(all="ignore"):
            S, _ = search._lm_residuals(step, np.eye(n, dtype=complex))
        assert np.isinf(S[0, 2 * n2:]).all()

    @pytest.mark.parametrize("kind", ["equal", "proportional"])
    def test_order_two_singular_rows_flagged_at_any_draw(self, kind):
        # det = M00 M11 - M01 M10 of equal or proportional rows is a few ulps,
        # not 0, where the products' last bits differ; the relative test flags
        # every such row, and no row of a well-conditioned draw
        from apportion.search import _det_inv_batch

        rng = np.random.default_rng(90 if kind == "equal" else 91)
        size = 4000
        top = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
        top *= np.exp(rng.uniform(-20.0, 20.0, (size, 1)))
        c = 1.0 if kind == "equal" else (rng.standard_normal((size, 1))
                                         + 1j * rng.standard_normal((size, 1)))
        M = np.stack([top, c * top], axis=1)
        _, _, bad = _det_inv_batch(M)
        assert bad.all()
        Q, _ = np.linalg.qr(rng.standard_normal((size, 2, 2)) + 1j * rng.standard_normal((size, 2, 2)))
        _, Minv, bad = _det_inv_batch(Q * np.exp(rng.uniform(-20.0, 20.0, (size, 1, 1))))
        assert not bad.any()

    @pytest.mark.parametrize("l2, evaluations, with_ten_step_window", [
        (2.0, 12, 30),
        (-3.0 - 0.75j, 19, 47),
    ])
    def test_lm_refutation_cost(self, monkeypatch, l2, evaluations, with_ten_step_window):
        # at criterion 7's config the restarts of a refutation end by the
        # stall rule, so the batched residual evaluations count its cost: one
        # per pass, each trying every restart's damping ladder (23 and 33
        # with one value per pass); a window of LM_STALL_STEPS = 10 and one
        # value per pass took the third column
        from apportion import search

        residuals = search._lm_residuals
        calls = 0

        def counted(X, A):
            nonlocal calls
            calls += 1
            return residuals(X, A)

        monkeypatch.setattr(search, "_lm_residuals", counted)
        out = find_apportioning(np.diag([1.0, l2]).astype(complex),
                                SearchConfig(seed=1, restarts=32, defect_target=1e-6))
        assert not out.found
        assert calls < with_ten_step_window
        assert calls == evaluations

    def test_lm_stall_window_keeps_edge_finds(self):
        # two points of criterion 7's grid that a window of 2 stall steps
        # loses at its config; the refuted diag(1, 2) stays refuted
        cfg = SearchConfig(seed=1, restarts=32, defect_target=1e-6)
        axis = np.linspace(-3.0, 3.0, 41)
        for l2 in (complex(axis[9], axis[10]), complex(axis[18], axis[22])):  # -1.65-1.5i, -0.3+0.3i
            assert find_apportioning(np.diag([1.0, l2]), cfg).found, l2
        assert not find_apportioning(np.diag([1.0, 2.0]).astype(complex), cfg).found

    @pytest.mark.parametrize("seed", [0, 2])
    def test_criterion_7_grid_at_other_seeds(self, seed):
        # criterion 7 checks its grid at seed 1: every apportionable point is
        # found and no other one, by the paper's order-2 classification
        cfg = SearchConfig(seed=seed, restarts=32, defect_target=1e-6)
        axis = np.linspace(-3.0, 3.0, 41)
        found = admissible = false_finds = 0
        for im in axis:
            for re in axis:
                l2 = complex(re, im)
                if abs(l2) <= 1e-9:
                    continue
                out = find_apportioning(np.diag([1.0 + 0j, l2]), cfg)
                if polar_condition_2x2(1.0, l2):
                    admissible += 1
                    found += out.found
                else:
                    false_finds += out.found
        assert (found, admissible, false_finds) == (442, 442, 0)

    def test_lm_memory_within_its_budget(self):
        # the order-2 search's working set stays below the bytes per restart
        # that its restart budget charges
        import tracemalloc

        from apportion import search

        restarts = 4096
        A = np.diag([1.0, 2.0]).astype(complex)
        find_apportioning(A, SearchConfig(restarts=2, max_iters=2))  # warm imports
        tracemalloc.start()
        try:
            find_apportioning(A, SearchConfig(restarts=restarts, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < restarts * search.LM_BYTES_PER_N4 * 2**4

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_lm_memory_within_its_budget_at_higher_orders(self, n):
        # the same charge per restart holds for the LM search above order 2,
        # called directly since find_apportioning runs BFGS there
        import tracemalloc

        from apportion import search

        restarts = 256
        A = np.diag(np.arange(1.0, n + 1)).astype(complex)
        search._lm_search(A, A, 1.0, SearchConfig(restarts=2, max_iters=2))  # warm imports
        tracemalloc.start()
        try:
            search._lm_search(A, A, 1.0, SearchConfig(restarts=restarts, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < restarts * search.LM_BYTES_PER_N4 * n**4

    def test_lm_restart_budget_refused_before_allocation(self, monkeypatch):
        from apportion import search

        def no_start(*_):
            raise AssertionError("starting points drawn for an over-budget search")

        monkeypatch.setattr(search, "_initial_points", no_start)
        restarts = search.MAX_HESSIAN_BYTES // (search.LM_BYTES_PER_N4 * 2**4) + 1
        # stricter than the Hessian budget it replaces at order 2
        assert restarts <= search.MAX_HESSIAN_BYTES // (8 * 8 ** 2)
        for r in (restarts, 500_000):
            with pytest.raises(SearchBudgetError):
                find_apportioning(np.diag([1.0, 2.0]).astype(complex), SearchConfig(restarts=r))

    def test_update_memory_within_the_hessian_stack(self):
        # the update's temporaries are bounded by UPDATE_BLOCK_BYTES, not by
        # the R x D x D stack: the whole search peaks below 1.5 H
        import tracemalloc

        n, restarts = 10, 32
        stack = restarts * 8 * (2 * n * n) ** 2
        A = build_jordan(JordanSpec(((0j, n),)))
        tracemalloc.start()
        try:
            find_apportioning(A, SearchConfig(restarts=restarts, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stack


class TestFirstConfirmation:
    """The order >= 3 M search confirms the first restart to come within CANDIDATE_WINDOW
    times the target at once, and ends there on a find."""

    @staticmethod
    def _counted(monkeypatch, fail_first=False):
        """Count ``_objective_batch`` calls and confirmations; with ``fail_first`` the first
        confirmation refines to an infinite spread."""
        from apportion import search

        objective, refine = search._objective_batch, search._uniformity_refine
        counts = {"objective": 0, "confirmations": 0}

        def counted_objective(X, A):
            counts["objective"] += 1
            return objective(X, A)

        def counted_refine(x, A, steps):
            counts["confirmations"] += 1
            if fail_first and counts["confirmations"] == 1:
                return x, math.inf
            return refine(x, A, steps)

        monkeypatch.setattr(search, "_objective_batch", counted_objective)
        monkeypatch.setattr(search, "_uniformity_refine", counted_refine)
        return counts

    def test_nilpotent_found_at_the_first_candidate(self, monkeypatch):
        # J3 at seed 0 took 341 objective calls when every restart ran until it stopped
        from apportion.search import CANDIDATE_WINDOW, CONFIRM_FACTOR

        counts = self._counted(monkeypatch)
        cfg = SearchConfig(seed=0)
        out = find_apportioning(build_jordan(JordanSpec(((0j, 3),))), cfg)
        assert out.found and out.restarts_used == 27
        assert counts == {"objective": 63, "confirmations": 1}
        assert out.best_defect <= CONFIRM_FACTOR * cfg.defect_target
        # each restart's best when the search stopped, the winner's within the window
        assert len(out.restart_defects) == cfg.restarts
        assert out.restart_defects[26] <= CANDIDATE_WINDOW * cfg.defect_target

    def test_miss_runs_to_its_end(self, monkeypatch):
        # J2 + J2: the early confirmation fails, then the loop and the end-of-run
        # confirmation of the best CANDIDATES run as before, with the same objective calls
        from apportion.search import CANDIDATES

        counts = self._counted(monkeypatch)
        out = find_apportioning(build_jordan(JordanSpec(((0j, 2), (0j, 2)))), SearchConfig(seed=0))
        assert not out.found and out.restarts_used == 32
        assert counts == {"objective": 643, "confirmations": 1 + CANDIDATES}

    def test_failed_first_confirmation_leaves_the_outcome(self, monkeypatch):
        # with the early attempt refused, J3 at seed 0 is found as before: restart 13, after
        # 341 objective calls, by the end-of-run confirmation
        counts = self._counted(monkeypatch, fail_first=True)
        out = find_apportioning(build_jordan(JordanSpec(((0j, 3),))), SearchConfig(seed=0))
        assert out.found and out.restarts_used == 13
        assert counts == {"objective": 341, "confirmations": 2}


class TestSearchScale:
    # K(cA) = |c| K(A): every input is searched at unit scale, and spreads and
    # certificates are reported at the input's scale, with no warning
    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e175, 1e300])
    def test_opposite_pair_found_at_any_scale(self, scale):
        import warnings

        from apportion import Tolerance

        A = np.diag([scale, -scale]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = find_apportioning(A, FAST)
        assert out.found
        tol = Tolerance(rel=FAST.defect_target, abs=FAST.defect_target * scale)
        rep = verify_certificate(out.certificate, A, tol=tol)
        assert rep.kappa >= scale / math.sqrt(2) * (1 - 1e-6)
        assert out.best_defect <= FAST.defect_target * scale

    @pytest.mark.parametrize("scale", [1e-100, 1e175, 1e300])
    def test_scalar_not_found_at_any_scale(self, scale):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = find_apportioning(np.diag([scale, scale]).astype(complex), FAST)
        assert not out.found
        assert math.isfinite(out.best_defect)
        assert all(math.isfinite(d) for d in out.restart_defects)
        # the spreads are reported at the input's scale
        assert out.best_defect > 1e-3 * scale

    def test_no_certificate_where_checks_overflow(self):
        # the image's entry moduli sum past the float range: refused, quietly
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = find_apportioning(np.diag([1e308, -1e308]).astype(complex), FAST)
        assert not out.found
        assert math.isfinite(out.best_defect)

    def test_no_certificate_where_the_largest_modulus_overflows(self):
        # |a| overflows, so the certificate's absolute floor would be infinite
        import warnings

        A = np.diag([1.5e308 * (1 + 1j), -1.5e308 * (1 + 1j)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = find_apportioning(A, SearchConfig(restarts=4, max_iters=200, seed=1))
        assert not out.found and out.certificate is None

    def test_in_range_input_scaled(self, monkeypatch):
        # an input of modest scale is searched at unit scale too, A 2^-e, on
        # the order-2 path (LM residuals), the image route (its residual's
        # targets are the eigenvalues of A 2^-e, and its rank term's eigenvalue
        # is one of them) and the BFGS path alike
        from apportion import search
        from apportion.core import times_power_of_two, unit_exponent

        for name, A, matches in (
                ("_lm_residuals", np.diag([1e-9, -1e-9]).astype(complex),
                 lambda u, a: np.array_equal(a, u)),
                ("_spectrum_residual", np.diag([1e-9, -1e-9, 2e-9]).astype(complex),
                 lambda u, a: np.array_equal(a, np.linalg.eig(u)[0])),
                # a repeated eigenvalue in two blocks of size 1: a hook input
                ("_power_residual", np.diag([1e-9, 1e-9, -2e-9]).astype(complex),
                 lambda u, a: a[2] == ((u[0, 0], 2),)),
                # J2 + J2 at one eigenvalue is not a hook input: the image route does not
                # take it
                ("_objective_batch", 1e-9 * build_jordan(JordanSpec(((1, 2), (1, 2)))),
                 lambda u, a: np.array_equal(a, u))):
            seen = []

            def spy(X, A_, evaluate=getattr(search, name)):
                seen.append(A_)
                return evaluate(X, A_)

            monkeypatch.setattr(search, name, spy)
            find_apportioning(A, SearchConfig(restarts=2, max_iters=2))
            unit = times_power_of_two(A, -unit_exponent(A))
            assert 1.0 <= np.abs(unit).max() < 2.0
            assert seen and all(matches(unit, a) for a in seen)

    @pytest.mark.parametrize("k", [-40, -3, 5, 40, 100])
    def test_search_is_scale_equivariant(self, k):
        # one scale rule for every input: 2^k A gives the same M and 2^k times kappa
        A = np.diag([1, -0.5 + 1j, 0]).astype(complex)
        cfg = SearchConfig(seed=0, restarts=8)
        base = find_apportioning(A, cfg)
        out = find_apportioning(math.ldexp(1.0, k) * A, cfg)
        assert base.found and out.found
        assert np.array_equal(out.certificate.M, base.certificate.M)
        assert out.certificate.kappa == math.ldexp(base.certificate.kappa, k)


def _route(A, blocks, cfg, kappa=None):
    """``_image_search`` on A for ``blocks``, scaled as find_apportioning scales it."""
    from apportion import search
    from apportion.core import times_power_of_two, unit_exponent

    e = unit_exponent(A)
    return search._image_search(A, times_power_of_two(A, -e), math.ldexp(1.0, e), cfg, blocks,
                                kappa)


def _search_tol(A, cfg):
    from apportion import Tolerance

    return Tolerance(rel=cfg.defect_target, abs=cfg.defect_target * float(np.abs(A).max()))


#: refuted order-2 pairs (distinct eigenvalues, the spectrum residual) and refuted specs
#: with a repeated eigenvalue, searched as one block per eigenvalue (the power sums)
_REFUTED_PAIRS = st.tuples(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0, allow_nan=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0, allow_nan=False)).map(
    lambda pair: JordanSpec(((pair[0], 1), (pair[1], 1))))
_ROUTE_EIGENVALUES = st.sampled_from(
    (1 + 0j, -1 + 0j, 2 + 0j, 1j, -0.5 + 1j, 0.5 + 0.5j, complex(math.cos(2), math.sin(2))))
_REFUTED_REPEATS = st.one_of(
    st.tuples(_ROUTE_EIGENVALUES, st.sampled_from((3, 4))).map(
        lambda lam_n: JordanSpec(((lam_n[0], 1),) * lam_n[1])),
    st.tuples(_ROUTE_EIGENVALUES, _ROUTE_EIGENVALUES).map(
        lambda pair: JordanSpec(((pair[0], 1), (pair[0], 1), (pair[1], 1)))))
#: measurement 14's non-derogatory Jordan inputs, one block per eigenvalue
_NON_DEROGATORY = [
    [(1, 2), (-2, 1)], [(0.5j, 2), (1, 1)], [(1, 2), (-2, 1), (3j, 1)], [(1, 3), (-1, 1)],
    [(1, 2), (-1, 2)], [(1, 4), (-3, 1)], [(1, 3), (1j, 2), (-2, 1)],
]

#: refuted hook inputs, searched with their true blocks (the rank term): diag(lam, lam, mu),
#: lam I_4 + [mu] and I_3 + O_1
_REFUTED_HOOKS = st.one_of(
    st.tuples(_ROUTE_EIGENVALUES, _ROUTE_EIGENVALUES, st.sampled_from((2, 4))).map(
        lambda t: JordanSpec(((t[0], 1),) * t[2] + ((t[1], 1),))),
    st.just(JordanSpec(((1 + 0j, 1),) * 3 + ((0j, 1),))))
#: hook inputs found by the rank term: search-orders' four derogatory rows, then
#: diag(1, 1, 2, 3), diag(1, 1, -1, -1, 2), J2(1) + [1] + [2] and diag(1, 2, 3, 0, 0)
_HOOKS = [
    [(1.5, 1), (0, 1), (0, 1)], [(1, 1), (-0.5 + 1j, 1), (0, 1), (0, 1)],
    [(0.8, 2), (0, 1), (0, 1)], [(0, 2), (1.2j, 1), (0, 1)],
    [(1, 1), (1, 1), (2, 1), (3, 1)], [(1, 1), (1, 1), (-1, 1), (-1, 1), (2, 1)],
    [(1, 2), (1, 1), (2, 1)], [(1, 1), (2, 1), (3, 1), (0, 1), (0, 1)],
]


def _doubled_diagonals():
    """Ten fixed random diagonal matrices of each order 4, 6 and 8, each eigenvalue (standard
    complex normal) twice."""
    rng = np.random.default_rng(22)
    return [np.diag(np.repeat(rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2), 2))
            for n in (4, 6, 8) for _ in range(10)]


def _random_diagonals():
    """Ten fixed random diagonal matrices (standard complex normal eigenvalues) of each
    even order 8-16."""
    rng = np.random.default_rng(21)
    return [np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for n in (8, 10, 12, 14, 16) for _ in range(10)]


class TestImageRoute:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.one_of(_REFUTED_PAIRS, _REFUTED_REPEATS), st.sampled_from((-40, 40)),
           st.sampled_from((None, 1.0, 1.5, 3.0, 16.0)))
    def test_route_never_finds_what_classify_refutes(self, spec, k, c):
        # the route called directly, past its eligibility: one block per distinct
        # eigenvalue, with kappa free or fixed at c times the proven floor
        from apportion import Verdict, classify

        assume(classify(spec).verdict is Verdict.NOT_APPORTIONABLE)
        A = build_jordan(spec) * 2.0 ** k
        sizes = {}
        for lam, size in spec.blocks:
            sizes[lam] = sizes.get(lam, 0) + size
        kappa = None if c is None else c * max(trace_lower_bound(A), hadamard_lower_bound(A))
        cfg = SearchConfig(restarts=4, max_iters=300, seed=0, defect_target=1e-6)
        assert _route(A, tuple(sizes.items()), cfg, kappa) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_diagonals_found(self, seed):
        cfg = SearchConfig(seed=seed)
        for A in _random_diagonals():
            out = find_apportioning(A, cfg)
            assert out.found, (A.shape[0], np.diag(A))
            verify_certificate(out.certificate, A, tol=_search_tol(A, cfg))

    @pytest.mark.parametrize("blocks", _NON_DEROGATORY)
    def test_non_derogatory_jordan_found(self, blocks):
        from apportion import search

        A = build_jordan(JordanSpec(tuple((complex(lam), size) for lam, size in blocks)))
        assert search._image_blocks(A) is not None
        for seed in (0, 1, 2):
            cfg = SearchConfig(seed=seed)
            out = find_apportioning(A, cfg)
            assert out.found
            verify_certificate(out.certificate, A, tol=_search_tol(A, cfg))

    @pytest.mark.parametrize("blocks, eligible", [
        ([(1, 1), (2, 1), (-1 + 0.5j, 1)], True),
        ([(1, 2), (-0.7, 1)], True),
        ([(1, 1), (2, 1), (0, 1)], True),
        ([(0, 3)], False),                            # nilpotent
        ([(0, 2), (0, 2)], False),                    # nilpotent and derogatory
        ([(1.5, 1), (0, 1), (0, 1)], True),           # 0 in two blocks: a hook
        ([(1, 1), (1, 1), (2, 1), (3, 1)], True),     # 1 in two blocks: a hook
        ([(1, 5), (2, 4)], False),                    # a repeated eigenvalue above order 8
        ([(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1)], True),
        ([(0, 2), (1.2j, 1), (0, 1)], True),          # J2(0) + [0]: a hook
        ([(1, 2), (1, 2)], False),                    # two blocks larger than 1 x 1
        ([(2, 1)] * 3, False),                        # scalar
        ([(1, 1), (1, 1)] + [(k, 1) for k in range(2, 9)], False),  # a repeat above order 8
    ])
    def test_eligibility(self, blocks, eligible):
        from apportion import search

        A = build_jordan(JordanSpec(tuple((complex(lam), size) for lam, size in blocks)))
        assert (search._image_blocks(A) is not None) is eligible

    def test_route_find_reports_its_restart(self):
        # a find's spread is its certificate's, and the transcript ends at the winner
        A = np.diag([1, 2, -1 + 0.5j]).astype(complex)
        out = find_apportioning(A, SearchConfig(seed=0))
        mods = np.abs(out.certificate.B)
        assert out.best_defect == float(mods.max() - mods.min())
        assert len(out.restart_defects) == out.restarts_used
        assert out.restart_defects[-1] <= 1e-12

    def test_miss_falls_back_to_the_m_search(self, monkeypatch):
        # two steps per restart converge nowhere: the route runs, finds nothing, and
        # the outcome is the M search's alone, as where the route is not taken
        from apportion import search

        A = np.diag([1, 2, -1 + 0.5j]).astype(complex)
        cfg = SearchConfig(restarts=4, max_iters=2, seed=1)
        routed = []

        def spy(*args, route=search._image_search):
            routed.append(route(*args))
            return routed[-1]

        monkeypatch.setattr(search, "_image_search", spy)
        after_route = find_apportioning(A, cfg)
        assert routed == [None]
        monkeypatch.setattr(search, "_image_blocks", lambda As: None)
        alone = find_apportioning(A, cfg)
        assert len(routed) == 1
        assert after_route.to_json(True) == alone.to_json(True)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(_REFUTED_HOOKS, st.sampled_from((-40, 40)),
           st.sampled_from((None, 1.0, 1.5, 3.0, 16.0)))
    def test_route_never_finds_refuted_hooks(self, spec, k, c):
        # the route called directly with the true blocks, so that the rank term runs
        from apportion import Verdict, classify

        assume(classify(spec).verdict is Verdict.NOT_APPORTIONABLE)
        A = build_jordan(spec) * 2.0 ** k
        kappa = None if c is None else c * max(trace_lower_bound(A), hadamard_lower_bound(A))
        cfg = SearchConfig(restarts=4, max_iters=300, seed=0, defect_target=1e-6)
        assert _route(A, spec.blocks, cfg, kappa) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hooks_found_by_the_route(self, seed):
        # a route find's transcript ends at its winner; the M search's holds every restart
        cfg = SearchConfig(seed=seed)
        hooks = [build_jordan(JordanSpec(tuple((complex(lam), size) for lam, size in blocks)))
                 for blocks in _HOOKS]
        for A in hooks + _doubled_diagonals():
            out = find_apportioning(A, cfg)
            assert out.found and len(out.restart_defects) == out.restarts_used, np.diag(A)
            verify_certificate(out.certificate, A, tol=_search_tol(A, cfg))

    @pytest.mark.parametrize("blocks, hook", [
        ([(0, 2), (1.2j, 1), (0, 1)], [(0, 2), (0, 1), (1.2j, 1)]),
        ([(1, 1), (1, 2), (1, 1), (2, 1)], [(1, 2), (1, 1), (1, 1), (2, 1)]),
        ([(1, 1), (1, 1), (1, 1), (0, 1)], [(1, 1), (1, 1), (1, 1), (0, 1)]),
    ])
    def test_hook_blocks(self, blocks, hook):
        # one block of size m - g + 1 and g - 1 of size 1 per eigenvalue, in any order
        from apportion import search

        A = build_jordan(JordanSpec(tuple((complex(lam), size) for lam, size in blocks)))
        assert sorted(search._image_blocks(A), key=repr) == sorted(
            ((complex(lam), size) for lam, size in hook), key=repr)

    def test_rank_term_jacobian_matches_central_differences(self):
        # in the frames (U, V) of the point, the rank term is U^H (B - mu I) V
        from apportion import search

        rng = np.random.default_rng(5)
        n, mu, g = 4, 0.5 + 0.25j, 2
        sums, w = rng.standard_normal(n) + 0j, np.ones(n)
        target = (sums, w, ((mu, g),))
        p = np.append(rng.standard_normal(n * n), 0.1)
        _, state = search._power_residual(p, target)
        U, V = state[2][0]
        J = search._power_jacobian(state, target)
        rows = 2 * (n + g * g)
        assert J.shape == (rows, n * n + 1)

        def term(q):
            t = (U.conj().T @ (search._image(q, n) - mu * np.eye(n)) @ V).ravel()
            return np.concatenate([t.real, t.imag])

        h = 1e-6
        for j in range(n * n + 1):
            e = np.zeros(n * n + 1)
            e[j] = h
            num = (term(p + e) - term(p - e)) / (2 * h)
            got = np.concatenate([J[n:n + g * g, j], J[2 * n + g * g:, j]])
            assert np.abs(got - num).max() < 1e-7

    def test_singular_step_rejected(self):
        # J = 0 leaves the damped system singular: its non-finite step is rejected, as a
        # step that does not lower |r|^2 is, and the residual is never evaluated there
        from apportion import search

        seen = []

        def residual(p, _target):
            seen.append(p.copy())
            return np.array([1.0, 2.0]), "state"

        p0 = np.array([0.1, 0.2, 0.3])
        with np.errstate(invalid="ignore"):
            p, cost, state = search._image_lm(p0, residual, lambda *_: np.zeros((2, 3)),
                                              None, 100, True)
        assert np.array_equal(p, p0) and cost == 5.0 and state == "state"
        assert len(seen) == 1
