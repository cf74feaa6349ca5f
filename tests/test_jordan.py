import numpy as np
import pytest

from apportion import (
    InvalidInputError,
    JordanSpec,
    SingularMatrixError,
    UnsupportedOrderError,
    build_jordan,
    complete_inverse_pair,
    eigenstructure_2x2,
    eigenstructure_small,
    input_ordered_spec,
    parse_jordan_arrangement,
    scale_jordan,
)

from helpers import random_nonsingular


def specs_close(a: JordanSpec, b: JordanSpec, tol=1e-8) -> bool:
    if len(a.blocks) != len(b.blocks):
        return False
    return all(sa == sb and abs(la - lb) <= tol
               for (la, sa), (lb, sb) in zip(a.blocks, b.blocks))


class TestJordanSpec:
    def test_build_single_nilpotent(self):
        J = build_jordan(JordanSpec(((0j, 2),)))
        assert np.array_equal(J, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_build_5x5(self):
        J = build_jordan(JordanSpec(((0j, 3), (0j, 2))))
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 1] = expected[1, 2] = expected[3, 4] = 1.0
        assert np.array_equal(J, expected)

    def test_build_diagonal(self):
        J = build_jordan(JordanSpec(((2 + 1j, 1), (-3j, 1))))
        assert np.array_equal(J, np.diag([2 + 1j, -3j]))

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidInputError):
            JordanSpec(((0j, 0),))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            JordanSpec(())

    @pytest.mark.parametrize("size", [True, np.True_, 1.0, "1"])
    def test_non_integer_size_rejected(self, size):
        # as ``from_json`` refuses a boolean: True is not the block size 1
        with pytest.raises(InvalidInputError):
            JordanSpec(((0j, size),))

    def test_numpy_integer_size_read_as_int(self):
        blocks = JordanSpec(((0j, np.int64(2)), (1j, np.uint8(1)))).blocks
        assert blocks == ((0j, 2), (1j, 1)) and all(type(s) is int for _, s in blocks)

    def test_json_round_trip_exact(self):
        spec = JordanSpec(((0.1 + 0.2j, 2), (-1.5j, 1), (3.0, 3)))
        assert JordanSpec.from_json(spec.to_json()).blocks == spec.blocks

    def test_rank_counts_zero_blocks(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            blocks = []
            for _ in range(int(rng.integers(1, 4))):
                lam = 0j if rng.random() < 0.5 else complex(rng.standard_normal())
                blocks.append((lam, int(rng.integers(1, 4))))
            spec = JordanSpec(tuple(blocks))
            assert spec.rank == np.linalg.matrix_rank(build_jordan(spec))

    @staticmethod
    def _random_specs(seed, count=200):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            blocks = []
            for _ in range(int(rng.integers(1, 7))):
                lam = 0j if rng.random() < 0.4 else complex(*rng.standard_normal(2))
                blocks.append((lam, int(rng.integers(1, 4))))
            yield JordanSpec(tuple(blocks))

    def test_order_and_rank_are_the_plain_counts(self):
        import pickle

        for spec in self._random_specs(3):
            order = sum(size for _, size in spec.blocks)
            rank = order - sum(1 for lam, _ in spec.blocks if lam == 0)
            restored = pickle.loads(pickle.dumps(spec))  # fills its values on first use
            assert (spec.order, spec.rank) == (restored.order, restored.rank) == (order, rank)

    def test_value_semantics_unchanged(self):
        import copy
        import dataclasses
        import pickle

        for spec in self._random_specs(4, count=50):
            fresh = JordanSpec(spec.blocks)
            before = pickle.dumps(fresh)
            assert (spec.order, spec.rank) == (fresh.order, fresh.rank)
            assert spec == fresh and hash(spec) == hash(fresh) == hash((spec.blocks,))
            assert repr(spec) == f"JordanSpec(blocks={spec.blocks!r})"
            # the stored order and rank are not part of the pickled state
            assert pickle.dumps(spec) == pickle.dumps(fresh) == before
            assert pickle.loads(before) == spec and copy.deepcopy(spec) == spec
            grown = dataclasses.replace(spec, blocks=spec.blocks + ((0j, 2),))
            assert (grown.order, grown.rank) == (spec.order + 2, spec.rank + 1)

    def test_dense_order_refused_before_allocation(self, monkeypatch):
        from apportion import jordan

        assert build_jordan(JordanSpec(((0j, jordan.MAX_DENSE_ORDER),))).shape == (
            jordan.MAX_DENSE_ORDER, jordan.MAX_DENSE_ORDER)

        def no_allocation(*_args, **_kwargs):
            raise AssertionError("a dense matrix allocated above the cap")

        monkeypatch.setattr(jordan.np, "zeros", no_allocation)
        for n in (jordan.MAX_DENSE_ORDER + 1, 40_000):
            with pytest.raises(InvalidInputError):
                build_jordan(JordanSpec(((0j, n),)))

    def test_build_and_permutation_match_block_assembly(self):
        from apportion.jordan import block_permutation

        rng = np.random.default_rng(5)
        for spec in self._random_specs(6):
            n = spec.order
            expected = np.zeros((n, n), dtype=complex)
            starts, pos = [], 0
            for lam, size in spec.blocks:
                expected[pos:pos + size, pos:pos + size] = lam * np.eye(size) + np.eye(size, k=1)
                starts.append(pos)
                pos += size
            J = build_jordan(spec)
            assert J.dtype == complex and J.tobytes() == expected.tobytes()
            order = [int(i) for i in rng.permutation(len(spec.blocks))]
            new_spec, Q = block_permutation(spec, order)
            rows = [starts[i] + j for i in order for j in range(spec.blocks[i][1])]
            assert Q.dtype == float and Q.tobytes() == np.eye(n)[rows].tobytes()
            assert np.array_equal(Q @ J @ Q.T, build_jordan(new_spec))

    @pytest.mark.parametrize("block", [
        {"re": 0.0, "im": 0.0, "size": 2.7}, {"re": 0.0, "im": 0.0, "size": True},
        {"re": True, "im": 0.0, "size": 1}, {"re": 1.0, "im": False, "size": 1},
        {"re": 1.0, "im": 0.0, "size": float("inf")}, {"re": 1.0, "im": 0.0, "size": "x"},
        {"re": 1.0, "size": 1},
    ])
    def test_from_json_refuses_malformed_blocks(self, block):
        with pytest.raises(InvalidInputError, match="malformed JordanSpec document"):
            JordanSpec.from_json({"blocks": [block]})

    @pytest.mark.parametrize("size", [2, 2.0, np.int64(2)])
    def test_from_json_accepts_integral_sizes(self, size):
        spec = JordanSpec.from_json({"blocks": [{"re": 1, "im": 0.5, "size": size}]})
        assert spec.blocks == ((1 + 0.5j, 2),) and type(spec.blocks[0][1]) is int

    def test_canonical_order(self):
        spec = JordanSpec(((0j, 1), (2 + 0j, 1), (-2 + 0j, 2), (0j, 3)))
        canon = spec.canonical()
        mods = [abs(lam) for lam, _ in canon.blocks]
        assert mods == sorted(mods, reverse=True)
        assert canon.blocks[-1][0] == 0 and canon.blocks[0][1] == 2

    def test_canonical_order_past_the_float_range(self):
        # |H| and |0.9 H| both exceed the largest float: the order still follows the moduli
        H = 1.7e308 * (1 + 1j)
        blocks = ((0.9 * H, 2), (H, 1), (0j, 1))
        for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
            canon = JordanSpec(tuple(blocks[i] for i in perm)).canonical()
            assert canon.blocks == ((H, 1), (0.9 * H, 2), (0j, 1))


class TestScaleJordan:
    def test_two_block_by_two(self):
        spec, S = scale_jordan(JordanSpec(((1 + 0j, 2),)), 2.0)
        assert spec.blocks == ((2 + 0j, 2),)
        assert np.array_equal(S, np.diag([1.0 + 0j, 2.0 + 0j]))
        lhs = S @ (2.0 * build_jordan(JordanSpec(((1 + 0j, 2),)))) @ np.linalg.inv(S)
        assert np.abs(lhs - build_jordan(spec)).max() < 1e-12

    def test_nilpotent_spectrum_fixed(self):
        spec, _ = scale_jordan(JordanSpec(((0j, 4),)), 2.7 - 1j)
        assert spec.blocks == ((0j, 4),)

    def test_rotation(self):
        spec, _ = scale_jordan(JordanSpec(((1 + 0j, 1), (-1 + 0j, 1))), 1j)
        assert spec.blocks == ((1j, 1), (-1j, 1))

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            scale_jordan(JordanSpec(((1 + 0j, 1),)), 0.0)

    @pytest.mark.parametrize("lam", [1e-120, 1e100, 1e120])
    def test_power_out_of_float_range_rejected(self, lam):
        # lam^3 underflows to 0 (a singular S) or the check overflows to NaN
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                scale_jordan(JordanSpec(((1 + 0j, 4),)), lam)


class TestCompleteInversePair:
    def test_standard_basis(self):
        U = np.array([[1.0], [0.0]], dtype=complex)
        V = np.array([[1.0, 0.0]], dtype=complex)
        pair = complete_inverse_pair(U, V)
        assert np.abs(pair.M @ pair.Minv - np.eye(2)).max() < 1e-14
        assert np.array_equal(pair.M[:, 0], U[:, 0])
        assert np.array_equal(pair.Minv[0], V[0])

    def test_split_difference_vectors(self):
        # the order-4 identity-plus-zeros column/row pair at kappa = 1
        zeta = 0.5 + np.sqrt(3) / 2 * 1j
        U = np.zeros((4, 2), dtype=complex)
        V = np.zeros((2, 4), dtype=complex)
        for k in (1, 2):
            U[: 2 * k - 1, k - 1] = -zeta.conjugate()
            U[2 * k - 1:, k - 1] = zeta
            V[k - 1, 2 * k - 1] = 1.0
            V[k - 1, 2 * k - 2] = -1.0
        pair = complete_inverse_pair(U, V)
        assert np.abs(pair.M @ pair.Minv - np.eye(4)).max() < 1e-12

    def test_unitary_completion_property(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            raw = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            Q, _ = np.linalg.qr(raw)
            U = Q[:, :m]
            V = U.conj().T
            pair = complete_inverse_pair(U, V)
            assert np.abs(pair.M @ pair.Minv - np.eye(n)).max() < 1e-10

    def test_block_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            X = random_nonsingular(rng, n)
            U = X[:, :m]
            V = np.linalg.inv(X)[:m, :]
            pair = complete_inverse_pair(U, V)
            Uprime = pair.M[:, m:]
            Vprime = pair.Minv[m:, :]
            assert np.abs(Vprime @ U).max() < 1e-9
            assert np.abs(Vprime @ Uprime - np.eye(n - m)).max() < 1e-9
            assert np.abs(V @ Uprime).max() < 1e-9

    def test_precondition_violated(self):
        U = np.ones((3, 1), dtype=complex)
        V = np.ones((1, 3), dtype=complex)  # V U = 3, not 1
        with pytest.raises(InvalidInputError):
            complete_inverse_pair(U, V)

    def test_rank_deficient_v(self):
        U = np.eye(4, dtype=complex)[:, :2]
        V = np.vstack([U.conj().T[0], U.conj().T[0] * 1e-14])
        with pytest.raises((InvalidInputError, SingularMatrixError)):
            complete_inverse_pair(U, V)

    def test_not_strict_block(self):
        with pytest.raises(InvalidInputError):
            complete_inverse_pair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


class TestParseArrangement:
    def test_preserves_input_order(self):
        A = np.diag([1.0, 1.0, -0.5 + 1.0j])
        spec = parse_jordan_arrangement(A)
        assert spec.blocks == ((1 + 0j, 1), (1 + 0j, 1), (-0.5 + 1.0j, 1))

    def test_reads_block_boundaries(self):
        A = build_jordan(JordanSpec(((0j, 2), (3 + 0j, 1))))
        spec = parse_jordan_arrangement(A)
        assert spec.blocks == ((0j, 2), (3 + 0j, 1))

    def test_same_eigenvalue_split_blocks(self):
        A = build_jordan(JordanSpec(((2 + 0j, 1), (2 + 0j, 2))))
        spec = parse_jordan_arrangement(A)
        assert spec.blocks == ((2 + 0j, 1), (2 + 0j, 2))

    def test_rejects_conjugated(self):
        rng = np.random.default_rng(1)
        P = random_nonsingular(rng, 3)
        A = P @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(P)
        assert parse_jordan_arrangement(A) is None
        with pytest.raises(InvalidInputError):
            input_ordered_spec(A)

    def test_snaps_near_equal_eigenvalues(self):
        A = np.diag([1.0, 1.0 + 1e-12, 0.0])
        spec = input_ordered_spec(A)
        assert spec.blocks[0][0] == spec.blocks[1][0]

    @pytest.mark.parametrize("scale", [1e13, 1e100])
    def test_superdiagonal_compared_with_one_at_its_own_scale(self, scale):
        # a large diagonal entry does not make a zero superdiagonal pass as 1
        spec = input_ordered_spec(np.diag([scale, 0.0, 0.0]))
        assert spec.blocks == ((scale + 0j, 1), (0j, 1), (0j, 1))

    def test_small_scaled_block_is_not_an_arrangement(self):
        A = np.array([[0.0, 2.0 ** -60], [0.0, 0.0]])
        assert parse_jordan_arrangement(A) is None
        with pytest.raises(InvalidInputError):
            input_ordered_spec(A)

    def test_read_at_unit_scale(self):
        # max|A| overflows, so a tolerance taken at A's own scale is inf and reads J2(H1);
        # at unit scale the entries are diag(H1, H2) plus a one, off the diagonal's block
        import warnings

        h1, h2 = 1.7e308 - 1.7e308j, 1.7e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = parse_jordan_arrangement(np.array([[h1, 1.0], [0.0, h2]]))
            assert spec.blocks == ((h1, 1), (h2, 1))
            # the ones are compared with 1 itself: 2^1074 is past the float range
            tiny = -5e-324 - 5e-324j
            assert parse_jordan_arrangement(np.array([[tiny]])).blocks == ((tiny, 1),)
            assert parse_jordan_arrangement(np.array([[tiny, 1.0], [0.0, tiny]])).blocks == (
                (tiny, 2),)

    @pytest.mark.parametrize("diag", [(1.7e308 - 1.7e308j, 1.7e308j),
                                      (1.7e308j, 1.7e308 - 1.7e308j),
                                      (1.7e308 - 1.7e308j, 0j, 1.7e308j)])
    def test_snap_read_at_unit_scale(self, diag):
        # |H1| = 2.4e308 is past the float range: the snap reads its moduli on the
        # entries' unit scale, and keeps the input order of eigenstructure_small's values
        import warnings

        A = np.diag(diag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = input_ordered_spec(A)
            reps = {lam for lam, _ in eigenstructure_small(A).spec.blocks}
        assert {lam for lam, _ in spec.blocks} == reps
        assert [size for _, size in spec.blocks] == [1] * len(diag)
        for (lam, _), d in zip(spec.blocks, diag):
            assert abs(lam / 4 - d / 4) <= 1e-9 * abs(d / 4)


class TestEigenstructure2x2:
    def test_nilpotent(self):
        assert eigenstructure_2x2(np.array([[0, 1], [0, 0]])).blocks == ((0j, 2),)

    def test_distinct_diagonal(self):
        spec = eigenstructure_2x2(np.diag([1.0, -1.0]))
        assert specs_close(spec, JordanSpec(((1 + 0j, 1), (-1 + 0j, 1))))

    def test_repeated_with_superdiagonal(self):
        spec = eigenstructure_2x2(np.array([[3.0, 1.0], [0.0, 3.0]]))
        assert specs_close(spec, JordanSpec(((3 + 0j, 2),)), tol=1e-12)

    def test_scalar(self):
        spec = eigenstructure_2x2(2j * np.eye(2))
        assert spec.blocks == ((2j, 1), (2j, 1))

    def test_below_unit_scale(self):
        # the eigenvalues stay apart and nonzero at any scale
        spec = eigenstructure_2x2(np.diag([1e-10, 2e-10]))
        assert specs_close(spec, JordanSpec(((2e-10 + 0j, 1), (1e-10 + 0j, 1))), tol=1e-24)
        assert all(lam != 0 for lam, _ in spec.blocks)

    def test_is_eigenstructure_small(self):
        for A in (np.diag([1e-10, 2e-10]), np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]]),
                  np.array([[0.3, 1e-9], [1e-9, 0.3]])):
            assert eigenstructure_2x2(A) == eigenstructure_small(A).spec


class TestEigenstructureSmall:
    def test_diag_repeated(self):
        res = eigenstructure_small(np.diag([1.0, 1.0, 0.0]))
        assert res.spec.blocks == ((1 + 0j, 1), (1 + 0j, 1), (0j, 1))
        assert not res.approximate

    def test_already_jordan(self):
        A = np.array([[2.0, 1, 0], [0, 2, 0], [0, 0, 0]])
        res = eigenstructure_small(A)
        assert specs_close(res.spec, JordanSpec(((2 + 0j, 2), (0j, 1))), tol=1e-12)

    def test_conjugated_round_trip(self):
        rng = np.random.default_rng(3)
        spec = JordanSpec(((0j, 2), (5 + 0j, 1)))
        for _ in range(20):
            P = random_nonsingular(rng, 3)
            A = P @ build_jordan(spec) @ np.linalg.inv(P)
            res = eigenstructure_small(A)
            assert specs_close(res.spec, spec.canonical(), tol=1e-7)

    def test_round_trip_separated_eigenvalues(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            while True:
                lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                gaps = [abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1:]]
                if all(g > 1e-3 for g in gaps):
                    break
            spec = JordanSpec(tuple((complex(lam), 1) for lam in lams)).canonical()
            res = eigenstructure_small(build_jordan(spec))
            assert specs_close(res.spec, spec, tol=1e-8)
            assert not res.approximate

    def test_near_degenerate_flagged(self):
        res = eigenstructure_small(np.diag([1.0, 1.0 + 5e-9, 0.0]))
        assert res.approximate

    def test_order_above_three_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            eigenstructure_small(np.eye(4))

    @pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** -500, 1e-300])
    def test_below_unit_scale_keeps_its_structure(self, scale):
        for spec in (JordanSpec(((3 + 0j, 2),)), JordanSpec(((1 + 0j, 2), (-2 + 0j, 1))),
                     JordanSpec(((1 + 0j, 1), (2 + 0j, 1), (1j, 1)))):
            A = build_jordan(spec) * scale
            want = JordanSpec(tuple((lam * scale, size) for lam, size in spec.blocks))
            assert specs_close(eigenstructure_small(A).spec, want.canonical(), tol=1e-12 * scale)

    def test_parts_past_the_range_of_unit_scale_refused(self):
        # at unit scale the entries -1 and 2 are subnormal, and LAPACK's LU takes a zero
        # pivot: a refusal that names the entries' range, without a warning
        import warnings

        A = np.array([[1e-300 - 5e-324j, -1.7e308 + 1e-300j], [-1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="span too wide a range"):
                eigenstructure_small(A)

    def test_overflowing_discriminant_rescaled(self):
        # 4|det| passes the float range without an exception
        A = np.diag([-2.0, 3.0]) * 2.0 ** 510
        spec = eigenstructure_small(A).spec
        assert spec.blocks == ((3 * 2.0 ** 510 + 0j, 1), (-2 * 2.0 ** 510 + 0j, 1))


class TestIntertwiner:
    @pytest.mark.parametrize("blocks", [
        ((2 + 0j, 1), (-1j, 1)),
        ((1 + 0j, 2), (-0.7 + 0j, 1)),
        ((0j, 2), (0j, 1)),                   # derogatory: the commutant has dimension 5
        ((1 + 0j, 1), (1 + 0j, 1), (2 + 0j, 1)),
        ((1j, 3), (1j, 1), (0.5 + 0j, 2)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transports_a_conjugated_jordan_matrix(self, blocks, seed):
        # B = P J P^-1 with a well-conditioned P: M J = B M with M nonsingular, and
        # equal calls give equal bits
        from apportion.core import inverse_and_rcond
        from apportion.jordan import _intertwiner

        spec = JordanSpec(blocks)
        J = build_jordan(spec)
        P = random_nonsingular(np.random.default_rng(seed), spec.order)
        B = P @ J @ np.linalg.inv(P)
        M = _intertwiner(J, B, spec.blocks, seed)
        Minv, rcond = inverse_and_rcond(M)
        assert rcond > 1e-6
        assert np.abs(M @ J @ Minv - B).max() <= 1e-10 * np.abs(B).max()
        assert np.array_equal(_intertwiner(J, B, spec.blocks, seed), M)

    def test_order_past_the_search_cap_refused_before_it_allocates(self):
        import tracemalloc

        from apportion.jordan import _intertwiner

        A = np.eye(17, dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="exceeds 16"):
                _intertwiner(A, A, ((1 + 0j, 1),) * 17, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # L alone would hold 17^4 complex entries, 1.3 MB
        assert peak < 2**16
