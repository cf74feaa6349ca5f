import cmath
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion import (
    InvalidInputError,
    SingularMatrixError,
    Tolerance,
    hadamard_lower_bound,
    is_uniform,
    reciprocal_condition,
    similarity_image,
    trace_lower_bound,
)

from helpers import GOLDEN_5X5_IMAGE, random_nonsingular

TOL = Tolerance(rel=1e-12, abs=1e-12)


class TestIsUniform:
    def test_zero_matrix(self):
        rep = is_uniform(np.zeros((3, 3)), TOL)
        assert rep.is_uniform and rep.kappa == 0.0

    def test_unit_modulus_entries(self):
        B = np.array([[1, -1], [1j, -1j]])
        rep = is_uniform(B, TOL)
        assert rep.is_uniform
        assert rep.kappa == pytest.approx(1.0, abs=1e-15)

    def test_golden_5x5_image(self):
        rep = is_uniform(GOLDEN_5X5_IMAGE, TOL)
        assert rep.is_uniform
        assert rep.kappa == pytest.approx(1 / np.sqrt(3), abs=1e-14)

    def test_rectangular_allowed(self):
        rep = is_uniform(np.ones((2, 3)))
        assert rep.is_uniform and rep.kappa == 1.0

    def test_non_uniform(self):
        rep = is_uniform(np.diag([1.0, 1.0]))
        assert not rep.is_uniform
        assert rep.defect == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            is_uniform(np.zeros((0, 0)))

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            is_uniform(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_invariant_under_unit_scalar(self, phase):
        B = np.array([[1, -1], [1j, 2.0]])
        rep0 = is_uniform(B)
        rep1 = is_uniform(cmath.exp(1j * phase) * B)
        assert rep0.is_uniform == rep1.is_uniform
        assert rep1.kappa == pytest.approx(rep0.kappa, rel=1e-12)
        assert rep1.defect == pytest.approx(rep0.defect, rel=1e-9, abs=1e-12)

    def test_mean_does_not_overflow(self):
        rep = is_uniform([[1e308, 1e300], [1e308, 1e308]])
        assert not rep.is_uniform
        assert rep.kappa == pytest.approx(0.75e308 + 0.25e300, rel=1e-15)

    def test_default_has_no_absolute_floor(self):
        from apportion import DEFAULT_TOL

        assert DEFAULT_TOL.abs == 0.0
        assert not is_uniform([[1e-13, 0], [0, 0]]).is_uniform

    def test_mean_is_numpy_mean_to_the_bit(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 1), (2, 2), (3, 5), (16, 16)):
            for scale in (1e-290, 1e-9, 1.0, 1e9, 1e290):
                B = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                assert is_uniform(B).kappa == float(np.abs(B).mean())


class TestUnitExponent:
    @pytest.mark.parametrize("values, e", [
        (np.array([[1.0]]), 0), (np.array([[1.999, -0.5]]), 0), (np.array([[2.0]]), 1),
        (np.array([[0.5j, 0.25]]), -1), (np.array([[-3 + 0.1j]]), 1), (np.zeros((2, 2)), 0),
        ((1e-300, -1e-300j), -997), ((5e-324,), -1074), ((1.7e308 + 0j,), 1023),
    ])
    def test_brings_the_largest_part_into_one_two(self, values, e):
        from apportion.core import times_power_of_two, unit_exponent

        assert unit_exponent(values) == e
        scaled = times_power_of_two(np.asarray(values, dtype=complex), -e)
        top = np.maximum(np.abs(scaled.real), np.abs(scaled.imag)).max()
        assert top == 0.0 or 1.0 <= top < 2.0
        # scalars scale as the array does, and exactly
        for z, zs in zip(np.ravel(values), scaled.ravel()):
            assert times_power_of_two(complex(z), -e) == zs
            assert times_power_of_two(zs, e) == z


class TestResidualIsRelative:
    def test_zero_image_of_a_small_matrix_refused(self):
        from apportion.core import check_residual

        A = np.diag([1e-10, 2e-10]).astype(complex)
        ok, res = check_residual(np.zeros((2, 2)), np.eye(2), A)
        assert not ok and res == 2e-10


class TestSimilarityImage:
    def test_identity(self):
        A = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(similarity_image(np.eye(2), A), A, atol=1e-14)

    def test_diagonal_scaling(self):
        M = np.diag([1.0, 2.0])
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        B = similarity_image(M, A)
        assert np.allclose(B, [[0, 0.5], [0, 0]], atol=1e-15)

    def test_golden_5x5(self):
        from helpers import GOLDEN_5X5_M

        A = np.zeros((5, 5), dtype=complex)
        A[0, 1] = A[1, 2] = A[3, 4] = 1.0
        B = similarity_image(GOLDEN_5X5_M, A)
        assert np.abs(B - GOLDEN_5X5_IMAGE).max() < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError) as err:
            similarity_image(np.array([[1, 2], [2, 4]], dtype=complex), np.eye(2))
        assert err.value.rcond is not None

    def test_supplied_inverse_used(self):
        rng = np.random.default_rng(0)
        M = random_nonsingular(rng, 4)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B1 = similarity_image(M, A)
        B2 = similarity_image(M, A, Minv=np.linalg.inv(M))
        assert np.abs(B1 - B2).max() < 1e-10

    def test_supplied_inverse_checked(self):
        with pytest.raises(SingularMatrixError):
            similarity_image(np.eye(2), np.eye(2), Minv=2 * np.eye(2))

    def test_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M1 = random_nonsingular(rng, n)
            M2 = random_nonsingular(rng, n)
            direct = similarity_image(M2 @ M1, A)
            nested = similarity_image(M2, similarity_image(M1, A))
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(direct - nested).max() < 1e-9 * scale

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            similarity_image(np.eye(2), np.eye(3))


class TestReciprocalCondition:
    def test_exact_one_norm_value(self):
        assert reciprocal_condition(np.diag([1.0, 1e-3])) == pytest.approx(1e-3, rel=1e-14)
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(np.linalg.inv(M), 1))
        assert reciprocal_condition(M) == pytest.approx(expected, rel=1e-14)

    def test_singular_is_zero(self):
        assert reciprocal_condition(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0
        assert reciprocal_condition(np.zeros((3, 3))) == 0.0


def test_import_loads_numpy_only():
    import apportion

    src = os.path.dirname(os.path.dirname(apportion.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, apportion; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "False"


class TestBounds:
    def test_trace_zero_matrix(self):
        assert trace_lower_bound(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_trace_identity_plus_zeros(self, n):
        A = np.zeros((2 * n, 2 * n), dtype=complex)
        A[:n, :n] = np.eye(n)
        assert trace_lower_bound(A) == pytest.approx(0.5, abs=1e-15)

    def test_trace_diag(self):
        assert trace_lower_bound(np.diag([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_hadamard_singular(self):
        assert hadamard_lower_bound(np.diag([1.0, 0.0])) == 0.0

    @pytest.mark.parametrize("lam", [1.0, 2.5, 0.3 + 0.4j])
    def test_hadamard_opposite_pair(self, lam):
        A = np.diag([lam, -lam])
        assert hadamard_lower_bound(A) == pytest.approx(abs(lam) / np.sqrt(2), rel=1e-13)

    def test_hadamard_identity_3(self):
        assert hadamard_lower_bound(np.eye(3)) == pytest.approx(1 / np.sqrt(3), rel=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            trace_lower_bound(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            hadamard_lower_bound(np.ones((2, 3)))


class TestComplexSquareIdentity:
    """|z1-z2|^2 - |z3-z2|^2 splits into moduli and cross terms; fuzzed."""

    def test_vectorized_fuzz(self):
        rng = np.random.default_rng(11)
        z1, z2, z3 = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
                      for _ in range(3))
        lhs = (np.abs(z1 - z2) ** 2 - np.abs(z3 - z2) ** 2) / 2
        rhs = ((np.abs(z1) ** 2 - np.abs(z3) ** 2) / 2
               - (z1 * z2.conjugate()).real + (z3 * z2.conjugate()).real)
        scale = np.maximum.reduce([np.ones_like(lhs), np.abs(z1) ** 2,
                                   np.abs(z2) ** 2, np.abs(z3) ** 2])
        assert (np.abs(lhs - rhs) / scale).max() < 5e-15

    @settings(max_examples=100, deadline=None)
    @given(*(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
             for _ in range(3)))
    def test_hypothesis_triples(self, z1, z2, z3):
        lhs = (abs(z1 - z2) ** 2 - abs(z3 - z2) ** 2) / 2
        rhs = ((abs(z1) ** 2 - abs(z3) ** 2) / 2
               - (z1 * z2.conjugate()).real + (z3 * z2.conjugate()).real)
        scale = max(1.0, abs(z1) ** 2, abs(z2) ** 2, abs(z3) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * scale
