import ast
import cmath
import importlib
import math
import os
import pathlib
import pkgutil
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

    @pytest.mark.parametrize("rel, abs_", [(math.inf, 0.0), (2.0, 0.0), (1.0, 0.0),
                                           (1e-9, math.inf), (math.nan, 0.0),
                                           (1e-9, math.nan), (-1e-9, 0.0)])
    def test_loose_tolerance_refused(self, rel, abs_):
        # at rel >= 1 a zero entry passes: diag(1, 2) would read as uniform
        with pytest.raises(InvalidInputError):
            Tolerance(rel=rel, abs=abs_)

    def test_largest_relative_tolerance_still_refuses_a_zero_entry(self):
        rep = is_uniform(np.diag([1.0, 2.0]), Tolerance(rel=math.nextafter(1.0, 0.0)))
        assert not rep.is_uniform

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


def _reference_as_matrix(a, *, square=False, name="matrix"):
    """``as_matrix`` as it read before its checks were trimmed: the behaviour to keep."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name}: cannot interpret as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(f"{name}: expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidInputError(f"{name}: entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def _reference_is_uniform(B, tol):
    mods = np.abs(B)
    k = (B.size - 1).bit_length()
    kappa = math.ldexp(float((mods * math.ldexp(1.0, -k)).mean()), k)
    defect = float(np.abs(mods - kappa).max())
    return defect <= max(tol.abs, tol.rel * kappa), kappa, defect


def _reference_check_inverse(M, Minv):
    n = M.shape[0]
    err = float(np.abs(M @ Minv - np.eye(n)).max())
    return err <= n * 1e-10, err


def _scaled(rng, shape, lo, hi):
    """Complex entries whose real and imaginary parts sit at scales 2^k, k in [lo, hi]."""
    re, im = (np.ldexp(rng.standard_normal(shape), rng.integers(lo, hi + 1, shape))
              for _ in range(2))
    return re + 1j * im


class TestChecksMatchReference:
    """The checks give the very bits of their plain numpy expressions."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1),
           st.integers(-60, 60), st.integers(0, 120), st.booleans())
    def test_checks_equal_reference_expressions(self, n, cols, seed, lo, spread, uniform):
        from apportion.core import check_inverse

        rng = np.random.default_rng(seed)
        hi = min(lo + spread, 60)
        if uniform:  # entries of one modulus 2^lo: the flag is decided by the defect
            B = np.ldexp(1.0, lo) * np.exp(2j * np.pi * rng.random((n, cols)))
        else:
            B = _scaled(rng, (n, cols), lo, hi)
        for tol in (Tolerance(), TOL, Tolerance(rel=1e-3, abs=0.0)):
            rep = is_uniform(B, tol)
            assert (rep.is_uniform, rep.kappa, rep.defect) == _reference_is_uniform(B, tol)
        assert rep.kappa == float(np.abs(B).mean())

        M = _scaled(rng, (n, n), lo, hi)
        Minv = np.linalg.inv(M)
        for inverse in (Minv, Minv + _scaled(rng, (n, n), lo - 40, hi - 40)):
            assert check_inverse(M, inverse) == _reference_check_inverse(M, inverse)

    @pytest.mark.parametrize("value, square", [
        ([[np.nan, 1.0], [0.0, 1.0]], False), ([[np.inf, 1.0], [0.0, 1.0]], True),
        ([[complex(1, np.nan), 1.0], [0.0, 1.0]], False),
        ([[complex(1, -np.inf), 1.0], [0.0, 1.0]], True),
        ([[complex(np.nan, 0.0)]], False), ([[complex(0.0, np.inf)]], True),
        ([1.0, 2.0, 3.0], False), (np.ones(3), True),
        ([], False), (np.zeros((0, 0)), True), (np.zeros((2, 0)), False),
        ([[1.0, 2.0], [3.0]], False), ([[1.0], [2.0, 3.0]], True), ("ab", False),
        (np.ones((2, 3)), True), ([[1.0, 2.0]], True),
    ])
    def test_as_matrix_refusals_unchanged(self, value, square):
        from apportion.core import as_matrix

        with pytest.raises(InvalidInputError) as expected:
            _reference_as_matrix(value, square=square, name="A")
        with pytest.raises(InvalidInputError) as got:
            as_matrix(value, square=square, name="A")
        assert str(got.value) == str(expected.value)


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


class TestModulus:
    def test_matches_abs_to_the_bit_in_range(self):
        # seeded z with parts from 1e-290 to 1e290: |z|/d, x |z| and x/|z| at unit scale are
        # the plain quotients and products, bit for bit
        import random

        from apportion.core import modulus

        rng = random.Random(29)
        for _ in range(20_000):
            z = complex(*(rng.choice((-1, 1)) * 10 ** rng.uniform(-290, 290) for _ in "ri"))
            x = 10 ** rng.uniform(-10, 10)
            for d in (1.0, 2.0, 3.0, math.sqrt(3.0), float(rng.randint(4, 256))):
                assert modulus(z, over=d) == abs(z) / d
            assert modulus(z, times=x) == x * abs(z)
            assert modulus(z, dividing=x) == x / abs(z)
            w = z * rng.uniform(0.1, 2.0)
            assert modulus(z, w) == max(abs(z), abs(w))

    def test_past_the_float_range(self):
        from apportion.core import floor_bound, modulus

        huge = 1.7e308 + 1.7e308j           # |huge| = 2.4e308
        assert modulus(huge) == modulus(huge, times=2.0) == math.inf
        assert modulus(huge, over=2.0) == pytest.approx(1.2020815280171307e308, rel=1e-15)
        assert modulus(huge, dividing=1e300) == pytest.approx(1e-8 / 2.4041630560342617, rel=1e-15)
        assert modulus(5e-324, dividing=1.0) == math.inf
        assert modulus(1.5, scale=1024) == math.inf and modulus(1.0, scale=-1080) == 0.0
        largest = 1.7976931348623157e308
        assert floor_bound(math.inf) == floor_bound(largest) == largest


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

    def test_inverted_at_unit_scale(self):
        # M = 1e308 (1 + i) R(pi/8): the image of diag(1, -1) is that under R(pi/8),
        # uniform at 1/sqrt(2), though the norms of M at its own scale overflow
        import warnings

        t = math.pi / 8
        R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        A = np.diag([1.0, -1.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            B = similarity_image(1e308 * (1 + 1j) * R, A)
            assert np.abs(B - similarity_image(R, A)).max() <= 1e-15
            assert reciprocal_condition(1e308 * (1 + 1j) * R) == pytest.approx(
                reciprocal_condition(R), rel=1e-15)

    def test_image_past_the_float_range_refused(self):
        import warnings

        A = np.array([[1e-300 + 1.7e308j, -5e-324 + 1.7e308j],
                      [1.7e308j, -1.7e308 + 5e-324j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="leaves the float range"):
                similarity_image(np.array([[1.0, 0.5], [0.0, 1.0]]), A)
            # entries in range whose moduli are not
            with pytest.raises(InvalidInputError, match="leaves the float range"):
                similarity_image(np.eye(2), np.full((2, 2), 1.7e308 + 1.7e308j))

    def test_inverse_bits_commute_with_unit_scale(self):
        from apportion.core import inverse_and_rcond

        rng = np.random.default_rng(30)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            M = _scaled(rng, (n, n), -200, 200)
            Minv, _ = inverse_and_rcond(M)
            assert Minv.tobytes() == np.linalg.inv(M).tobytes()


class TestHadamardAtTheFloatRangeEnds:
    def test_zero_unit_scale_pivot_is_a_zero_bound(self):
        # at unit scale the entries -1 and 2 are subnormal and LAPACK's LU takes a zero
        # pivot: the bound is 0, a valid floor, without a warning
        import warnings

        A = np.array([[1e-300 - 5e-324j, -1.7e308 + 1e-300j], [-1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hadamard_lower_bound(A) == 0.0


class TestReciprocalCondition:
    def test_exact_one_norm_value(self):
        assert reciprocal_condition(np.diag([1.0, 1e-3])) == pytest.approx(1e-3, rel=1e-14)
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(np.linalg.inv(M), 1))
        assert reciprocal_condition(M) == pytest.approx(expected, rel=1e-14)

    def test_singular_is_zero(self):
        assert reciprocal_condition(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0
        assert reciprocal_condition(np.zeros((3, 3))) == 0.0

    def test_read_at_unit_scale(self):
        # the inverse of 5e-324 I and the norms of 1e308 R overflow at their own scale
        import warnings

        R = np.array([[3.0, -4.0], [4.0, 3.0]]) / 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reciprocal_condition(5e-324 * np.eye(2)) == 1.0
            assert reciprocal_condition(2.0 ** 1023 * R) == reciprocal_condition(R)


def _child_stdout(code: str) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter that imports this package."""
    import apportion

    src = os.path.dirname(os.path.dirname(apportion.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.strip()


def test_import_loads_numpy_only():
    assert _child_stdout("import sys, apportion; print('scipy' in sys.modules)") == "False"


def test_search_module_loads_on_first_access():
    code = (
        "import sys, apportion, apportion.cli\n"
        "print('apportion.search' in sys.modules)\n"
        "print(set(apportion.__all__) <= set(dir(apportion)), 'search' in dir(apportion))\n"
        "f = apportion.find_apportioning\n"
        "print(f is apportion.search.find_apportioning is sys.modules['apportion.search']"
        ".find_apportioning)\n"
    )
    assert _child_stdout(code).split() == ["False", "True", "True", "True"]


def test_theory_layer_loads_no_numpy():
    # the numeric names resolve on first access, each to its module's own object
    code = (
        "import sys, apportion, apportion.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])\n"
        "f = apportion.build_jordan\n"
        "print(f is apportion.jordan.build_jordan is sys.modules['apportion.jordan']"
        ".build_jordan, 'numpy' in sys.modules, 'jordan' in dir(apportion))\n"
    )
    assert _child_stdout(code).split("\n") == ["[]", "True True True"]


def test_star_import_binds_all():
    code = (
        "import apportion\n"
        "from apportion import *\n"
        "print([name for name in apportion.__all__ if name not in globals()])\n"
        "print(SearchConfig is apportion.search.SearchConfig)\n"
    )
    assert _child_stdout(code).split("\n") == ["[]", "True"]


def test_each_name_has_one_home():
    # ``apportion.__all__`` and ``_NUMERIC`` list each name once, and each module's
    # ``__all__`` and ``_NUMERIC`` entry name only what that module itself defines
    import apportion

    numeric = [name for names in apportion._NUMERIC.values() for name in names]
    assert len(numeric) == len(set(numeric))
    assert len(apportion.__all__) == len(set(apportion.__all__))
    for info in pkgutil.iter_modules(apportion.__path__):
        module = importlib.import_module("apportion." + info.name)
        defined = set()
        for node in ast.parse(pathlib.Path(module.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        listed = set(getattr(module, "__all__", ()))
        listed |= set(apportion._NUMERIC.get(info.name, ()))
        assert listed <= defined, f"apportion.{info.name} lists {sorted(listed - defined)}"


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

    def test_near_float_range_without_warnings(self):
        # the trace of diag(1e308, 1e308) overflows; both bounds are taken at unit scale
        import warnings

        A = np.diag([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trace_lower_bound(A) == 1e308
            assert hadamard_lower_bound(A) == pytest.approx(1e308 / np.sqrt(2), rel=1e-15)

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
