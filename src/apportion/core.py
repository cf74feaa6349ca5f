"""Dense complex-matrix primitives: uniformity checking, similarity images, and
the two unconditional lower bounds on achievable moduli.

A matrix B is *uniform* when all its entries share one modulus kappa.  A square
matrix A is *apportionable* when some nonsingular M makes M A M^-1 uniform; the
common modulus is then an *apportionment constant* of A.  Everything here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scalar
from .errors import InvalidInputError, SingularMatrixError
from .scalar import DEFAULT_TOL, Tolerance, _exponent_of, floor_bound, modulus

__all__ = [
    "UniformityReport",
    "as_matrix",
    "is_uniform",
    "similarity_image",
    "check_inverse",
    "reciprocal_condition",
    "inverse_and_rcond",
    "trace_lower_bound",
    "hadamard_lower_bound",
    "unit_exponent",
    "times_power_of_two",
]

#: rcond threshold below which a transforming matrix is treated as singular.
RCOND_THRESHOLD = 1e-12

#: max-norm threshold (scaled by order) for accepting a claimed inverse.
INVERSE_PAIR_TOL = 1e-10


#: ``x.max()`` as ``_max(x, None)``: the ufunc reduction without the method's wrapper,
#: which costs more than the work on small matrices
_max = np.maximum.reduce


@dataclass(frozen=True)
class UniformityReport:
    """Outcome of a uniformity check.

    ``kappa`` is the mean entry modulus, ``defect`` the largest deviation
    ``| |b_ij| - kappa |``.  ``is_uniform`` holds when the defect is within
    ``max(tol.abs, tol.rel * kappa)``.
    """

    is_uniform: bool
    kappa: float
    defect: float


def as_matrix(a, *, square=False, name="matrix"):
    """Validate and coerce array-like input to a complex128 2-D ndarray.

    Rejects empty matrices and non-finite entries; demands squareness when
    ``square`` is set.
    """
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name}: cannot interpret as a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(f"{name}: expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name}: entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def is_uniform(B, tol: Tolerance = DEFAULT_TOL) -> UniformityReport:
    """Check whether all entries of B (rectangular allowed) share one modulus."""
    mods = np.abs(as_matrix(B, name="B"))
    # the mean of mods 2^-k times 2^k, with 2^k >= mods.size: the sum cannot overflow, and
    # for moduli above about 1e-300 each step is exact, so this is mods.mean() to the bit
    k = (mods.size - 1).bit_length()
    kappa = math.ldexp(float(np.add.reduce(mods * math.ldexp(1.0, -k), None) / mods.size), k)
    defect = float(_max(np.abs(mods - kappa), None))
    return UniformityReport(defect <= max(tol.abs, tol.rel * kappa), kappa, defect)


def reciprocal_condition(M) -> float:
    """Exact 1-norm reciprocal condition number 1 / (||M||_1 ||M^-1||_1).

    Returns 0.0 for a singular M.
    """
    return inverse_and_rcond(M)[1]


def inverse_and_rcond(M) -> tuple[np.ndarray | None, float]:
    """M^-1 (None for a singular M) and ``reciprocal_condition(M)``, from one inversion of
    M 2^-e at its unit scale (``unit_exponent``), where no norm overflows, scaled back by
    2^-e.  LAPACK's inverse commutes with scaling by a power of two, so in range this is
    numpy's inverse of M to the bit; an entry past the float range is inf."""
    M = as_matrix(M, square=True, name="M")
    e = unit_exponent(M)
    M = times_power_of_two(M, -e)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None, 0.0
    rcond = 1.0 / float(np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1))
    with np.errstate(over="ignore"):
        return times_power_of_two(Minv, -e), (rcond if math.isfinite(rcond) else 0.0)


def _max_modulus(x) -> float:
    """max |x_ij| of an array, as a float."""
    return float(_max(np.abs(x), None))


def check_inverse(M, Minv) -> tuple[bool, float]:
    """Whether Minv inverts M: max|M Minv - I| within the order-scaled tolerance.

    Returns (passed, error).  A non-finite error never passes.
    """
    n = M.shape[0]
    # as complex, M Minv - I is the product with 1 taken off its diagonal, in place
    P = np.asarray(M @ Minv, dtype=complex)
    P.reshape(-1)[:: n + 1] -= 1.0
    err = _max_modulus(P)
    return err <= n * INVERSE_PAIR_TOL, err


def _image(M, A, Minv) -> np.ndarray:
    """M A Minv, the one product that forms or checks an image: taken at A's unit scale
    (A 2^-e, ``unit_exponent``), then scaled back by 2^e exactly."""
    e = unit_exponent(A)
    return M @ (times_power_of_two(A, -e) @ Minv) * 2.0 ** e


def similarity_image(M, A, Minv=None):
    """Compute B = M A M^-1 by ``_image``.

    A supplied ``Minv`` is used after a product check (``check_inverse``).  Else M must
    have rcond above ``RCOND_THRESHOLD``, and B is formed from M 2^-e at its unit scale and
    that matrix's inverse (``inverse_and_rcond``): M A M^-1 is (cM) A (cM)^-1.  An image
    whose entries or moduli leave the float range is InvalidInputError.
    """
    M = as_matrix(M, square=True, name="M")
    A = as_matrix(A, square=True, name="A")
    if M.shape != A.shape:
        raise InvalidInputError(f"order mismatch: M is {M.shape}, A is {A.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if Minv is not None:
            Minv = as_matrix(Minv, square=True, name="Minv")
            if Minv.shape != M.shape:
                raise InvalidInputError("Minv order mismatch")
            ok, err = check_inverse(M, Minv)
            if not ok:
                raise SingularMatrixError(
                    f"supplied inverse fails the product check: max|M Minv - I| = {err:.3e}"
                )
        else:
            M = times_power_of_two(M, -unit_exponent(M))
            Minv, rcond = inverse_and_rcond(M)
            if rcond < RCOND_THRESHOLD:
                raise SingularMatrixError(
                    f"M is singular or near-singular (rcond = {rcond:.3e})", rcond=rcond
                )
        B = _image(M, A, Minv)
        # a complex modulus past the range is inf without a floating-point flag
        if not np.isfinite(np.abs(B)).all():
            raise InvalidInputError("the image M A M^-1 leaves the float range")
    return B


def trace_lower_bound(A) -> float:
    """|tr(A)| / n: every achievable modulus of A is at least this.  The trace is taken
    at unit scale (``unit_exponent``), and the bound by ``modulus`` and ``floor_bound``."""
    A = as_matrix(A, square=True, name="A")
    e = unit_exponent(A)
    return floor_bound(modulus(complex(np.trace(times_power_of_two(A, -e))),
                               over=A.shape[0], scale=e))


def hadamard_lower_bound(A) -> float:
    """n^(-1/2) |det(A)|^(1/n), computed in log space at unit scale and scaled back by
    ``modulus``; 0 for singular A, the largest float past the range (``floor_bound``)."""
    A = as_matrix(A, square=True, name="A")
    e = unit_exponent(A)
    # LAPACK may return a zero pivot for a subnormal one: a logdet of -inf, read as singular
    with np.errstate(divide="ignore", invalid="ignore"):
        sign, logdet = np.linalg.slogdet(times_power_of_two(A, -e))
    if sign == 0 or not math.isfinite(logdet):
        return 0.0
    return floor_bound(modulus(math.exp(float(logdet) / A.shape[0]),
                               over=math.sqrt(A.shape[0]), scale=e))


def unit_exponent(values) -> int:
    """``scalar.unit_exponent`` extended to arrays: the e that brings the largest real or
    imaginary part of an array, or of a sequence of complex scalars, into [1, 2) as 2^-e
    times it; 0 when all vanish."""
    if not isinstance(values, np.ndarray):
        return scalar.unit_exponent(values)
    return _exponent_of(float(_max(np.maximum(np.abs(values.real), np.abs(values.imag)), None)))


def times_power_of_two(x, e: int):
    """``scalar.times_power_of_two`` extended to arrays: x 2^e, exact in each real and
    imaginary part barring underflow, for a complex array or a complex scalar."""
    if not isinstance(x, np.ndarray):
        return scalar.times_power_of_two(x, e)
    z = np.ascontiguousarray(x, dtype=complex)   # one ldexp over the real and imaginary parts
    return np.ldexp(z.reshape(-1).view(np.float64), e).view(complex).reshape(z.shape)
