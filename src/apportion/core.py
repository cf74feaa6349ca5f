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

from .errors import InvalidInputError, SingularMatrixError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "UniformityReport",
    "as_matrix",
    "is_uniform",
    "similarity_image",
    "similarity_residual",
    "check_inverse",
    "check_residual",
    "reciprocal_condition",
    "trace_lower_bound",
    "hadamard_lower_bound",
    "unit_exponent",
    "times_power_of_two",
]

#: rcond threshold below which a transforming matrix is treated as singular.
RCOND_THRESHOLD = 1e-12

#: max-norm threshold (scaled by order) for accepting a claimed inverse.
INVERSE_PAIR_TOL = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by uniformity and residual checks; the
    default is purely relative, so A and every multiple cA pass alike."""

    rel: float = 1e-9
    abs: float = 0.0

    def __post_init__(self):
        if not (self.rel >= 0 and self.abs >= 0):
            raise InvalidInputError("tolerances must be nonnegative")
        if self.rel == 0 and self.abs == 0:
            raise InvalidInputError("rel and abs tolerance cannot both be zero")


DEFAULT_TOL = Tolerance()


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
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidInputError(f"{name}: entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def is_uniform(B, tol: Tolerance = DEFAULT_TOL) -> UniformityReport:
    """Check whether all entries of B (rectangular allowed) share one modulus."""
    B = as_matrix(B, name="B")
    mods = np.abs(B)
    # the mean of mods 2^-k times 2^k, with 2^k >= B.size: the sum cannot overflow, and
    # for moduli above about 1e-300 each step is exact, so this is mods.mean() to the bit
    k = (B.size - 1).bit_length()
    kappa = math.ldexp(float((mods * math.ldexp(1.0, -k)).mean()), k)
    defect = float(np.abs(mods - kappa).max())
    return UniformityReport(defect <= max(tol.abs, tol.rel * kappa), kappa, defect)


def reciprocal_condition(M) -> float:
    """Exact 1-norm reciprocal condition number 1 / (||M||_1 ||M^-1||_1).

    Returns 0.0 for a singular M.
    """
    M = as_matrix(M, square=True, name="M")
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return 0.0
    rcond = 1.0 / float(np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1))
    return rcond if math.isfinite(rcond) else 0.0


def check_inverse(M, Minv) -> tuple[bool, float]:
    """Whether Minv inverts M: max|M Minv - I| within the order-scaled tolerance.

    Returns (passed, error).  A non-finite error never passes.
    """
    n = M.shape[0]
    err = float(np.abs(M @ Minv - np.eye(n)).max())
    return err <= n * INVERSE_PAIR_TOL, err


def similarity_residual(B, M, A) -> float:
    """Max-norm of B@M - M@A, the defining residual of B = M A M^-1."""
    return float(np.abs(B @ M - M @ A).max())


def check_residual(B, M, A, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether B = M A M^-1 holds to ``tol``, relative to the order and entry sizes.

    Returns (passed, residual).  A non-finite residual never passes.
    """
    res = similarity_residual(B, M, A)
    mmax = float(np.abs(M).max())
    scale = M.shape[0] * mmax * max(float(np.abs(A).max()), float(np.abs(B).max()))
    return res <= tol.rel * scale + tol.abs, res


def similarity_image(M, A, Minv=None, tol: Tolerance = DEFAULT_TOL):
    """Compute B = M A M^-1 by a linear solve.

    The inverse is never formed unless the caller supplies ``Minv``, in which
    case it is trusted after a product check.  Without ``Minv`` the matrix M
    must have a reciprocal condition number above ``RCOND_THRESHOLD``.
    """
    M = as_matrix(M, square=True, name="M")
    A = as_matrix(A, square=True, name="A")
    if M.shape != A.shape:
        raise InvalidInputError(f"order mismatch: M is {M.shape}, A is {A.shape}")
    if Minv is not None:
        Minv = as_matrix(Minv, square=True, name="Minv")
        if Minv.shape != M.shape:
            raise InvalidInputError("Minv order mismatch")
        ok, err = check_inverse(M, Minv)
        if not ok:
            raise SingularMatrixError(
                f"supplied inverse fails the product check: max|M Minv - I| = {err:.3e}"
            )
        B = (M @ A) @ Minv
    else:
        rcond = reciprocal_condition(M)
        if rcond < RCOND_THRESHOLD:
            raise SingularMatrixError(
                f"M is singular or near-singular (rcond = {rcond:.3e})", rcond=rcond
            )
        # solve B M = M A for B, i.e. M^T B^T = (M A)^T
        B = np.linalg.solve(M.T, (M @ A).T).T
    ok, res = check_residual(B, M, A, tol)
    if not ok:
        raise SingularMatrixError(f"similarity residual too large: {res:.3e}")
    return B


def trace_lower_bound(A) -> float:
    """|tr(A)| / n: every achievable modulus of A is at least this."""
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    return float(abs(np.trace(A))) / n


def hadamard_lower_bound(A) -> float:
    """n^(-1/2) |det(A)|^(1/n), computed in log space; 0 for singular A."""
    A = as_matrix(A, square=True, name="A")
    sign, logdet = np.linalg.slogdet(A)
    if sign == 0:
        return 0.0
    return math.exp(float(logdet) / A.shape[0]) / math.sqrt(A.shape[0])


def unit_exponent(values) -> int:
    """The e that brings the largest real or imaginary part of ``values`` (an array or
    a sequence of complex scalars) into [1, 2) as 2^-e times it; 0 when all vanish.

    K(cA) = |c| K(A), so this one rule decides scale: a caller analyses A 2^-e, exactly,
    and scales its answer back by 2^e."""
    if isinstance(values, np.ndarray):
        top = float(np.maximum(np.abs(values.real), np.abs(values.imag)).max())
    else:
        top = 0.0
        for z in values:
            top = max(top, abs(z.real), abs(z.imag))
    return math.frexp(top)[1] - 1 if top else 0


def times_power_of_two(x, e: int):
    """x 2^e, exact in each real and imaginary part barring underflow, for a
    complex array or a complex scalar."""
    if isinstance(x, np.ndarray):
        return np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e)
    return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
