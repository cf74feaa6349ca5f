"""Independent checks of apportion's outputs, from the paper's statements.

Uses numpy and the standard library only and imports nothing from
``apportion``, so a fault in the package cannot hide itself by being shared
with its checker.

* ``jordan_matrix`` rebuilds A from a block list ``[(eigenvalue, size), ...]``.
* ``check_certificate`` re-verifies a certificate (M, Minv, B, kappa) for A:
  inverse product, relative similarity residual B M - M A, relative spread of
  the entry moduli of B, kappa against the modulus of B and against the
  requested value, and the unconditional lower bound
  kappa >= max(|tr A| / n, |det A|^(1/n) / sqrt(n)).
* ``paper_verdict`` gives the verdict the paper proves for nilpotent matrices,
  matrices of rank <= n/2, nonzero scalar matrices and every matrix of
  order 2 (through the gamma test), and None for everything else.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

APPORTIONABLE = "Apportionable"
NOT_APPORTIONABLE = "NotApportionable"

#: order-2 points whose gamma lies closer than this to the boundary of the
#: admissible region get no verdict (see ``gamma_test``)
BOUNDARY_MARGIN = 1e-6

INVERSE_ATOL = 1e-8
RESIDUAL_RTOL = 1e-8
SPREAD_RTOL = 1e-8
KAPPA_RTOL = 1e-9


def jordan_matrix(blocks) -> np.ndarray:
    """The direct sum of Jordan blocks J_size(eigenvalue), in the given order."""
    n = sum(size for _, size in blocks)
    A = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            A[pos + i, pos + i] = lam
            if i + 1 < size:
                A[pos + i, pos + i + 1] = 1.0
        pos += size
    return A


def trace_bound(A) -> float:
    """|tr A| / n."""
    A = np.asarray(A, dtype=complex)
    return abs(complex(np.trace(A))) / A.shape[0]


def det_bound(A) -> float:
    """|det A|^(1/n) / sqrt(n), through the log-determinant; 0 when singular."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    sign, logdet = np.linalg.slogdet(A)
    return 0.0 if sign == 0 else math.exp(float(logdet) / n) / math.sqrt(n)


def lower_bound(A) -> float:
    """max(trace bound, determinant bound): no constant of A lies below it."""
    return max(trace_bound(A), det_bound(A))


def check_certificate(A, M, Minv, B, kappa, requested=None,
                      spread_rtol=SPREAD_RTOL) -> list[str]:
    """Problems found with a claimed certificate B = M A M^-1, |B_ij| = kappa.

    An empty list means the certificate holds.  Every comparison is written
    so that a NaN anywhere fails it.
    """
    A = np.asarray(A, dtype=complex)
    M = np.asarray(M, dtype=complex)
    Minv = np.asarray(Minv, dtype=complex)
    B = np.asarray(B, dtype=complex)
    n = A.shape[0]
    if not (M.shape == Minv.shape == B.shape == A.shape == (n, n)):
        return [f"shape mismatch: A {A.shape}, M {M.shape}, Minv {Minv.shape}, B {B.shape}"]
    problems = []
    for name, X in (("M", M), ("Minv", Minv), ("B", B)):
        if not np.all(np.isfinite(X)):
            problems.append(f"{name} has non-finite entries")
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa >= 0.0):
        problems.append(f"kappa = {kappa!r} is not a finite nonnegative number")
    if problems:
        return problems

    inv_err = float(np.abs(M @ Minv - np.eye(n)).max())
    if not inv_err <= INVERSE_ATOL:
        problems.append(f"max|M Minv - I| = {inv_err:.3e}")
    scale = float(np.abs(M).max()) * max(float(np.abs(A).max()), float(np.abs(B).max()))
    res = float(np.abs(B @ M - M @ A).max())
    if not res <= RESIDUAL_RTOL * scale:
        problems.append(f"max|B M - M A| = {res:.3e} against scale {scale:.3e}")
    mods = np.abs(B)
    spread = float(mods.max() - mods.min())
    if not spread <= spread_rtol * kappa:
        problems.append(f"modulus spread {spread:.3e} against kappa {kappa:.6g}")
    if not abs(float(mods.mean()) - kappa) <= spread_rtol * kappa:
        problems.append(f"mean modulus {float(mods.mean())!r} is not kappa {kappa!r}")
    if requested is not None and not abs(kappa - requested) <= KAPPA_RTOL * requested:
        problems.append(f"kappa {kappa!r} is not the requested {requested!r}")
    bound = lower_bound(A)
    if not kappa >= bound * (1.0 - KAPPA_RTOL):
        problems.append(f"kappa {kappa!r} is below the lower bound {bound!r}")
    return problems


def gamma_test(l1: complex, l2: complex) -> tuple[bool, float]:
    """The paper's order-2 test for diag(l1, l2), distinct nonzero eigenvalues.

    With gamma = (l2 + l1) / (l2 - l1) the matrix is apportionable exactly
    when gamma = 0, or when Re(gamma^2) < |gamma|^4 <= 1.  Writing
    gamma = |gamma| e^(i phi), the conditions read cos(2 phi) < |gamma|^2 and
    |gamma|^2 <= 1.  Returns (admissible, margin), the margin being the
    distance of |gamma|^2 from the nearer of cos(2 phi) and 1.
    """
    l1, l2 = complex(l1), complex(l2)
    gamma = (l2 + l1) / (l2 - l1)
    if gamma == 0:
        return True, math.inf
    g2 = abs(gamma) ** 2
    c = math.cos(2.0 * cmath.phase(gamma))
    return (c < g2 <= 1.0), min(abs(g2 - c), abs(1.0 - g2))


def paper_verdict(blocks):
    """Verdict the paper proves for a block list, or None where it is silent.

    Covered: the zero matrix and every nilpotent matrix, order one, every
    matrix of rank <= n/2 (apportionable); nonzero scalar matrices of order
    >= 2 (not apportionable); all of order 2, where a repeated nonzero
    eigenvalue is not apportionable and distinct nonzero eigenvalues are
    decided by ``gamma_test`` unless gamma lies within ``BOUNDARY_MARGIN`` of
    the boundary.
    """
    blocks = [(complex(lam), int(size)) for lam, size in blocks]
    n = sum(size for _, size in blocks)
    rank = n - sum(1 for lam, _ in blocks if lam == 0)
    nilpotent = all(lam == 0 for lam, _ in blocks)
    if n == 1 or nilpotent or 2 * rank <= n:
        return APPORTIONABLE
    lams = {lam for lam, _ in blocks}
    if len(lams) == 1 and all(size == 1 for _, size in blocks):
        return NOT_APPORTIONABLE
    if n == 2:
        if len(blocks) == 1:
            return NOT_APPORTIONABLE
        admissible, gap = gamma_test(blocks[0][0], blocks[1][0])
        if gap < BOUNDARY_MARGIN:
            return None
        return APPORTIONABLE if admissible else NOT_APPORTIONABLE
    return None


def check_verdict(blocks, verdict: str):
    """A problem string when ``verdict`` contradicts the paper, else None."""
    expected = paper_verdict(blocks)
    if expected is not None and verdict != expected:
        return f"verdict {verdict} for {blocks}; the paper proves {expected}"
    return None
