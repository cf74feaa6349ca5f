"""Jordan matrices as arrays: construction, diagonal rescaling, inverse-pair completion,
and closed-form eigenstructure recovery for raw entries of orders up to 3.  The block
list itself, ``JordanSpec``, is ``spec``'s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (INVERSE_PAIR_TOL, _max_modulus, as_matrix, check_inverse,
                   times_power_of_two, unit_exponent)
from .errors import InvalidInputError, SingularMatrixError, UnsupportedOrderError
from .spec import JordanSpec

__all__ = [
    "JordanSpec",
    "InversePair",
    "EigenResult",
    "build_jordan",
    "scale_jordan",
    "complete_inverse_pair",
    "eigenstructure_2x2",
    "eigenstructure_small",
    "parse_jordan_arrangement",
    "input_ordered_spec",
]

#: relative gap below which two computed eigenvalues are grouped together
GROUPING_RTOL = 1e-9
#: largest order whose dense matrix ``build_jordan`` assembles, as the search caps its
#: order at MAX_SEARCH_ORDER: ``apportion`` on one block of this order takes about 0.65 s
#: on a 2-CPU Xeon virtual machine, 0.03 s of it to build the certificate (the inverse is
#: placed by index) and the rest to start, check and print
MAX_DENSE_ORDER = 256


@dataclass(frozen=True)
class InversePair:
    """A nonsingular matrix together with its verified inverse."""

    M: np.ndarray
    Minv: np.ndarray

    def __post_init__(self):
        ok, err = check_inverse(self.M, self.Minv)
        if not ok:
            raise SingularMatrixError(f"inverse pair product check failed: {err:.3e}")


@dataclass(frozen=True)
class EigenResult:
    """Recovered Jordan structure plus a flag for near-degenerate spectra."""

    spec: JordanSpec
    approximate: bool


def build_jordan(spec: JordanSpec) -> np.ndarray:
    """Assemble the block-diagonal Jordan matrix described by ``spec``, of order at most
    MAX_DENSE_ORDER."""
    n = spec.order
    if n > MAX_DENSE_ORDER:
        raise InvalidInputError(
            f"order {n} exceeds {MAX_DENSE_ORDER}, the largest dense matrix built")
    J = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, size in spec.blocks:
        for i in range(size):
            J[pos + i, pos + i] = lam
            if i + 1 < size:
                J[pos + i, pos + i + 1] = 1.0
        pos += size
    return J


def geometric_diagonal(spec: JordanSpec, factor: complex) -> np.ndarray:
    """Per-block geometric diagonal (1, f, f^2, ...) restarting at each block.

    With S = diag(of this), S (f * J) S^-1 is again in Jordan form.  Restarting
    per block keeps the entry spread down to factor^(max block size - 1).
    """
    out = np.empty(spec.order, dtype=complex)
    pos = 0
    for _, size in spec.blocks:
        out[pos] = 1.0
        for i in range(1, size):
            out[pos + i] = out[pos + i - 1] * factor
        pos += size
    return out


def _block_rows(spec: JordanSpec, new_order: list[int]) -> list[int]:
    """For each row of the Jordan matrix with the blocks in ``new_order``, the row of
    ``spec``'s Jordan matrix it comes from: J_new = J[rows][:, rows]."""
    starts = [0]
    for _, size in spec.blocks:
        starts.append(starts[-1] + size)
    return [row for i in new_order for row in range(starts[i], starts[i + 1])]


def block_permutation(spec: JordanSpec, new_order: list[int]) -> tuple[JordanSpec, np.ndarray]:
    """Reorder blocks; returns (reordered spec, Q) with J_new = Q J_old Q^T."""
    if sorted(new_order) != list(range(len(spec.blocks))):
        raise InvalidInputError("new_order must be a permutation of the block indices")
    Q = np.eye(spec.order)[_block_rows(spec, new_order)]
    return JordanSpec(tuple(spec.blocks[i] for i in new_order)), Q


def scale_jordan(spec: JordanSpec, lam: complex) -> tuple[JordanSpec, np.ndarray]:
    """Eigenvalue scaling of a Jordan matrix by a nonzero scalar.

    Returns the scaled spec together with S = diag(1, lam, ..., lam^(n-1)),
    which satisfies S (lam * J) S^-1 = J_scaled.  A lam with a power in S that is
    zero or not finite, or with an entry of S (lam * J) that is not finite, is refused.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidInputError("scaling factor must be nonzero")
    scaled = spec.scaled(lam)
    n = spec.order
    # out of float range, a power or a product turns inf or NaN and is refused here
    with np.errstate(over="ignore", invalid="ignore"):
        powers = lam ** np.arange(n).astype(complex)
        S = np.diag(powers)
        ok = (np.all(np.isfinite(powers) & (powers != 0))
              and np.isfinite(S @ (lam * build_jordan(spec))).all())
    if not ok:
        raise InvalidInputError(
            "scaling verification failed; |lam| too extreme for this order"
        )
    return scaled, S


def complete_inverse_pair(U, V) -> InversePair:
    """Extend U (n x m) and V (m x n) with V U = I_m to a full inverse pair.

    The appended columns U' form an orthonormal basis of null(V), read off the
    trailing right singular vectors of V; the appended rows V' are the matching
    rows of the inverse, so that ``[V; V'] [U | U'] = I`` exactly as block
    identities.
    """
    U = as_matrix(U, name="U")
    V = as_matrix(V, name="V")
    n, m = U.shape
    if V.shape != (m, n):
        raise InvalidInputError(f"V must be {m}x{n}, got {V.shape}")
    if not m < n:
        raise InvalidInputError("U must be a strict column block (m < n)")
    err = float(np.abs(V @ U - np.eye(m)).max())
    if err > INVERSE_PAIR_TOL:
        raise InvalidInputError(f"precondition V U = I violated: max deviation {err:.3e}")
    _, sv, Vh = np.linalg.svd(V)
    # reciprocal condition of the Gram matrix V V^H
    rc = (sv[-1] / sv[0]) ** 2 if sv[0] > 0 else 0.0
    if rc < 1e-13:
        raise SingularMatrixError("V is rank deficient; completion impossible", rcond=rc)
    M = np.hstack([U, Vh[m:].conj().T])
    return InversePair(M=M, Minv=_inverse_below(M, V))


def _inverse_below(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M^-1 when its first rows V are known (V M = [I | O]): the remaining rows,
    [O | I] M^-1, by one solve."""
    n = M.shape[0]
    return np.vstack([V, np.linalg.solve(M.T, np.eye(n, dtype=complex)[:, len(V):]).T])


#: |disc| below this (scaled) marks an algebraically multiple root
_MULTIPLE_RTOL = 1e-12


def parse_jordan_arrangement(A, rtol: float = 1e-12):
    """Read off the block list of a matrix already in Jordan form, or None.

    The block order of the input is preserved (no canonicalization), so a
    certificate built from the result applies to the input matrix itself.
    A superdiagonal entry is compared with 1 at ``rtol``; every other entry is
    read on A 2^-e at unit scale (``core.unit_exponent``), where no difference
    overflows, at ``rtol`` times max|A 2^-e|; anything that is not numerically a
    Jordan arrangement returns None.
    """
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    U = times_power_of_two(A, -unit_exponent(A))
    tol = rtol * _max_modulus(U)
    R = U.copy()    # U less J 2^-e, without J's superdiagonal ones, which are compared with 1
    blocks = []
    i = 0
    while i < n:
        lam = U[i, i]
        R[i, i] = 0.0
        size = 1
        while (i + size < n
               and abs(A[i + size - 1, i + size] - 1.0) <= rtol
               and abs(U[i + size, i + size] - lam) <= tol):
            R[i + size - 1, i + size] = 0.0
            R[i + size, i + size] -= lam
            size += 1
        blocks.append((complex(A[i, i]), size))
        i += size
    return JordanSpec(tuple(blocks)) if _max_modulus(R) <= tol else None


def _raw_matrix(A) -> np.ndarray:
    """Raw entries as a square matrix, refused above order 3, where the closed-form
    eigenstructure ends: every reader of raw entries checks their order here."""
    A = as_matrix(A, square=True, name="A")
    if A.shape[0] > 3:
        raise UnsupportedOrderError(
            "raw-entry input is limited to order 3; supply a Jordan block list")
    return A


def _arranged_spec(A) -> JordanSpec:
    """``parse_jordan_arrangement`` of raw entries, refused when they are not numerically
    in Jordan-block arrangement: recovering a transforming basis for conjugated raw input
    is out of scope, so no certificate can be expressed for it directly."""
    parsed = parse_jordan_arrangement(_raw_matrix(A))
    if parsed is None:
        raise InvalidInputError(
            "raw entries are not in Jordan-block arrangement; supply a Jordan "
            "block list to get a certificate for this matrix"
        )
    return parsed


def input_ordered_spec(A) -> JordanSpec:
    """Block list of a Jordan-arranged matrix (``_arranged_spec``), in input order, with
    eigenvalues snapped onto the multiplicity-cluster representatives of
    ``eigenstructure_small``, at its grouping tolerance relative to 2^e below unit scale.
    """
    A = _raw_matrix(A)
    parsed = _arranged_spec(A)
    reps = {lam for lam, _ in eigenstructure_small(A).spec.blocks}
    # every modulus is read on the entries' unit scale (``core.unit_exponent``), where none
    # overflows: 2^min(e, 0) there is 2^-max(e, 0)
    e = unit_exponent(A)
    unit = 2.0 ** -max(e, 0)
    snapped = []
    for lam, size in parsed.blocks:
        u = times_power_of_two(lam, -e)
        gap, best = min(((abs(times_power_of_two(r, -e) - u), r) for r in reps),
                        key=lambda pair: pair[0])
        near = gap <= GROUPING_RTOL * max(unit, abs(times_power_of_two(best, -e)))
        snapped.append((best if near else lam, size))
    return JordanSpec(tuple(snapped))


def _quadratic_roots(tr: complex, det: complex) -> tuple[complex, complex]:
    """Roots of z^2 - tr z + det, avoiding cancellation in the larger root."""
    disc = tr * tr - 4.0 * det
    s = cmath.sqrt(disc)
    if (tr.conjugate() * s).real < 0:
        s = -s
    l1 = (tr + s) / 2.0
    l2 = det / l1 if l1 != 0 else (tr - s) / 2.0
    return l1, l2


def _refined_roots_2(tr: complex, det: complex) -> list[complex]:
    """Eigenvalues of a 2x2 from (trace, det), detecting double roots exactly.

    Closed-form roots of a near-square polynomial split by sqrt(eps); a double
    root is instead recognized from the discriminant and recovered as tr/2 at
    full precision.
    """
    s2 = max(1.0, abs(tr) ** 2, 4.0 * abs(det))
    if math.isinf(s2):  # 4|det| overflows quietly, unlike the power
        raise OverflowError("the discriminant of the characteristic polynomial overflows")
    disc = tr * tr - 4.0 * det
    if abs(disc) <= _MULTIPLE_RTOL * s2:
        lam = tr / 2.0
        return [lam, lam]
    return list(_quadratic_roots(tr, det))


def _char3(A: np.ndarray) -> tuple[complex, complex, complex]:
    tr = complex(np.trace(A))
    c2 = complex(
        A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
        + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
    )
    det = complex(np.linalg.det(A))
    return tr, c2, det


_CUBE_ROOTS_OF_UNITY = (1.0 + 0j, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3))


def _cardano(tr: complex, c2: complex, det: complex) -> list[complex]:
    """Roots of z^3 - tr z^2 + c2 z - det by the complex cubic formula."""
    p = c2 - tr * tr / 3.0
    q = -det + tr * c2 / 3.0 - 2.0 * tr**3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = cmath.sqrt(disc)
    u3 = -q / 2.0 + sq
    if abs(u3) < abs(-q / 2.0 - sq):
        u3 = -q / 2.0 - sq
    if u3 == 0:
        roots_t = [(-q) ** (1.0 / 3.0) * w for w in _CUBE_ROOTS_OF_UNITY] if q != 0 else [0j, 0j, 0j]
    else:
        u = u3 ** (1.0 / 3.0)
        roots_t = [u * w - p / (3.0 * u * w) for w in _CUBE_ROOTS_OF_UNITY]
    return [t + tr / 3.0 for t in roots_t]


def _refined_roots_3(A: np.ndarray) -> list[complex]:
    """Eigenvalues of a 3x3, resolving multiple roots through the derivative.

    A double root of the characteristic polynomial p is a root of p' at which
    p also vanishes, and the roots of p' come from a well-conditioned
    quadratic, so algebraic doubles and triples are recovered at full
    precision instead of the sqrt(eps)/cbrt(eps) accuracy of the plain cubic
    formula.  Simple roots get a Newton polish.
    """

    tr, c2, det = _char3(A)

    def p(z: complex) -> complex:
        return ((z - tr) * z + c2) * z - det

    def dp(z: complex) -> complex:
        return (3.0 * z - 2.0 * tr) * z + c2

    base = _cardano(tr, c2, det)
    s = max(1.0, max(abs(z) for z in base))
    s2, s3 = s * s, s * s * s
    d1 = tr * tr - 3.0 * c2        # discriminant of p' up to a factor
    if abs(d1) <= _MULTIPLE_RTOL * s2:
        center = tr / 3.0
        if abs(p(center)) <= _MULTIPLE_RTOL * s3:
            return [center, center, center]
    else:
        w1, w2 = _quadratic_roots(2.0 * tr / 3.0, c2 / 3.0)
        w = min((w1, w2), key=lambda z: abs(p(z)))
        if abs(p(w)) <= _MULTIPLE_RTOL * s3:
            return [w, w, tr - 2.0 * w]
    roots = []
    for z in base:
        for _ in range(2):
            d = dp(z)
            if abs(d) < 1e-30:
                break
            z = z - p(z) / d
        roots.append(z)
    return roots


def eigenstructure_2x2(A) -> JordanSpec:
    """Jordan structure of a 2x2 matrix: ``eigenstructure_small(A).spec``."""
    A = as_matrix(A, square=True, name="A")
    if A.shape != (2, 2):
        raise InvalidInputError("expected a 2x2 matrix")
    return eigenstructure_small(A).spec


def _rank_with_band(B: np.ndarray, scale: float) -> tuple[int, bool]:
    """Numerical rank plus a flag for singular values inside the ambiguity band.

    Values in (1e-12, 1e-6) of the scale are neither credibly zero nor
    credibly nonzero at working precision, so any multiplicity decision that
    depends on them is marked untrustworthy.
    """
    sv = np.linalg.svd(B, compute_uv=False)
    s = max(1.0, scale, float(sv[0]))
    rank = int(np.sum(sv > 1e-8 * s))
    murky = bool(np.any((sv > 1e-12 * s) & (sv <= 1e-6 * s)))
    return rank, murky


def eigenstructure_small(A) -> EigenResult:
    """Jordan structure of a matrix of order <= 3.

    Eigenvalues come from the closed-form quadratic/cubic root formulas with
    derivative-based recovery of multiple roots; they are grouped into
    multiplicity clusters at a relative tolerance, and block sizes are read
    off the rank of A - lam I.  ``approximate`` flags spectra whose structure
    is not trustworthy at working precision: inter-cluster gaps within 10x of
    the grouping tolerance, or multiplicity decisions made inside the noise
    band of the root discriminants.

    Below unit scale, and wherever the characteristic polynomial of A
    overflows, as it does for entries near the float range, the structure is
    that of A 2^-e at unit scale (see ``core.unit_exponent``), with the
    eigenvalues scaled back by 2^e.  Entries whose parts span so wide a range
    that a floating-point fault occurs there too (a subnormal pivot in the
    determinant) are InvalidInputError.
    """
    A = _raw_matrix(A)
    n = A.shape[0]
    if n == 1:
        return EigenResult(JordanSpec(((complex(A[0, 0]), 1),)), False)
    e = unit_exponent(A)
    if e >= 0:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _eigenstructure(A, n)
        except (OverflowError, FloatingPointError, InvalidInputError):
            pass  # InvalidInputError: a root overflowed to a non-finite eigenvalue
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            res = _eigenstructure(times_power_of_two(A, -e), n)
    except (OverflowError, FloatingPointError, InvalidInputError) as exc:
        parts = np.abs(np.concatenate((A.real, A.imag)))
        raise InvalidInputError(
            f"raw entries with parts from {parts[parts > 0].min():.3g} to {parts.max():.3g} "
            "span too wide a range for their eigenvalues at unit scale; supply a Jordan "
            "block list") from exc
    return EigenResult(res.spec.scaled(2.0 ** e).canonical(), res.approximate)


def _eigenstructure(A: np.ndarray, n: int) -> EigenResult:
    if n == 2:
        eigs = _refined_roots_2(complex(np.trace(A)), complex(np.linalg.det(A)))
    else:
        eigs = _refined_roots_3(A)
    scale = max(1.0, max(abs(e) for e in eigs))
    tol = GROUPING_RTOL * scale
    clusters: list[list[complex]] = []
    for e in sorted(eigs, key=lambda z: (-abs(z), cmath.phase(z) % (2 * math.pi))):
        for c in clusters:
            if abs(e - c[0]) <= tol:
                c.append(e)
                break
        else:
            clusters.append([e])
    means = [sum(c) / len(c) for c in clusters]
    reps = [0j if abs(m) <= tol else m for m in means]
    gaps = [abs(a - b) for i, a in enumerate(reps) for b in reps[i + 1:]]
    approximate = any(g < 10 * tol for g in gaps)
    blocks: list[tuple[complex, int]] = []
    for rep, cluster in zip(reps, clusters):
        m = len(cluster)
        if m == 1:
            blocks.append((rep, 1))
            continue
        rank, murky = _rank_with_band(A - rep * np.eye(n), scale)
        approximate = approximate or murky
        geo = min(max(n - rank, 1), m)
        if m == 2:
            blocks.extend([(rep, 1), (rep, 1)] if geo == 2 else [(rep, 2)])
        else:  # m == 3
            if geo == 3:
                blocks.extend([(rep, 1)] * 3)
            elif geo == 2:
                blocks.extend([(rep, 2), (rep, 1)])
            else:
                blocks.append((rep, 3))
    spec = JordanSpec(tuple(blocks)).canonical()
    return EigenResult(spec, approximate)
