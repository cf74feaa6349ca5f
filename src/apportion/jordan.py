"""Jordan-form specifications, construction, diagonal rescaling, inverse-pair
completion, and closed-form eigenstructure recovery for orders up to 3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import INVERSE_PAIR_TOL, as_matrix, check_inverse, times_power_of_two, unit_exponent
from .errors import InvalidInputError, SingularMatrixError, UnsupportedOrderError

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


@dataclass(frozen=True)
class JordanSpec:
    """Ordered list of (eigenvalue, block size) pairs describing a Jordan matrix.

    The represented matrix is the direct sum of the blocks in the given order.
    Serialization round-trips exactly: ``JordanSpec.from_json(spec.to_json())``
    reproduces the same block tuple.
    """

    blocks: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise InvalidInputError("JordanSpec needs at least one block")
        norm = []
        for lam, size in self.blocks:
            lam = complex(lam)
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                raise InvalidInputError("block eigenvalues must be finite")
            if not isinstance(size, (int, np.integer)) or size < 1:
                raise InvalidInputError(f"block size must be a positive integer, got {size!r}")
            norm.append((lam, int(size)))
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def order(self) -> int:
        return sum(size for _, size in self.blocks)

    @property
    def diagonal(self) -> np.ndarray:
        """Eigenvalues repeated along the diagonal, block by block."""
        return np.concatenate([np.full(size, lam) for lam, size in self.blocks])

    @property
    def alphas(self) -> np.ndarray:
        """Superdiagonal indicators: 1 inside a block, 0 at block boundaries."""
        bits = []
        for _, size in self.blocks:
            bits.extend([1] * (size - 1) + [0])
        return np.array(bits[:-1], dtype=int) if len(bits) > 1 else np.zeros(0, dtype=int)

    @property
    def rank(self) -> int:
        """Order minus the number of blocks with eigenvalue exactly zero."""
        return self.order - sum(1 for lam, _ in self.blocks if lam == 0)

    @property
    def spectral_radius(self) -> float:
        return max(abs(lam) for lam, _ in self.blocks)

    def is_nilpotent(self) -> bool:
        return all(lam == 0 for lam, _ in self.blocks)

    def is_zero_matrix(self) -> bool:
        return all(lam == 0 and size == 1 for lam, size in self.blocks)

    def canonical_order(self) -> list[int]:
        """Block indices sorted by descending |eigenvalue|, descending size,
        ascending arg (stable among equal blocks)."""
        def key(i):
            lam, size = self.blocks[i]
            arg = cmath.phase(lam) % (2 * math.pi) if lam != 0 else 0.0
            return (-abs(lam), -size, arg)

        return sorted(range(len(self.blocks)), key=key)

    def canonical(self) -> "JordanSpec":
        """Blocks in ``canonical_order``."""
        return JordanSpec(tuple(self.blocks[i] for i in self.canonical_order()))

    def scaled(self, factor: complex) -> "JordanSpec":
        return JordanSpec(tuple((lam * factor, size) for lam, size in self.blocks))

    def to_json(self) -> dict:
        return {
            "blocks": [
                {"re": lam.real, "im": lam.imag, "size": size} for lam, size in self.blocks
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "JordanSpec":
        try:
            blocks = tuple(
                (complex(b["re"], b["im"]), int(b["size"])) for b in data["blocks"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed JordanSpec document: {exc}") from exc
        return cls(blocks)


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
    """Assemble the block-diagonal Jordan matrix described by ``spec``."""
    n = spec.order
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


def block_permutation(spec: JordanSpec, new_order: list[int]) -> tuple[JordanSpec, np.ndarray]:
    """Reorder blocks; returns (reordered spec, Q) with J_new = Q J_old Q^T."""
    if sorted(new_order) != list(range(len(spec.blocks))):
        raise InvalidInputError("new_order must be a permutation of the block indices")
    starts = []
    pos = 0
    for _, size in spec.blocks:
        starts.append(pos)
        pos += size
    n = spec.order
    Q = np.zeros((n, n))
    dst = 0
    for idx in new_order:
        size = spec.blocks[idx][1]
        for i in range(size):
            Q[dst + i, starts[idx] + i] = 1.0
        dst += size
    return JordanSpec(tuple(spec.blocks[i] for i in new_order)), Q


def scale_jordan(spec: JordanSpec, lam: complex) -> tuple[JordanSpec, np.ndarray]:
    """Eigenvalue scaling of a Jordan matrix by a nonzero scalar.

    Returns the scaled spec together with S = diag(1, lam, ..., lam^(n-1)),
    which satisfies S (lam * J) S^-1 = J_scaled.  The identity is re-verified
    numerically before returning.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidInputError("scaling factor must be nonzero")
    scaled = spec.scaled(lam)
    n = spec.order
    S = np.diag(lam ** np.arange(n).astype(complex))
    J = build_jordan(spec)
    target = build_jordan(scaled)
    lhs = (S * lam) @ J @ np.diag(1.0 / np.diag(S))
    scale = max(1.0, float(np.abs(target).max()))
    if float(np.abs(lhs - target).max()) > 1e-9 * scale:
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
    Uprime = Vh[m:].conj().T
    M = np.hstack([U, Uprime])
    # V' = [O | I] M^-1: the bottom rows of the inverse
    bottom = np.linalg.solve(M.T, np.eye(n, dtype=complex)[:, m:]).T
    Minv = np.vstack([V, bottom])
    return InversePair(M=M, Minv=Minv)


#: |disc| below this (scaled) marks an algebraically multiple root
_MULTIPLE_RTOL = 1e-12


def parse_jordan_arrangement(A, rtol: float = 1e-12):
    """Read off the block list of a matrix already in Jordan form, or None.

    The block order of the input is preserved (no canonicalization), so a
    certificate built from the result applies to the input matrix itself.
    A superdiagonal entry is compared with 1 at ``rtol``, every other entry
    at ``rtol`` times max|A|; anything that is not numerically a Jordan
    arrangement returns None.
    """
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    scale = float(np.abs(A).max())
    blocks = []
    i = 0
    while i < n:
        lam = complex(A[i, i])
        size = 1
        while (i + size < n
               and abs(A[i + size - 1, i + size] - 1.0) <= rtol
               and abs(A[i + size, i + size] - lam) <= rtol * scale):
            size += 1
        blocks.append((lam, size))
        i += size
    spec = JordanSpec(tuple(blocks))
    if float(np.abs(A - build_jordan(spec)).max()) > rtol * scale:
        return None
    return spec


def input_ordered_spec(A) -> JordanSpec:
    """Block list of a Jordan-arranged matrix, in input order, with eigenvalues
    snapped onto the multiplicity-cluster representatives.

    Raises when the matrix is not numerically in Jordan-block arrangement:
    recovering a transforming basis for conjugated raw input is out of scope,
    so no certificate can be expressed for it directly.  Eigenvalues snap at the
    grouping tolerance of ``eigenstructure_small``, relative to 2^e below unit scale.
    """
    A = as_matrix(A, square=True, name="A")
    if A.shape[0] > 3:
        raise InvalidInputError(
            "raw-entry input is limited to order 3; supply a Jordan block list"
        )
    parsed = parse_jordan_arrangement(A)
    if parsed is None:
        raise InvalidInputError(
            "raw entries are not in Jordan-block arrangement; supply a Jordan "
            "block list to get a certificate for this matrix"
        )
    reps = {lam for lam, _ in eigenstructure_small(A).spec.blocks}
    unit = 2.0 ** min(unit_exponent(A), 0)
    snapped = []
    for lam, size in parsed.blocks:
        best = min(reps, key=lambda r: abs(r - lam))
        snapped.append((best if abs(best - lam) <= GROUPING_RTOL * max(unit, abs(best))
                        else lam, size))
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
    eigenvalues scaled back by 2^e.
    """
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    if n > 3:
        raise UnsupportedOrderError("closed-form eigenstructure supports order <= 3 only")
    if n == 1:
        return EigenResult(JordanSpec(((complex(A[0, 0]), 1),)), False)
    e = unit_exponent(A)
    if e >= 0:
        try:
            with np.errstate(over="raise", invalid="raise"):
                return _eigenstructure(A, n)
        except (OverflowError, FloatingPointError, InvalidInputError):
            pass  # InvalidInputError: a root overflowed to a non-finite eigenvalue
    res = _eigenstructure(times_power_of_two(A, -e), n)
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
