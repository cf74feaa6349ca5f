"""Numerical search for transforming matrices, as a one-sided oracle.

M is parameterized by 2n^2 reals, Re(M) then Im(M), held at unit Frobenius
norm (the image M A M^-1 is scale invariant in M), and every search runs all
restarts side by side on a batch axis, holding only the restarts still
running.  Every input is searched as A 2^-e at unit scale (``core.unit_exponent``).

At order 2, where the paper's classification is complete and every outcome
can be checked against it, the search is Levenberg-Marquardt on the centered
squared entry moduli of M A M^-1 (``_lm_search``).  A restart counts as
found once the relative modulus spread of its image reaches LM_FOUND_SPREAD
and the image re-verifies through the core checks.  A restart that makes no
progress for LM_STALL_STEPS = 3 steps in a row stops; on a matrix that is
not apportionable, that window is most of what each restart costs.  A
rejected step changes only the damping, so each pass tries every running
restart's next few damping values at once, in one batched solve and one
residual evaluation, and takes the first that lowers the residual: each
restart visits the same points, to the bit, as with one trial per pass.

At order 3 and above, a non-nilpotent A with one Jordan block per eigenvalue
(``_image_blocks``, read from A's eigenvalues and the ranks of A - mu I) is
first searched in image space (``_image_search``): B = kappa exp(i Theta) is
solved for, by Levenberg-Marquardt on Theta and log kappa, one restart at a
time, until B's eigenvalues (or, where an eigenvalue repeats, its power sums)
are A's; such a B is similar to A, and M comes from B's and A's eigenvectors
or from ``jordan._intertwiner``.  Where that route is not taken or finds
nothing, the M search below runs, as it would without it.

The M search's objective is the variance of the squared entry
moduli, with a log-barrier on |det M|, minimized by multi-start BFGS with a
backtracking line search.  Each iteration evaluates the full step of every
restart in one batched objective call; the restarts that fail the Armijo
test then backtrack together, one batched call per step length 1/2, 1/4, ...,
and each keeps the first step that passes.  The search direction is one
batched matrix-vector product.  The inverse-Hessian update forms H y and its
rank-two factors once per iteration, then adds their product to one
cache-sized block of restarts at a time.  The best candidates are
then confirmed by Gauss-Newton refinement of the uniformity residuals,
re-measured with the true modulus spread, and re-verified through the core
checks.

Either way the search can only err toward "not found".  ``SearchConfig``
holds the four settings, ``restarts``, ``max_iters``, ``seed`` and
``defect_target``; the other constants are fixed below.  The starting points
depend only on ``seed``, ``restarts`` and the order, so the last table drawn
is kept (up to START_CACHE_BYTES) and the next search at the same three
copies it instead of drawing it again (``_initial_points``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .constructors import (ApportionCertificate, CertTag, _certificate, _certified,
                           request_certificate)
from .core import (RCOND_THRESHOLD, as_matrix, inverse_and_rcond, is_uniform,
                   times_power_of_two, unit_exponent)
from .errors import ConstructionError, InvalidInputError, SearchBudgetError
from .jordan import MAX_SEARCH_ORDER, _intertwiner, build_jordan
from .reports import Verdict
from .rules import _coerce, classify
from .scalar import Tolerance, _integer
from .spec import JordanSpec

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "SigmaReport",
    "find_apportioning",
    "defect_objective",
    "sigma_estimate",
]

#: ceiling on the search's working memory, in bytes: the restarts x (2n^2)^2
#: BFGS inverse-Hessian stack, or restarts x LM_BYTES_PER_N4 x n^4 at order 2
MAX_HESSIAN_BYTES = 256 * 2**20
#: bytes per temporary of the inverse-Hessian update, which runs on blocks of
#: this many bytes' worth of rows (at least one): a block's temporaries stay
#: inside a 2 MiB L2 cache, and far below the stack they update
UPDATE_BLOCK_BYTES = 128 * 2**10
#: bytes of the one table of seeded starting points kept between searches
#: (``_initial_points``): criterion 7's 32 restarts take 2 KiB and the default
#: 32 at order 16 128 KiB; a larger table is drawn on every call
START_CACHE_BYTES = 2**20

BARRIER_WEIGHT = 1e-6     # log-barrier weight on |det M|
ARMIJO_C = 1e-4           # sufficient-decrease constant of the line search
BACKTRACK_FACTOR = 0.5    # step shrink per backtrack ...
MAX_BACKTRACKS = 40       # ... up to this many times
GTOL = 1e-8               # a restart stops once max|gradient| is this small ...
STALL_ITERS = 5           # ... or after this many steps in a row that improve
STALL_RTOL = 1e-10        # the objective by at most this relative amount
CANDIDATE_WINDOW = 1e4    # restarts within this multiple of the target ...
CANDIDATES = 4            # ... are confirmed, at most this many, best first
CONFIRM_FACTOR = 3e-2     # confirmation must refine to this fraction of the target
CONFIRM_STEPS = 6         # Gauss-Newton steps of the confirmation

LM_DAMPING = 1e-3         # Levenberg-Marquardt's starting damping lam, ...
LM_DAMPING_DOWN = 3.0     # ... divided by this on an accepted step ...
LM_DAMPING_UP = 4.0       # ... and multiplied by this on a rejected one
#: lam stops falling here, so that J J^T + lam tr(J J^T) / n^2 I stays far from
#: singular in floating point: on exact-boundary 2x2 inputs lam fell to about
#: 1e-15 without it, and the step's solve raised
LM_MIN_DAMPING = 1e-12
LM_MAX_DAMPING = 1e12     # an LM restart stops once lam passes this ...
#: ... or after this many steps in a row that lower |r|^2 by less than
#: LM_STALL_RTOL relative.  A refutation spends most of its evaluations
#: waiting out this window in every restart; 3 is the smallest window that
#: keeps all 442 finds of criterion 7's grid at seeds 0-2 (2 loses
#: lambda_2 = -1.65 - 1.5i and -0.3 + 0.3i at seed 1)
LM_STALL_STEPS = 3
LM_STALL_RTOL = 1e-3
LM_FOUND_SPREAD = 1e-12   # relative modulus spread at which an LM point is certified
#: bytes charged per LM restart at order n, over n^4.  A pass holds up to
#: LM_STALL_STEPS trials per restart (``_lm_ladder_depth``): tracemalloc peaks
#: read 181-191 n^4 per restart at n = 2 (1,024 and 4,096 restarts) and
#: 103-126 n^4 at n = 3-6 (256 restarts)
LM_BYTES_PER_N4 = 224

#: the image route (``_image_search``): eigenvalues of A 2^-e within this multiple of its
#: Frobenius norm form one cluster, and a cluster is one Jordan block where the matrix
#: minus the cluster's mean has rank n - 1 at the same tolerance (``_image_blocks``)
IMAGE_STRUCTURE_RTOL = 1e-6
#: the largest order at which a repeated eigenvalue takes the image route: its power sums
#: failed from order 10
IMAGE_POWER_SUM_MAX_ORDER = 8
#: an image restart starts at this multiple of sqrt(sum |lam_i|^2) / n, the least kappa
#: whose uniform image can hold the spectrum (Schur's inequality)
IMAGE_KAPPA_START = 1.5
#: an image restart has converged, and its point is certified, once |r|^2 is this small
IMAGE_FOUND_COST = 1e-26

#: the LM damping factors 1, 4, 16, ... of one pass's ladder; LM_DAMPING_UP is a
#: power of two, so lam times each is lam after as many rejections, to the bit
_LM_LADDER = np.cumprod([1.0] + [LM_DAMPING_UP] * (LM_STALL_STEPS - 1))
#: an order-2 M is flagged singular where |det| is within this multiple of
#: |M00 M11| + |M01 M10| (``_det_inv_batch``)
_DET_RTOL = 4 * np.finfo(float).eps
#: LAPACK's batched solve, as np.linalg.solve calls it for a stack of right-hand sides
_solve = _umath_linalg.solve
#: LAPACK's batched determinant and inverse, as np.linalg.det and np.linalg.inv call
#: them on complex stacks.  np.linalg.inv turns the gufunc's invalid flag (a singular
#: LU) into LinAlgError; ``_det_inv_batch`` never passes it a row whose det is 0
_det, _inv = _umath_linalg.det, _umath_linalg.inv


@dataclass(frozen=True)
class SearchConfig:
    """Search budget: ``restarts`` starting points run for at most
    ``max_iters`` iterations from points drawn with ``seed`` (a nonnegative
    integer), aiming at a modulus spread of ``defect_target`` (in (0, 1)).  At
    order 2 a point counts as found only once its relative spread reaches
    LM_FOUND_SPREAD, far below any usual target, and it is certified at
    ``defect_target``.  Equal configs and inputs give identical outcomes."""

    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0
    defect_target: float = 1e-8

    def __post_init__(self):
        for value in (self.restarts, self.max_iters):
            _integer(value, 1, refusal="restarts and max_iters must be positive integers")
        # the target scales the found test, the candidate window and the certificate's
        # tolerance, so a loose one finds 2 I_3, which no M makes uniform, with B = 2 I;
        # NaN fails both comparisons
        if not 0 < self.defect_target < 1:
            raise InvalidInputError(
                f"defect_target must lie in (0, 1), got {self.defect_target!r}")
        _integer(self.seed, 0, refusal=f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search: best spread found and, on success, a certificate.

    ``found`` requires more than a spread below ``defect_target``.  At order
    2 the winning point's relative spread must reach LM_FOUND_SPREAD; at
    higher orders it must refine to well below the target under a
    Gauss-Newton pass on the uniformity residuals, or come from the image
    route, whose B has A's spectrum to |r|^2 <= IMAGE_FOUND_COST.
    So ``best_defect`` can sit below ``defect_target`` with ``found`` False
    near matrices that are uniformizable only in an unbounded-entry limit.
    ``restarts_used`` is the 1-based index of the winning restart, or the full
    restart count when nothing was found.  ``restart_defects`` holds each
    restart's best spread for transcript output: after a find, each one's
    best when the search stopped.  At order 2 the restarts do not run in
    step (see ``_lm_search``), so some may have run further than the winner.
    On an image-route find (``_image_search``) the restarts run one at a time:
    ``best_defect`` is the certificate's modulus spread max|B| - min|B|,
    ``restarts_used`` the winner's index, and ``restart_defects`` one entry per
    restart run, the winner last: each one's final spectral residual |r|, in
    units of A's eigenvalues, not a modulus spread.
    """

    found: bool
    best_defect: float
    certificate: Optional[ApportionCertificate]
    restarts_used: int
    restart_defects: tuple[float, ...] = field(default=())

    def to_json(self, with_transcript=False) -> dict:
        out = {
            "found": self.found,
            "best_defect": self.best_defect,
            "restarts_used": self.restarts_used,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }
        if with_transcript:
            out["restart_defects"] = list(self.restart_defects)
        return out


def _to_matrix(x: np.ndarray, n: int) -> np.ndarray:
    """M from parameters holding Re(M) then Im(M) flattened; batched over leading axes."""
    n2 = n * n
    shape = x.shape[:-1] + (n, n)
    return x[..., :n2].reshape(shape) + 1j * x[..., n2:].reshape(shape)


def _det_inv_batch(M: np.ndarray):
    """Batched determinant, inverse and singular-row flag (adjugate form at order 2).

    A row is flagged where det is not finite or |det| < 1e-280, and at order
    2 also where |det| <= 4 eps (|M00 M11| + |M01 M10|), within the rounding
    of its two products: a vectorized complex product need not commute to
    the bit, so equal or proportional rows leave a det of a few ulps.
    Flagged rows get determinant 1 and inverse I, so callers evaluate them harmlessly."""
    n = M.shape[1]
    if n != 2:
        det = _det(M, signature="D->D")
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-280)
    else:
        p, q = M[:, 0, 0] * M[:, 1, 1], M[:, 0, 1] * M[:, 1, 0]
        det = p - q
        size = np.abs(det)
        bad = ~np.isfinite(det) | (size < 1e-280) | (size <= _DET_RTOL * (np.abs(p) + np.abs(q)))
    if bad.any():
        det = np.where(bad, 1.0, det)
        M = M.copy()
        M[bad] = np.eye(n)
    if n != 2:
        return det, _inv(M, signature="D->D"), bad
    Minv = np.empty_like(M)
    Minv[:, 0, 0] = M[:, 1, 1]
    Minv[:, 0, 1] = -M[:, 0, 1]
    Minv[:, 1, 0] = -M[:, 1, 0]
    Minv[:, 1, 1] = M[:, 0, 0]
    Minv /= det[:, None, None]
    return det, Minv, bad


def _objective_batch(X: np.ndarray, A: np.ndarray):
    """Value, gradient, and modulus spread of the defect objective, batched.

    X has one restart per row; each row holds Re(M) then Im(M) flattened and
    is normalized to unit Frobenius norm before evaluation.  Rows whose M is
    numerically singular get value +inf and a zero gradient.
    """
    R = X.shape[0]
    n = A.shape[0]
    n2 = n * n
    norms = np.sqrt(np.einsum("ri,ri->r", X, X))
    norms = np.where(norms == 0.0, 1.0, norms)
    Xn = X / norms[:, None]
    M = _to_matrix(Xn, n)
    det, Minv, bad = _det_inv_batch(M)
    # M A as one (R n, n) @ (n, n) product: the same bits as the stacked M @ A
    B = (M.reshape(R * n, n) @ A).reshape(R, n, n) @ Minv
    absB2 = B.real**2 + B.imag**2
    v = absB2.reshape(R, n2)
    # np.add.reduce(..) / n2 is .mean(axis=1) bit for bit, without its wrapper
    dev = v - np.add.reduce(v, axis=1, keepdims=True) / n2
    f = np.add.reduce(dev**2, axis=1) / n2 - 2.0 * BARRIER_WEIGHT * np.log(np.abs(det))
    W = dev.reshape(R, n, n) * B.conj()
    T = Minv @ W.transpose(0, 2, 1)
    K = A @ T - T @ B
    gM = (4.0 / n2) * K.transpose(0, 2, 1) - 2.0 * BARRIER_WEIGHT * Minv.transpose(0, 2, 1)
    g = np.concatenate([gM.real.reshape(R, n2), -gM.imag.reshape(R, n2)], axis=1)
    # chain rule through the unit-norm projection of X
    g = (g - np.einsum("ri,ri->r", g, Xn)[:, None] * Xn) / norms[:, None]
    absB = np.sqrt(v)
    spread = absB.max(axis=1) - absB.min(axis=1)
    if bad.any():
        f[bad] = np.inf
        g[bad] = 0.0
        spread[bad] = np.inf
    return f, g, spread


def defect_objective(x: np.ndarray, A):
    """Single-point objective value and analytic gradient (for gradient checks)."""
    A = as_matrix(A, square=True, name="A")
    x = np.asarray(x, dtype=float)
    if x.size != 2 * A.shape[0] ** 2:
        raise InvalidInputError("parameter vector must have length 2 n^2")
    f, g, _ = _objective_batch(x[None, :], A)
    return float(f[0]), g[0]


def _bfgs_update(H: np.ndarray, upd: np.ndarray, s: np.ndarray, y: np.ndarray,
                 sy: np.ndarray) -> None:
    """BFGS update, in place, of the inverse Hessians H[r] of the rows r where ``upd`` is set.

    With h = H y / sy and c = (sy + y.Hy) / sy^2 the update is
    H += (c s - h) s^T - s h^T.  H y is one batched product through views of
    the whole stack, and c, h and the two (rows, D, 2) and (rows, 2, D)
    factors are formed once for the updated rows; only the (rows, D, D)
    product-and-add runs per block of rows whose product takes at most
    UPDATE_BLOCK_BYTES, or one row.  Under a partial mask, one block of rows
    is gathered, updated and written back at a time.  Every row gets
    the same operations at any block size, so the blocks change no bit of
    the result.  A block holds 50 rows at order 3, so one block covers the
    default 32 restarts there, and 3 rows at order 6.
    """
    D = H.shape[1]
    size = max(1, UPDATE_BLOCK_BYTES // (8 * D * D))
    every = upd.all()  # the usual case: update H through views, with no gather
    Hy = (H @ y[:, :, None])[:, :, 0]
    if not every:
        rows = np.flatnonzero(upd)
        Hy, s, y, sy = Hy[rows], s[rows], y[rows], sy[rows]
    coeff = (sy + np.einsum("ri,ri->r", y, Hy)) / sy**2
    h = Hy / sy[:, None]
    U = np.stack([coeff[:, None] * s - h, -s], axis=2)
    V = np.stack([s, h], axis=1)
    for a in range(0, sy.size, size):
        b = slice(a, a + size)
        if every:
            H[b] += U[b] @ V[b]
        else:
            Hr = H[rows[b]]
            Hr += U[b] @ V[b]
            H[rows[b]] = Hr


#: the last table of starting points drawn, as ((seed, restarts, n), read-only
#: table), or (None, None); rebound in one assignment by ``_initial_points``
_last_starts: tuple = (None, None)


def _initial_points(cfg: SearchConfig, n: int) -> np.ndarray:
    """The restarts' starting points, row r = default_rng((seed, r)).standard_normal(2 n^2).

    The rows do not depend on A, and one process often searches many matrices
    at one (seed, restarts, n): the last table drawn is kept in
    ``_last_starts`` if it fits START_CACHE_BYTES, and a search at its key
    gets a fresh writable copy instead of drawing it again."""
    global _last_starts
    key = (int(cfg.seed), cfg.restarts, n)
    last_key, table = _last_starts
    if last_key == key:
        return table.copy()
    table = np.empty((cfg.restarts, 2 * n * n))
    for r, row in enumerate(table):
        np.random.default_rng((key[0], r)).standard_normal(out=row)
    if table.nbytes > START_CACHE_BYTES:
        return table
    table.flags.writeable = False
    _last_starts = (key, table)
    return table.copy()


def _require_search_order(n: int) -> None:
    """Refuse an order above MAX_SEARCH_ORDER; a caller holding a block list checks it
    before it builds the matrix."""
    if n > MAX_SEARCH_ORDER:
        raise SearchBudgetError(f"search is budgeted to order <= {MAX_SEARCH_ORDER}")


def find_apportioning(A, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Seek M making M A M^-1 uniform, up to the configured modulus spread.

    At order 3 and above, a non-nilpotent A with one Jordan block per eigenvalue
    is first searched in image space (``_image_search``): up to ``restarts``
    restarts of at most ``max_iters`` steps each, one after another, and the
    first that certifies is the outcome (see SearchOutcome for its fields).
    Otherwise, or when that route finds nothing, the M search
    runs the configured restarts as one batch until one is found, all stall
    or converge, or the iteration budget ends: at order 2 by Levenberg-Marquardt
    (``_lm_search``; each restart runs its own damping ladder, so their step
    counts drift apart), above it by BFGS in lockstep.  A BFGS iteration
    costs one batched objective call for the full steps, plus one more per
    shorter step length while some restart still backtracks, on those
    restarts alone; once a restart reaches the target spread, the
    best few candidates are confirmed by Gauss-Newton refinement of the
    uniformity residuals.  A success is accepted only if M passes the
    nonsingularity gate and the image re-verifies as uniform at the target
    tolerance; failure to find is reported as evidence only, never as a
    verdict.
    """
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    _require_search_order(n)
    R = cfg.restarts
    D = 2 * n * n
    if R * (LM_BYTES_PER_N4 * n**4 if n == 2 else D * D * 8) > MAX_HESSIAN_BYTES:
        raise SearchBudgetError(
            f"{R} restarts at order {n} exceed the {MAX_HESSIAN_BYTES >> 20} MiB search budget")
    # K(cA) = |c| K(A): the search runs on As = A 2^-e, reports its spreads times 2^e
    # and certifies against A itself
    e = unit_exponent(A)
    As = times_power_of_two(A, -e)
    unit = math.ldexp(1.0, e)
    if n == 2:
        return _lm_search(A, As, unit, cfg)
    blocks = _image_blocks(As)
    if blocks is not None:
        outcome = _image_search(A, As, unit, cfg, blocks)
        if outcome is not None:
            return outcome
    X = _initial_points(cfg, n)
    f, g, spread = _objective_batch(X, As)
    H = np.broadcast_to(np.eye(D), (R, D, D)).copy()
    frozen = ~np.isfinite(f)
    stall = np.zeros(R, dtype=int)
    # the loop holds only the restarts still running, compacted whenever some
    # freeze; ids maps held rows to restarts, and each restart's best point
    # is written back to best_spread / best_X as it leaves
    ids = np.arange(R)
    held_best, held_best_X = spread.copy(), X.copy()
    best_spread, best_X = np.empty(R), np.empty_like(X)

    for _ in range(cfg.max_iters):
        if (spread <= cfg.defect_target).any():
            break
        if frozen.any():
            gone = ids[frozen]
            best_spread[gone], best_X[gone] = held_best[frozen], held_best_X[frozen]
            keep = ~frozen
            ids, X, f, g, spread, H, stall, held_best, held_best_X = (
                a[keep] for a in (ids, X, f, g, spread, H, stall, held_best, held_best_X))
            if ids.size == 0:
                break
        p = -(H @ g[:, :, None])[:, :, 0]
        gTp = np.einsum("ri,ri->r", g, p)
        uphill = gTp >= 0
        if uphill.any():
            p[uphill] = -g[uphill]
            gTp[uphill] = -np.einsum("ri,ri->r", g[uphill], g[uphill])
            H[uphill] = np.eye(D)
        # Armijo backtracking: the full step for every row in one call, then
        # each shorter step 1/2, 1/4, ... for the rows still failing, one call
        # per step length
        new_X = X + p
        new_f, new_g, new_s = _objective_batch(new_X, As)
        pend = np.flatnonzero(~(new_f <= f + ARMIJO_C * gTp))
        t = 1.0
        for _ in range(MAX_BACKTRACKS - 1):
            if not pend.size:
                break
            t *= BACKTRACK_FACTOR
            Xc = X[pend] + t * p[pend]
            fc, gc, sc = _objective_batch(Xc, As)
            ok = fc <= f[pend] + ARMIJO_C * t * gTp[pend]
            acc = pend[ok]
            new_X[acc], new_f[acc], new_g[acc], new_s[acc] = Xc[ok], fc[ok], gc[ok], sc[ok]
            pend = pend[~ok]
        if pend.size:  # no step passed: the row keeps its point and freezes
            new_X[pend], new_f[pend], new_g[pend], new_s[pend] = (
                X[pend], f[pend], g[pend], spread[pend])
        s_step = new_X - X
        y_step = new_g - g
        sy = np.einsum("ri,ri->r", s_step, y_step)
        upd = sy > 1e-14
        if upd.any():
            _bfgs_update(H, upd, s_step, y_step, sy)
        improvement = f - new_f
        stalled = improvement <= STALL_RTOL * np.maximum(1.0, np.abs(f))
        stall = np.where(stalled, stall + 1, 0)
        better = new_s < held_best
        held_best[better] = new_s[better]
        held_best_X[better] = new_X[better]
        X, f, g, spread = new_X, new_f, new_g, new_s
        frozen = (stall >= STALL_ITERS) | (np.abs(g).max(axis=1) <= GTOL)
        frozen[pend] = True
    best_spread[ids], best_X[ids] = held_best, held_best_X

    order = np.lexsort((np.arange(R), best_spread))
    defects = tuple(float(d) * unit for d in best_spread)
    window = CANDIDATE_WINDOW * cfg.defect_target
    confirm_target = cfg.defect_target * CONFIRM_FACTOR
    best = float(best_spread[int(order[0])])
    # a candidate counts as found only if the equal-modulus residual system is
    # solvable right next to it: Gauss-Newton collapses the spread by orders
    # of magnitude near a genuine solution, while near-boundary pseudo
    # solutions (uniformizable only with unbounded entries) barely move
    for idx in order[: CANDIDATES]:
        idx = int(idx)
        if best_spread[idx] > window:
            break
        rx, rs = _uniformity_refine(best_X[idx], As, CONFIRM_STEPS)
        best = min(best, rs)
        if rs <= confirm_target:
            cert = _certify_search_point(rx, A, cfg)
            if cert is not None:
                return SearchOutcome(True, rs * unit, cert, idx + 1, defects)
    return SearchOutcome(False, best * unit, None, R, defects)


def _lm_residuals(X: np.ndarray, A: np.ndarray):
    """Residuals of the unit-norm rows of X, packed as ``_lm_search`` holds them.

    Returns S, one real row per row of X: X itself, the centered squared
    moduli r = v - mean(v), v = |B_ij|^2 of B = M A M^-1, the modulus
    spread, the relative spread (max|B| - min|B|) / max|B| (0 for B = 0)
    and |r|^2; and C, one complex row per row of X: B, A M^-1 and M^-1.
    Rows whose M is numerically singular or whose image leaves the float
    range get infinite residuals, spreads and |r|^2.  Overflow is expected
    here, so the caller runs it under an errstate that ignores it."""
    R, n = X.shape[0], A.shape[0]
    n2, D = n * n, X.shape[1]
    M = _to_matrix(X, n)
    _, Minv, bad = _det_inv_batch(M)
    AMinv = A @ Minv
    B = M @ AMinv
    v = (B.real**2 + B.imag**2).reshape(R, n2)
    S = np.empty((R, D + n2 + 3))
    S[:, :D] = X
    r = np.subtract(v, np.add.reduce(v, axis=1, keepdims=True) / n2, out=S[:, D:D + n2])
    absB = np.sqrt(v)
    top = absB.max(axis=1)
    spread = np.subtract(top, absB.min(axis=1), out=S[:, D + n2])
    S[:, D + n2 + 1] = np.where(top > 0.0, spread / top, 0.0)
    np.einsum("ri,ri->r", r, r, out=S[:, D + n2 + 2])
    bad |= ~np.isfinite(r).all(axis=1)
    if bad.any():
        S[bad, D:] = np.inf
    C = np.empty((R, 3, n, n), dtype=complex)
    C[:, 0], C[:, 1], C[:, 2] = B, AMinv, Minv
    return S, C


def _lm_ladder_depth(stall: np.ndarray, lam: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Damping values lam, 4 lam, 16 lam, ... that each restart tries in its next pass.

    As many as one trial per pass would try if every one were rejected: the
    LM_STALL_STEPS - stall flat steps the restart has left, the values up to
    LM_MAX_DAMPING and its ``left`` iterations.  0 where the restart stops."""
    damped = np.add.reduce(lam[:, None] * _LM_LADDER <= LM_MAX_DAMPING, axis=1)
    return np.minimum(np.minimum(LM_STALL_STEPS - stall, damped), left).astype(np.intp)


def _lm_search(A: np.ndarray, As: np.ndarray, unit: float, cfg: SearchConfig) -> SearchOutcome:
    """Levenberg-Marquardt on the centered squared moduli of M As M^-1, batched over restarts.

    A step is the dual-form delta = -J^T (J J^T + lam tr(J J^T) / n^2 I)^-1 r,
    an n^2 x n^2 solve with J from ``_refine_jacobian``, kept (back at unit
    norm) if it lowers |r|^2: lam is divided by LM_DAMPING_DOWN then, down
    to LM_MIN_DAMPING, and multiplied by LM_DAMPING_UP otherwise.  A restart
    stops once lam passes LM_MAX_DAMPING, after LM_STALL_STEPS (3) steps in
    a row that each lower |r|^2 by less than LM_STALL_RTOL relative (a
    rejected step counts as flat), where J vanishes, after ``max_iters``
    steps, or once its relative spread reaches LM_FOUND_SPREAD; in that last
    case its point is certified against A, and the search ends if that
    succeeds.  On a matrix that is not apportionable nearly every restart
    ends by the stall rule, so the window sets the cost of a refutation.

    A rejected step changes only lam, so each pass tries, for every running
    restart, the whole ladder lam, 4 lam, 16 lam, ... that it would try one
    step at a time until one is accepted or it stops (``_lm_ladder_depth``),
    in one batched solve and one ``_lm_residuals`` call, and takes the first
    trial that lowers |r|^2.  LM_DAMPING_UP is a power of two, so the ladder
    holds the same lam bits as repeated rejections, and every operation acts
    row by row: each restart visits the same points, to the bit, as with one
    trial per pass and in any batch.  The restarts' iteration counts then
    drift apart, so a find is the first certified point in pass order, and
    the others' transcript entries are their bests at that pass.
    """
    n = As.shape[0]
    n2, D = n * n, 2 * n * n
    # the columns of a state row after its point (0:D) and residuals (D:D + n2);
    # _lm_residuals fills those up to COST
    SPREAD, REL, COST, LAM, STALL, LEFT, ID = range(D + n2, D + n2 + 7)
    with np.errstate(over="ignore", invalid="ignore"):
        X = _initial_points(cfg, n)
        R = X.shape[0]
        X /= np.sqrt(np.einsum("ri,ri->r", X, X))[:, None]
        S, C = _lm_residuals(X, As)
        # one real and one complex row per restart still running, so that dropping
        # restarts and taking trials are one gather each
        state = np.empty((R, ID + 1))
        state[:, :LAM] = S
        state[:, LAM], state[:, STALL], state[:, LEFT] = LM_DAMPING, 0.0, cfg.max_iters
        state[:, ID] = np.arange(R)
        best = state[:, SPREAD].copy()
        depth = _lm_ladder_depth(state[:, STALL], state[:, LAM], state[:, LEFT])
        running = np.isfinite(state[:, COST]) & (depth > 0)
        while True:
            spread, ids = state[:, SPREAD], state[:, ID].astype(np.intp)
            best[ids] = np.minimum(best[ids], spread)
            hit = np.flatnonzero(state[:, REL] <= LM_FOUND_SPREAD)
            if hit.size:
                for k in hit[np.lexsort((ids[hit], spread[hit]))]:
                    cert = _certify_search_point(state[k, :D], A, cfg)
                    if cert is not None:
                        return SearchOutcome(True, float(spread[k]) * unit, cert, int(ids[k]) + 1,
                                             tuple(float(d) * unit for d in best))
                running[hit] = False
            if not running.any():
                break
            if not running.all():
                state, C, depth = state[running], C[running], depth[running]
            J = _refine_jacobian(C[:, 0], C[:, 1], C[:, 2])
            K = J @ J.swapaxes(1, 2)
            # trial t tries the (t - start[row[t]])-th damping value of restart row[t]
            end = np.cumsum(depth)
            start = end - depth
            row = np.repeat(np.arange(depth.size), depth)
            t = np.arange(row.size)
            trial = state[row]
            lam_t = trial[:, LAM] * _LM_LADDER[t - start[row]]
            mu = lam_t * np.trace(K, axis1=1, axis2=2)[row] / n2
            Kt = K[row]
            Kt.reshape(-1, n2 * n2)[:, ::n2 + 1] += mu[:, None]  # its diagonal
            # J vanishes or overflows: the restart stops
            flat = ~(np.isfinite(mu) & (mu > 0.0))
            if flat.any():
                Kt[flat] = np.eye(n2)
            # np.linalg.solve's gufunc without its checks; a singular system gives a
            # non-finite step, whose infinite residuals reject the trial
            z = _solve(Kt, trial[:, D:D + n2, None], signature="dd->d")
            step = trial[:, :D] - (J.swapaxes(1, 2)[row] @ z)[:, :, 0]
            step /= np.sqrt(np.einsum("ri,ri->r", step, step))[:, None]
            del J, K, Kt, z, trial  # freed before the residuals' peak
            S, Ct = _lm_residuals(step, As)
            acc = (S[:, COST] < state[row, COST]) & ~flat
            # each restart's deciding trial: its first accepted or flat one, else its last
            stop = acc | flat
            stop[end - 1] = True
            last = np.minimum.reduceat(np.where(stop, t, row.size), start)
            tried = last - start + 1
            acc, flat, lam_t = acc[last], flat[last], lam_t[last]
            cost = state[:, COST]
            gain = np.where(acc, (cost - S[last, COST]) / np.where(acc, cost, 1.0), 0.0)
            state[:, STALL] = np.where(gain < LM_STALL_RTOL, state[:, STALL] + tried, 0.0)
            state[:, LAM] = np.where(acc, np.maximum(lam_t / LM_DAMPING_DOWN, LM_MIN_DAMPING),
                                     lam_t * LM_DAMPING_UP)
            state[:, LEFT] -= tried
            if acc.any():
                taken = last[acc]
                state[acc, :LAM], C[acc] = S[taken], Ct[taken]
            # a restart runs on while its next ladder is not empty
            depth = _lm_ladder_depth(state[:, STALL], state[:, LAM], state[:, LEFT])
            running = (depth > 0) & ~flat
    return SearchOutcome(False, float(best.min()) * unit, None, R,
                         tuple(float(d) * unit for d in best))


def _image_blocks(As: np.ndarray) -> Optional[tuple]:
    """As's Jordan blocks as (eigenvalue, size) pairs where As is non-derogatory and not
    nilpotent, else None: which route the search takes, never a verdict.

    The eigenvalues are clustered by single linkage at IMAGE_STRUCTURE_RTOL |As|_F, and a
    cluster of m > 1 is one block of size m where As - mu I, mu the cluster's mean, has
    rank n - 1 at that tolerance.  A repeated eigenvalue above IMAGE_POWER_SUM_MAX_ORDER
    is left to the M search too."""
    n = As.shape[0]
    tol = IMAGE_STRUCTURE_RTOL * float(np.linalg.norm(As))
    lam = np.linalg.eigvals(As)
    if not np.abs(lam).max() > tol:
        return None
    near = np.abs(lam[:, None] - lam) <= tol
    for _ in range(n.bit_length()):  # paths of up to 2^n.bit_length() >= n links
        near = near @ near
    blocks, placed = [], np.zeros(n, dtype=bool)
    for members in near:
        if placed[members].any():
            continue
        placed |= members
        size = int(np.count_nonzero(members))
        mu = complex(lam[members].mean())
        if size > 1 and (n > IMAGE_POWER_SUM_MAX_ORDER or np.count_nonzero(
                np.linalg.svd(As - mu * np.eye(n), compute_uv=False) > tol) != n - 1):
            return None
        blocks.append((mu, size))
    return tuple(blocks)


def _image(p: np.ndarray, n: int) -> np.ndarray:
    """B = exp(log kappa + i Theta) for p holding Theta by rows, then log kappa."""
    return np.exp(p[-1] + 1j * p[:-1].reshape(n, n))


def _spectrum_residual(p: np.ndarray, lam: np.ndarray):
    """The eigenvalues mu of B = ``_image(p)`` less their greedy nearest matches among lam,
    as [Re; Im], and the state (B, mu, W, match) with B's eigenvectors W."""
    n = lam.size
    B = _image(p, n)
    mu, W = np.linalg.eig(B)
    dist = np.abs(mu[:, None] - lam)
    match = np.empty(n, dtype=np.intp)
    for _ in range(n):  # the closest pair left, then the next
        i, j = divmod(int(np.argmin(dist)), n)
        match[i] = j
        dist[i, :] = dist[:, j] = np.inf
    d = mu - lam[match]
    return np.concatenate([d.real, d.imag]), (B, mu, W, match)


def _spectrum_jacobian(state, _lam: np.ndarray) -> np.ndarray:
    """d mu_i / d theta_ab = i B_ab (W^-1)_ia W_bi and d mu_i / d log kappa = mu_i, as
    [Re; Im] rows."""
    B, mu, W, _ = state
    n = mu.size
    J = np.empty((n, n * n + 1), dtype=complex)
    J[:, :-1] = (1j * np.linalg.inv(W)[:, :, None] * W.T[:, None, :] * B).reshape(n, n * n)
    J[:, -1] = mu
    return np.concatenate([J.real, J.imag])


def _power_residual(p: np.ndarray, target):
    """The weighted power sums w_k (tr(B^k) - sum_i lam_i^k), k = 1 .. n, of B = ``_image(p)``,
    as [Re; Im], and the state (B, powers B^0 .. B^n); target is (sum_i lam_i^k, w_k), with
    w_k = 1 / (k rho^(k-1)) for rho = max |lam_i|, so that each term moves as an
    eigenvalue does."""
    sums, w = target
    n = sums.size
    B = _image(p, n)
    powers = np.empty((n + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    for k in range(n):
        powers[k + 1] = powers[k] @ B
    d = w * (np.trace(powers[1:], axis1=1, axis2=2) - sums)
    return np.concatenate([d.real, d.imag]), (B, powers)


def _power_jacobian(state, target) -> np.ndarray:
    """d tr(B^k) / d theta_ab = k i (B^(k-1))_ba B_ab and d tr(B^k) / d log kappa = k tr(B^k),
    weighted, as [Re; Im] rows."""
    B, powers = state
    n = B.shape[0]
    wk = target[1] * np.arange(1, n + 1)
    J = np.empty((n, n * n + 1), dtype=complex)
    J[:, :-1] = (1j * wk[:, None, None] * powers[:-1].swapaxes(1, 2) * B).reshape(n, n * n)
    J[:, -1] = wk * np.trace(powers[1:], axis1=1, axis2=2)
    return np.concatenate([J.real, J.imag])


def _image_lm(p: np.ndarray, residual, jacobian, target, steps: int, free_kappa: bool):
    """Levenberg-Marquardt from p on ``residual(p, target)``: the last accepted point as
    (p, |r|^2, state).

    A step is the dual-form -J^T (J J^T + lam tr(J J^T) / rows I)^-1 r, kept if it lowers
    |r|^2, with the damping rules of ``_lm_search``; log kappa stays put unless
    ``free_kappa``.  The restart stops once |r|^2 reaches IMAGE_FOUND_COST, after
    LM_STALL_STEPS accepted steps in a row that each lower it by less than LM_STALL_RTOL
    relative, once lam passes LM_MAX_DAMPING, after ``steps`` steps, or where a Jacobian
    or a solve fails.  A rejected step only raises lam: counted as flat too, it stopped
    restarts that were about to converge, and 34 of 264 searches (random diagonal
    matrices of order 3-16 and non-derogatory Jordan matrices, seeds 0-2) went on to the
    M search, against none.  A point whose |r|^2 is not finite is rejected."""
    r, state = residual(p, target)
    cost = float(r @ r)
    lam, stall, J = LM_DAMPING, 0, None
    for _ in range(steps):
        if not cost > IMAGE_FOUND_COST or stall >= LM_STALL_STEPS or lam > LM_MAX_DAMPING:
            break
        try:
            if J is None:
                J = jacobian(state, target)
                if not free_kappa:
                    J[:, -1] = 0.0
                K = J @ J.T
            Kd = K + lam * np.trace(K) / K.shape[0] * np.eye(K.shape[0])
            q = p - J.T @ np.linalg.solve(Kd, r)
            rq, state_q = residual(q, target)
        except np.linalg.LinAlgError:
            break
        cost_q = float(rq @ rq)
        if cost_q < cost:
            stall = stall + 1 if cost - cost_q < LM_STALL_RTOL * cost else 0
            p, r, state, cost, J = q, rq, state_q, cost_q, None
            lam = max(lam / LM_DAMPING_DOWN, LM_MIN_DAMPING)
        else:
            lam *= LM_DAMPING_UP
    return p, cost, state


def _image_search(A: np.ndarray, As: np.ndarray, unit: float, cfg: SearchConfig, blocks,
                  kappa: Optional[float] = None) -> Optional[SearchOutcome]:
    """Seek B = kappa exp(i Theta) similar to As, whose Jordan blocks are ``blocks``, one
    restart at a time: the first point that certifies against A, or None.

    Distinct eigenvalues are matched by ``_spectrum_residual``, and M = W P V^-1 maps A's
    eigenvectors V onto B's, W, permuted by the match P; a repeated eigenvalue by the power
    sums of ``_power_residual``, and M is ``jordan._intertwiner(As, B, blocks, seed)``.
    Restart r starts from Theta = the first n^2 entries of ``_initial_points``' row r, at
    log kappa = IMAGE_KAPPA_START times the Schur floor, or at ``kappa`` (at A's scale),
    which then stays fixed.  Every candidate is certified by ``_certify_search_point``.
    A find's ``best_defect`` is its certificate's modulus spread, ``restarts_used`` the
    1-based index of its restart, and ``restart_defects`` holds each restart tried, the
    find's included, by its final residual norm |r| (in eigenvalue units) times ``unit``."""
    n = As.shape[0]
    if len(blocks) == n:
        lam, V = np.linalg.eig(As)
        residual, jacobian, target = _spectrum_residual, _spectrum_jacobian, lam
    else:
        lam = np.array([mu for mu, size in blocks for _ in range(size)])
        k = np.arange(1, n + 1)[:, None]
        rho = float(np.abs(lam).max())
        residual, jacobian = _power_residual, _power_jacobian
        target = ((lam ** k).sum(axis=1), 1.0 / (k[:, 0] * rho ** (k[:, 0] - 1)))
    if kappa is None:
        log_kappa = math.log(IMAGE_KAPPA_START * float(np.sqrt(np.vdot(lam, lam).real)) / n)
    else:
        log_kappa = math.log(kappa / unit)
    X = _initial_points(cfg, n)
    defects = []
    for r in range(cfg.restarts):
        with np.errstate(over="ignore", invalid="ignore"):
            _, cost, state = _image_lm(np.append(X[r, :n * n], log_kappa), residual, jacobian,
                                       target, cfg.max_iters, kappa is None)
        defects.append(math.sqrt(cost) * unit)
        if not cost <= IMAGE_FOUND_COST:
            continue
        if residual is _spectrum_residual:
            _, _, W, match = state
            try:
                M = W[:, np.argsort(match)] @ np.linalg.inv(V)
            except np.linalg.LinAlgError:
                continue
        else:
            M = _intertwiner(As, state[0], blocks, cfg.seed)
        cert = _certify_search_point(np.concatenate([M.real.ravel(), M.imag.ravel()]), A, cfg)
        if cert is not None:
            mods = np.abs(cert.B)
            return SearchOutcome(True, float(mods.max() - mods.min()), cert, r + 1,
                                 tuple(defects))
    return None


def _normalized_image(x: np.ndarray, A: np.ndarray):
    xn = x / np.linalg.norm(x)
    M = _to_matrix(xn, A.shape[0])
    Minv = np.linalg.inv(M)
    return xn, M, Minv, M @ A @ Minv


def _uniformity_refine(x: np.ndarray, A: np.ndarray, steps: int):
    """Damped Gauss-Newton on the centered squared-modulus residuals.

    Each step linearizes the entry moduli of M A M^-1 around the current
    point and takes the least-squares step toward equal values, halving the
    step while the modulus spread does not improve.
    """
    def spread_of(z):
        B = _normalized_image(z, A)[3]
        mods = np.abs(B)
        return float(mods.max() - mods.min())

    try:
        best = spread_of(x)
    except np.linalg.LinAlgError:
        return x, math.inf
    for _ in range(steps):
        try:
            xn, _, Minv, B = _normalized_image(x, A)
        except np.linalg.LinAlgError:
            break
        v = (B.real ** 2 + B.imag ** 2).ravel()
        r = v - v.mean()
        J = _refine_jacobian(B, A @ Minv, Minv)
        try:
            delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        step_s = None
        for _ in range(20):
            try:
                step_s = spread_of(xn + t * delta)
            except np.linalg.LinAlgError:
                step_s = math.inf
            if step_s < best:
                break
            t *= 0.5
        else:
            break
        x = xn + t * delta
        best = min(best, step_s)
    return x, best


def _refine_jacobian(B: np.ndarray, AMinv: np.ndarray, Minv: np.ndarray) -> np.ndarray:
    """Jacobian of the centered |B_ij|^2 (rows ij) in Re(M_kl) then Im(M_kl) (columns).

    A unit step in Re(M_kl) moves B = M A M^-1 by
    dB_ij = delta_ik (A M^-1)_lj - B_ik (M^-1)_lj; one in Im(M_kl) by i dB.
    Batched over leading axes: (..., n, n) inputs give (..., n^2, 2n^2)."""
    n = B.shape[-1]
    dB = -np.einsum("...ik,...lj->...klij", B, Minv)
    dB[..., np.arange(n), :, np.arange(n), :] += AMinv
    P = B.conj()[..., None, None, :, :] * dB
    dv = 2.0 * np.concatenate([P.real, -P.imag], axis=-4)
    dv = dv.reshape(B.shape[:-2] + (2 * n * n, n * n))
    return (dv - np.add.reduce(dv, axis=-1, keepdims=True) / (n * n)).swapaxes(-1, -2)


def _certify_search_point(x: np.ndarray, A: np.ndarray,
                          cfg: SearchConfig) -> Optional[ApportionCertificate]:
    M = _to_matrix(x / np.linalg.norm(x), A.shape[0])
    Minv, rcond = inverse_and_rcond(M)
    if rcond < RCOND_THRESHOLD:
        return None
    # the absolute floor scales with A, since K(cA) = |c| K(A); where max|A| overflows,
    # every check on A would too
    floor = cfg.defect_target * float(np.abs(A).max())
    if floor == math.inf:
        return None
    tol = Tolerance(rel=cfg.defect_target, abs=floor)

    def build(_kappa: None) -> ApportionCertificate:
        B = M @ A @ Minv
        np.abs(B).sum()  # raises, refusing B, where a verifier's plain mean of |B| overflows
        return _certificate(M, Minv, B, is_uniform(B, tol).kappa, CertTag.SEARCH)

    try:
        return _certified(build, A, tol=tol)
    except ConstructionError:
        return None


# ---------------------------------------------------------------------------
# least zero padding that makes a matrix apportionable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaReport:
    """Per-padding outcomes and the resulting empirical/theory upper bounds."""

    outcomes: dict[int, SearchOutcome]
    sigma_upper_empirical: Optional[int]
    sigma_theory_upper: int

    def to_json(self, with_transcript=False) -> dict:
        return {
            "outcomes": {str(m): o.to_json(with_transcript) for m, o in self.outcomes.items()},
            "sigma_upper_empirical": self.sigma_upper_empirical,
            "sigma_theory_upper": self.sigma_theory_upper,
        }


def sigma_estimate(A_or_spec, m_max: int,
                   cfg: SearchConfig = SearchConfig()) -> SigmaReport:
    """Estimate the least m with A + O_m apportionable, for m = 0 .. m_max.

    Classification is consulted first at each padding (a theory verdict beats
    any search); the numerical search runs only on Unknown cases.  The
    reported value is an upper bound: search misses never prove anything.
    """
    _integer(m_max, 0, refusal=f"m_max must be a nonnegative integer, got {m_max!r}")
    spec, _ = _coerce(A_or_spec)
    n, r = spec.order, spec.rank
    if n + m_max > MAX_SEARCH_ORDER:
        raise SearchBudgetError(
            f"order + m_max must stay within {MAX_SEARCH_ORDER}"
        )
    theory_upper = min(max(2 * r - n, 0), n)
    outcomes: dict[int, SearchOutcome] = {}
    empirical: Optional[int] = None
    for m in range(0, m_max + 1):
        padded = JordanSpec(spec.blocks + ((0j, 1),) * m)
        report = classify(padded)
        if report.verdict is Verdict.APPORTIONABLE:
            cert = request_certificate(padded, report=report)
            rep = is_uniform(cert.B)
            outcomes[m] = SearchOutcome(True, rep.defect, cert, 0, ())
        elif report.verdict is Verdict.NOT_APPORTIONABLE:
            outcomes[m] = SearchOutcome(False, math.inf, None, 0, ())
        else:
            outcomes[m] = find_apportioning(build_jordan(padded), cfg)
        if empirical is None and outcomes[m].found:
            empirical = m
    return SigmaReport(outcomes=outcomes, sigma_upper_empirical=empirical,
                       sigma_theory_upper=theory_upper)
