"""Numerical search for transforming matrices, as a one-sided oracle.

M is parameterized by 2n^2 reals, Re(M) then Im(M), held at unit Frobenius
norm (the image M A M^-1 is scale invariant in M), and every search runs all
restarts side by side on a batch axis, holding only the restarts still
running.  An input far from unit scale is searched as A 2^-e.

At order 2, where the paper's classification is complete and every outcome
can be checked against it, the search is Levenberg-Marquardt on the centered
squared entry moduli of M A M^-1 (``_lm_search``).  A restart counts as
found once the relative modulus spread of its image reaches LM_FOUND_SPREAD
and the image re-verifies through the core checks.

At order 3 and above the objective is the variance of the squared entry
moduli, with a log-barrier on |det M|, minimized by multi-start BFGS with a
backtracking line search.  Each iteration evaluates the full step of every
restart in one batched objective call; the restarts that fail the Armijo
test then try their next steps 1/2, 1/4, ... together, in as few calls as
keep each within ``restarts`` rows, and take the first step that passes.
The objective is row-independent and the steps are exact powers of two, so
this is plain backtracking to the last bit, in fewer calls.  The search
direction is one batched matrix-vector product and the inverse-Hessian
update one rank-two matrix product per cache-sized block of restarts.  The
best candidates are then confirmed by Gauss-Newton refinement of the
uniformity residuals, re-measured with the true modulus spread, and
re-verified through the core checks.

Either way the search can only err toward "not found".  ``SearchConfig``
holds the four settings, ``restarts``, ``max_iters``, ``seed`` and
``defect_target``; the other constants are fixed below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classifier import _coerce, classify, request_certificate
from .constructors import ApportionCertificate, CertTag, _certificate, _certified
from .core import (RCOND_THRESHOLD, Tolerance, as_matrix, is_uniform, reciprocal_condition,
                   times_power_of_two, unit_exponent)
from .errors import ConstructionError, InvalidInputError, SearchBudgetError
from .jordan import JordanSpec, build_jordan
from .reports import Verdict

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "SigmaReport",
    "find_apportioning",
    "defect_objective",
    "sigma_estimate",
]

MAX_SEARCH_ORDER = 16
#: ceiling on the search's working memory, in bytes: the restarts x (2n^2)^2
#: BFGS inverse-Hessian stack, or restarts x LM_BYTES_PER_N4 x n^4 at order 2
MAX_HESSIAN_BYTES = 256 * 2**20
#: bytes per temporary of the inverse-Hessian update, which runs on blocks of
#: this many bytes' worth of rows (at least one): a block's temporaries stay
#: inside a 2 MiB L2 cache, and far below the stack they update
UPDATE_BLOCK_BYTES = 128 * 2**10
#: inputs whose scale 2^e (``core.unit_exponent``) lies outside this range are
#: searched at unit scale
SAFE_SCALE = (2.0 ** -64, 2.0 ** 64)

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
LM_STALL_STEPS = 10       # ... or after this many steps in a row that lower
LM_STALL_RTOL = 1e-3      # |r|^2 by less than this relative amount
LM_FOUND_SPREAD = 1e-12   # relative modulus spread at which an LM point is certified
#: bytes charged per LM restart at order n, over n^4: tracemalloc peaks read
#: 118-138 n^4 per restart at n = 2 and 93-109 n^4 at n = 3-6
LM_BYTES_PER_N4 = 160

#: the line search's step lengths 1, 1/2, 1/4, ..., exact as repeated products
_STEPS = np.cumprod([1.0] + [BACKTRACK_FACTOR] * (MAX_BACKTRACKS - 1))


@dataclass(frozen=True)
class SearchConfig:
    """Search budget: ``restarts`` starting points run for at most
    ``max_iters`` iterations from points drawn with ``seed``, aiming at a
    modulus spread of ``defect_target``.  At order 2 a point counts as found
    only once its relative spread reaches LM_FOUND_SPREAD, far below any
    usual target, and it is certified at ``defect_target``.  Equal configs
    and inputs give identical outcomes."""

    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0
    defect_target: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidInputError("restarts and max_iters must be positive")
        if self.defect_target <= 0:
            raise InvalidInputError("defect_target must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search: best spread found and, on success, a certificate.

    ``found`` requires more than a spread below ``defect_target``.  At order
    2 the winning point's relative spread must reach LM_FOUND_SPREAD; at
    higher orders it must refine to well below the target under a
    Gauss-Newton pass on the uniformity residuals.
    So ``best_defect`` can sit below ``defect_target`` with ``found`` False
    near matrices that are uniformizable only in an unbounded-entry limit.
    ``restarts_used`` is the 1-based index of the winning restart, or the full
    restart count when nothing was found.  ``restart_defects`` holds each
    restart's best spread for transcript output.
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

    Flagged rows get determinant 1 and inverse I, so callers evaluate them harmlessly."""
    n = M.shape[1]
    det = np.linalg.det(M) if n != 2 else M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    bad = ~np.isfinite(det) | (np.abs(det) < 1e-280)
    if bad.any():
        det = np.where(bad, 1.0, det)
        M = M.copy()
        M[bad] = np.eye(n)
    if n != 2:
        return det, np.linalg.inv(M), bad
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
    B = M @ A @ Minv
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


def _ladder_length(pending: int, left: int, restarts: int) -> int:
    """Backtracking steps that each of ``pending`` rows tries in one objective call.

    As many as keep the call within ``restarts`` rows, and at most the
    ``left`` steps of the backtracking budget."""
    return min(left, max(1, restarts // pending))


def _bfgs_update(H: np.ndarray, upd: np.ndarray, s: np.ndarray, y: np.ndarray,
                 sy: np.ndarray) -> None:
    """BFGS update, in place, of the inverse Hessians H[r] of the rows r where ``upd`` is set.

    With h = H y / sy and c = (sy + y.Hy) / sy^2 the update is
    H += (c s - h) s^T - s h^T, one (rows, D, 2) @ (rows, 2, D) product per
    block of rows whose (rows, D, D) product takes at most UPDATE_BLOCK_BYTES,
    or one row.  Every row gets the same operations at any block size, so the
    blocks change no bit of the result.  A block holds 50 rows at order 3, so
    one block covers the default 32 restarts there, and 3 rows at order 6.
    """
    D = H.shape[1]
    size = max(1, UPDATE_BLOCK_BYTES // (8 * D * D))
    every = upd.all()  # the usual case: update H through views, with no gather
    rows = None if every else np.flatnonzero(upd)
    for a in range(0, H.shape[0] if every else rows.size, size):
        r = slice(a, a + size) if every else rows[a:a + size]
        Hr, s_r, y_r, sy_r = H[r], s[r], y[r], sy[r]
        Hy = (Hr @ y_r[:, :, None])[:, :, 0]
        coeff = (sy_r + np.einsum("ri,ri->r", y_r, Hy)) / sy_r**2
        h = Hy / sy_r[:, None]
        Hr += np.stack([coeff[:, None] * s_r - h, -s_r], axis=2) @ np.stack([s_r, h], axis=1)
        if not every:
            H[r] = Hr


def _initial_points(cfg: SearchConfig, n: int) -> np.ndarray:
    return np.array([np.random.default_rng((cfg.seed, r)).standard_normal(2 * n * n)
                     for r in range(cfg.restarts)])


def find_apportioning(A, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Seek M making M A M^-1 uniform, up to the configured modulus spread.

    Runs the configured restarts in lockstep until one is found, all stall
    or converge, or the iteration budget ends: at order 2 by
    Levenberg-Marquardt (``_lm_search``), above it by BFGS.  A BFGS iteration
    costs one batched objective call for the full steps, plus, when some
    restart must backtrack, about one more for a ladder of its shorter steps
    (see the module docstring); once a restart reaches the target spread, the
    best few candidates are confirmed by Gauss-Newton refinement of the
    uniformity residuals.  A success is accepted only if M passes the
    nonsingularity gate and the image re-verifies as uniform at the target
    tolerance; failure to find is reported as evidence only, never as a
    verdict.
    """
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    if n > MAX_SEARCH_ORDER:
        raise SearchBudgetError(f"search is budgeted to order <= {MAX_SEARCH_ORDER}")
    R = cfg.restarts
    D = 2 * n * n
    if R * (LM_BYTES_PER_N4 * n**4 if n == 2 else D * D * 8) > MAX_HESSIAN_BYTES:
        raise SearchBudgetError(
            f"{R} restarts at order {n} exceed the {MAX_HESSIAN_BYTES >> 20} MiB search budget")
    # K(cA) = |c| K(A): far from unit scale the search runs on As = A 2^-e,
    # reports its spreads times 2^e and certifies against A itself; inside
    # SAFE_SCALE, As is A and the factor is 1.0
    e = unit_exponent(A)
    e = 0 if SAFE_SCALE[0] <= math.ldexp(1.0, e) <= SAFE_SCALE[1] else e
    As = times_power_of_two(A, -e) if e else A
    unit = math.ldexp(1.0, e)
    if n == 2:
        return _lm_search(A, As, unit, cfg)
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
        # Armijo backtracking: the full step (X + p is X + 1.0 * p to the bit)
        # for every row in one call, then ladders of the shorter steps for the
        # rows it failed
        new_X = X + p
        new_f, new_g, new_s = _objective_batch(new_X, As)
        pend = np.flatnonzero(~(new_f <= f + ARMIJO_C * gTp))
        depth = 1
        while pend.size and depth < MAX_BACKTRACKS:
            k = _ladder_length(pend.size, MAX_BACKTRACKS - depth, R)
            t = _STEPS[depth:depth + k, None]
            Xc = (X[pend] + t[:, :, None] * p[pend]).reshape(k * pend.size, D)
            fc, gc, sc = _objective_batch(Xc, As)
            ok = fc.reshape(k, pend.size) <= f[pend] + ARMIJO_C * t * gTp[pend]
            hit = ok.any(axis=0)
            c = ok.argmax(axis=0)[hit] * pend.size + np.flatnonzero(hit)
            acc = pend[hit]
            new_X[acc], new_f[acc], new_g[acc], new_s[acc] = Xc[c], fc[c], gc[c], sc[c]
            pend = pend[~hit]
            depth += k
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
    """Centered squared moduli r = v - mean(v), v = |B_ij|^2, of B = M A M^-1, batched.

    X holds unit-norm rows.  Also returns B, A M^-1, M^-1, the modulus spread
    and the relative spread (max|B| - min|B|) / max|B| (0 for B = 0) of each
    row; rows whose M is numerically singular or whose image leaves the float
    range get infinite residuals and spreads."""
    R, n = X.shape[0], A.shape[0]
    M = _to_matrix(X, n)
    _, Minv, bad = _det_inv_batch(M)
    with np.errstate(over="ignore", invalid="ignore"):
        AMinv = A @ Minv
        B = M @ AMinv
        v = (B.real**2 + B.imag**2).reshape(R, n * n)
        r = v - np.add.reduce(v, axis=1, keepdims=True) / (n * n)
        absB = np.sqrt(v)
        top = absB.max(axis=1)
        spread = top - absB.min(axis=1)
        rel = np.where(top > 0.0, spread / top, 0.0)
    bad |= ~np.isfinite(r).all(axis=1)
    if bad.any():
        r[bad], spread[bad], rel[bad] = np.inf, np.inf, np.inf
    return r, B, AMinv, Minv, spread, rel


def _lm_search(A: np.ndarray, As: np.ndarray, unit: float, cfg: SearchConfig) -> SearchOutcome:
    """Levenberg-Marquardt on the centered squared moduli of M As M^-1, batched over restarts.

    Each iteration takes, for every running restart, the dual-form step
    delta = -J^T (J J^T + lam tr(J J^T) / n^2 I)^-1 r, an n^2 x n^2 solve with
    J from ``_refine_jacobian``, and keeps it (back at unit norm) if it lowers
    |r|^2: lam is divided by LM_DAMPING_DOWN then, down to LM_MIN_DAMPING,
    and multiplied by LM_DAMPING_UP otherwise.  Every operation acts row by
    row, so a restart runs to the same bits in any batch.  A restart stops
    once lam passes
    LM_MAX_DAMPING, after LM_STALL_STEPS steps in a row that each lower |r|^2
    by less than LM_STALL_RTOL relative, where J vanishes, or once its
    relative spread reaches LM_FOUND_SPREAD; in that last case its point is
    certified against A, and the search ends if that succeeds.
    """
    n = As.shape[0]
    n2, diag = n * n, np.arange(n * n)
    X = _initial_points(cfg, n)
    R = X.shape[0]
    X /= np.sqrt(np.einsum("ri,ri->r", X, X))[:, None]
    r, B, AMinv, Minv, spread, rel = _lm_residuals(X, As)
    cost = np.einsum("ri,ri->r", r, r)
    lam = np.full(R, LM_DAMPING)
    stall = np.zeros(R, dtype=int)
    best = spread.copy()
    ids = np.arange(R)  # the restarts still running, as rows of the arrays below
    running = np.isfinite(cost)
    for it in range(cfg.max_iters + 1):
        hit = np.flatnonzero(rel <= LM_FOUND_SPREAD)
        if hit.size:
            for k in hit[np.lexsort((ids[hit], spread[hit]))]:
                cert = _certify_search_point(X[k], A, cfg)
                if cert is not None:
                    return SearchOutcome(True, float(spread[k]) * unit, cert, int(ids[k]) + 1,
                                         tuple(float(d) * unit for d in best))
            running[hit] = False
        if it == cfg.max_iters or not running.any():
            break
        if not running.all():
            ids, X, r, B, AMinv, Minv, spread, rel, cost, lam, stall = (
                a[running] for a in (ids, X, r, B, AMinv, Minv, spread, rel, cost, lam, stall))
        J = _refine_jacobian(B, AMinv, Minv)
        with np.errstate(over="ignore", invalid="ignore"):
            K = J @ J.swapaxes(1, 2)
            mu = lam * np.trace(K, axis1=1, axis2=2) / n2
            K[:, diag, diag] += mu[:, None]
            # J vanishes or overflows: the restart stops
            flat = ~(np.isfinite(mu) & (mu > 0.0))
            if flat.any():
                K[flat] = np.eye(n2)
            z = np.linalg.solve(K, r[:, :, None])
            step = X - (J.swapaxes(1, 2) @ z)[:, :, 0]
            step /= np.sqrt(np.einsum("ri,ri->r", step, step))[:, None]
        r_t, B_t, AMinv_t, Minv_t, spread_t, rel_t = _lm_residuals(step, As)
        cost_t = np.einsum("ri,ri->r", r_t, r_t)
        acc = (cost_t < cost) & ~flat
        gain = np.where(acc, (cost - cost_t) / np.where(acc, cost, 1.0), 0.0)
        stall = np.where(gain < LM_STALL_RTOL, stall + 1, 0)
        lam = np.where(acc, np.maximum(lam / LM_DAMPING_DOWN, LM_MIN_DAMPING),
                       lam * LM_DAMPING_UP)
        if acc.all():
            X, r, B, AMinv, Minv, spread, rel, cost = (
                step, r_t, B_t, AMinv_t, Minv_t, spread_t, rel_t, cost_t)
        elif acc.any():
            X[acc], r[acc], B[acc], AMinv[acc], Minv[acc] = (
                step[acc], r_t[acc], B_t[acc], AMinv_t[acc], Minv_t[acc])
            spread[acc], rel[acc], cost[acc] = spread_t[acc], rel_t[acc], cost_t[acc]
        best[ids] = np.minimum(best[ids], spread)
        running = (lam <= LM_MAX_DAMPING) & (stall < LM_STALL_STEPS) & ~flat
    return SearchOutcome(False, float(best.min()) * unit, None, R,
                         tuple(float(d) * unit for d in best))


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
    if reciprocal_condition(M) < RCOND_THRESHOLD:
        return None
    # the absolute floor scales with A, since K(cA) = |c| K(A)
    tol = Tolerance(rel=cfg.defect_target, abs=cfg.defect_target * float(np.abs(A).max()))

    def build() -> ApportionCertificate:
        Minv = np.linalg.inv(M)
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
