"""Constructive apportionment routines.

Each public ``apportion_*`` function returns an ApportionCertificate (M, its inverse,
the uniform image B = M A M^-1 and the achieved modulus), built in closed form by its
matrix class's rule (``rules.RULES``) through one route, ``_by_rule``: it matches the rule
on a JordanSpec, builds with the match's builder, places the certificate in the spec's
block order (``_placed``) and checks it against the caller's matrix.
``request_certificate`` takes a classified matrix's rule; the constructors call it on
their class's spec, but half rank and I + O, whose inputs can classify under an earlier
rule, name theirs.  Only the perturbed identity's Fourier route is built outside it.
Every certificate leaves the package through ``_certified``, whether it comes from a
constructor, a padding, scaling or reordering helper, ``request_certificate`` or
the search: a requested kappa is read once, by ``_member``, against its class's
``ConstantSet``, the build runs with floating-point faults raised as ConstructionError,
and the finished certificate is checked once against the caller's matrix A: Minv
inverts M (max|M Minv - I| <= n 1e-10), B is uniform at kappa, and M A Minv = B to within
kappa's tolerance.  Paddings, scalings and block permutations in a build check nothing.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import gc
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .core import (UniformityReport, _image, _max_modulus, as_matrix, check_inverse, is_uniform,
                   times_power_of_two, unit_exponent)
from .errors import (
    ConstantNotAchievableError,
    ConstructionError,
    InvalidInputError,
)
from .jordan import (_arranged_spec, _block_rows, _inverse_below, _require_dense_order,
                     build_jordan, geometric_diagonal)
from .reports import ClassificationReport, ConstantSet, SetShape, Verdict
from .rules import (_PERTURB_ORDER_REFUSAL, _RULES_BY_TAG, MatrixLike, TemplateKind,
                    _classify_spec, _half_rank_constants, _order_two, perturb_identity_constants)
from .scalar import DEFAULT_TOL, Tolerance, _integer, modulus
from .spec import JordanSpec

__all__ = [
    "CertTag",
    "ApportionCertificate",
    "verify_certificate",
    "reorder_certificate",
    "scale_certificate",
    "pad_by_zero",
    "apportion_nilpotent",
    "apportion_I_oplus_O",
    "HalfRankPlan",
    "half_rank_plan",
    "apportion_half_rank",
    "apportion_A_oplus_zeros",
    "SpiralSolution",
    "spiral_sum",
    "apportion_rank_one",
    "apportion_perturb_identity",
    "TwoByTwoPlan",
    "two_by_two_plan",
    "apportion_2x2",
    "polar_condition_2x2",
    "apportion_3x3_template",
    "request_certificate",
]

_SIXTH = cmath.exp(1j * math.pi / 3)        # primitive twelfth root, e^(i pi/3)
_THIRD = cmath.exp(2j * math.pi / 3)        # e^(2 pi i/3)


class CertTag(str, enum.Enum):
    PAD_ZERO = "PadZero"
    NILPOTENT = "Nilpotent"
    I_OPLUS_O = "IOplusO"
    HALF_RANK = "HalfRank"
    RANK_ONE = "RankOne"
    PERTURB_IDENTITY = "PerturbIdentity"
    TWO_BY_TWO = "TwoByTwo"
    THREE_BY_THREE_TEMPLATE = "ThreeByThreeTemplate"
    SEARCH = "Search"


@dataclass(frozen=True)
class ApportionCertificate:
    """A transforming matrix, its inverse, the uniform image, and its modulus."""

    M: np.ndarray
    Minv: np.ndarray
    B: np.ndarray
    kappa: float
    theorem_tag: CertTag

    @property
    def order(self) -> int:
        return self.M.shape[0]

    def to_json(self) -> dict:
        """The certificate as JSON types.  The cyclic collector is paused across the
        conversions, and left as it was found, even on error: ``tolist`` allocates three
        nested lists of n^2 pairs, which would run it many times to find no cycle (on
        J_256 most of the call's time)."""
        def mat(x):  # [re, im] pairs, nested by row, in one pass
            x = np.asarray(x, dtype=complex)
            return np.stack((x.real, x.imag), axis=-1).tolist()

        collecting = gc.isenabled()
        gc.disable()
        try:
            return {
                "order": self.order,
                "kappa": self.kappa,
                "theorem_tag": self.theorem_tag.value,
                "M": mat(self.M),
                "Minv": mat(self.Minv),
                "B": mat(self.B),
            }
        finally:
            if collecting:
                gc.enable()


def _check_image(B, M, A, Minv, kappa: float, tol: Tolerance) -> None:
    """ConstructionError unless max|M A Minv - B| <= tol.rel kappa + tol.abs, with the
    product formed as ``similarity_image`` forms it (``core._image``)."""
    defect = _max_modulus(_image(M, A, Minv) - B)
    if not defect <= tol.rel * kappa + tol.abs:   # a NaN defect fails too
        raise ConstructionError(f"image M A Minv differs from B by {defect:.3e}")


def _check(cert: ApportionCertificate, A, tol: Tolerance) -> UniformityReport:
    """Inverse product, uniformity at kappa, the image against B if A is given; B's report.
    kappa is tested against B's finite modulus first, so only a finite kappa sets a tolerance."""
    M, Minv, B = (np.asarray(x, dtype=complex) for x in (cert.M, cert.Minv, cert.B))
    if A is not None:
        A = np.asarray(A, dtype=complex)
        if A.shape != M.shape:
            raise InvalidInputError(
                f"order mismatch: the certificate is {M.shape}, A is {A.shape}")
    kappa = cert.kappa
    ok, inv_err = check_inverse(M, Minv)
    if not ok:
        raise ConstructionError(f"inverse product check failed: {inv_err:.3e}")
    rep = is_uniform(B, tol)
    if not rep.is_uniform:
        raise ConstructionError(f"image is not uniform: defect {rep.defect:.3e}")
    if not abs(rep.kappa - kappa) <= 1e-9 * rep.kappa:   # an inf or NaN kappa fails
        raise ConstructionError(
            f"achieved modulus {rep.kappa!r} does not match requested {kappa!r}"
        )
    if A is not None:
        _check_image(B, M, A, Minv, kappa, tol)
    return rep


def _certificate(M, Minv, B, kappa, tag) -> ApportionCertificate:
    """Assemble a certificate, unchecked: it is checked once, by ``_certified``."""
    return ApportionCertificate(*(np.asarray(x, dtype=complex) for x in (M, Minv, B)),
                                float(kappa), tag)


def _member(kappa, constants: ConstantSet) -> float:
    """The one kappa reader: the member of ``constants`` a build gets for a caller's kappa.
    A non-real kappa, or a bool, is InvalidInputError, a non-member
    ConstantNotAchievableError; a kappa that membership's tolerance admits below a closed
    half-line is raised to ``lo``, and one near a finite set's value becomes that value."""
    if type(kappa) is bool or not isinstance(kappa, numbers.Real):
        raise InvalidInputError(f"kappa must be a real number, not {kappa!r}")
    try:
        kappa = float(kappa)
    except OverflowError:   # an int beyond the float range, which no set holds
        kappa = math.inf if kappa > 0 else -math.inf
    if constants.contains(kappa) is not True:
        raise ConstantNotAchievableError(
            f"kappa = {kappa!r} is outside the certified part of {constants.describe()}",
            constants=constants,
        )
    if constants.shape is SetShape.CLOSED_HALF_LINE:
        return max(kappa, constants.lo)
    if constants.shape is SetShape.FINITE:
        return min(constants.values, key=lambda v: abs(v - kappa))
    return kappa


@contextlib.contextmanager
def _guarded(kappa: Optional[float]):
    """Overflow, division by zero, invalid operations and singular solves in the block
    raised as ConstructionError: at an extreme kappa a construction leaves the float
    range, which is a failed construction, not NaNs and warnings."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        at = "" if kappa is None else f" at kappa = {kappa!r}"
        raise ConstructionError(f"construction fails in floating point{at}: {exc}") from exc


def _certified(build: Callable[[Optional[float]], ApportionCertificate], A, kappa=None,
               constants: Optional[ConstantSet] = None,
               tol: Tolerance = DEFAULT_TOL) -> ApportionCertificate:
    """The one way a certificate leaves the package: a given ``kappa`` is read by ``_member``
    against ``constants``, ``build`` runs ``_guarded`` on the member (None without a kappa),
    and its certificate is checked once against A (without the residual when A is None)."""
    if kappa is not None:
        kappa = _member(kappa, constants)
    with _guarded(kappa):
        cert = build(kappa)
        _check(cert, A, tol)
    return cert


def verify_certificate(cert: ApportionCertificate, A, tol: Tolerance = DEFAULT_TOL):
    """Re-check a certificate against the matrix A it claims to apportion: max|M Minv - I|
    <= n 1e-10, B uniform at kappa, and max|M A Minv - B| <= tol.rel kappa + tol.abs.

    Returns the UniformityReport of B; raises ConstructionError on any failure.
    """
    return _check(cert, as_matrix(A, square=True, name="A"), tol)


def _placed(cert: ApportionCertificate, built: tuple, spec: JordanSpec) -> ApportionCertificate:
    """A certificate built for the blocks ``built`` becomes one for ``spec``'s order of them,
    unchecked, by exact data movement: the one code that moves M's columns and Minv's rows.
    Each built block takes the first unused position of ``spec`` that holds the same block."""
    if built == spec.blocks:
        return cert
    free: dict = {}   # block -> its unused positions in spec, the first one last
    for i in reversed(range(len(spec.blocks))):
        free.setdefault(spec.blocks[i], []).append(i)
    rows = _block_rows(spec, [free[blk].pop() for blk in built])
    M = np.empty(cert.M.shape, dtype=complex)
    Minv = np.empty(cert.Minv.shape, dtype=complex)
    M[:, rows] = cert.M
    Minv[rows] = cert.Minv
    return _certificate(M, Minv, cert.B, cert.kappa, cert.theorem_tag)


def reorder_certificate(cert: ApportionCertificate, Q: np.ndarray,
                         A=None) -> ApportionCertificate:
    """Conjugate by a permutation: a certificate for Q A Q^T becomes one for A."""
    return _certified(lambda _: _certificate(cert.M @ Q, Q.T @ cert.Minv, cert.B, cert.kappa,
                                             cert.theorem_tag), A)


def _scaled(cert: ApportionCertificate, mu: complex) -> ApportionCertificate:
    """A certificate for A becomes one for mu*A, unchecked; the same M works unchanged."""
    return _certificate(cert.M, cert.Minv, mu * cert.B, modulus(mu, times=cert.kappa),
                        cert.theorem_tag)


def scale_certificate(cert: ApportionCertificate, mu: complex,
                      A=None) -> ApportionCertificate:
    """A certificate for A becomes one for mu*A; the same M works unchanged."""
    mu = complex(mu)
    if mu == 0:
        raise InvalidInputError("scale factor must be nonzero")
    return _certified(lambda _: _scaled(cert, mu), A)


def _coerce_spec(a) -> JordanSpec:
    """Raw entries must already be a Jordan arrangement: its blocks, as the entries hold
    them, in their order."""
    return a if isinstance(a, JordanSpec) else _arranged_spec(a)


def _by_rule(tag: str, spec: JordanSpec, A, kappa=None) -> ApportionCertificate:
    """The certificate of rule ``tag`` for ``spec``, checked against A: the rule is matched
    on ``spec``, kappa is read against that match's constant set (its default member when
    kappa is None), and the build, placed in ``spec``'s block order, is checked once."""
    rule = _RULES_BY_TAG.get(tag)
    found = None if rule is None else rule.match(spec)
    if found is None or found[2] is None:
        raise InvalidInputError(f"no constructive path for tag {tag!r} on this matrix")
    _, constants, build = found
    return _certified(lambda k: _placed(*build(k), spec), A,
                      constants.smallest_member() if kappa is None else kappa, constants)


def request_certificate(input_matrix: MatrixLike, kappa: Optional[float] = None,
                        report: Optional[ClassificationReport] = None
                        ) -> ApportionCertificate:
    """Build a certificate for an Apportionable input at ``kappa``.

    ``kappa`` is read against the constant set of the report's rule matched on the input,
    the matrix being built, and defaults to a deterministic member of it.  Raises
    InvalidInputError when kappa is not real, the verdict is not Apportionable or the rule
    does not match the input (the certificate is built by that rule, for the shape it
    matches); ConstantNotAchievableError when kappa is outside the (known part of the)
    set; and ConstructionError when the construction leaves the float range.  Raw
    entries must already sit in Jordan-block arrangement (certificates are
    built for the input matrix, in its own block order); conjugated raw input
    is refused since recovering a transforming basis for it is out of scope.
    The certificate is checked once, against the raw entries themselves when
    they are given, else against the Jordan matrix of the spec.
    """
    spec = _coerce_spec(input_matrix)
    report = report or _classify_spec(spec)
    if report.verdict is not Verdict.APPORTIONABLE:
        raise InvalidInputError(
            f"no constructive certificate: verdict is {report.verdict.value}"
        )
    A = build_jordan(spec) if isinstance(input_matrix, JordanSpec) else as_matrix(input_matrix)
    return _by_rule(report.theorem_tag, spec, A, kappa)


# ---------------------------------------------------------------------------
# padding by a zero row/column
# ---------------------------------------------------------------------------

def _padded(cert: ApportionCertificate) -> ApportionCertificate:
    """The certificate for A + [0] from one for A, same modulus, unchecked: the bordered
    transform has a closed-form inverse, so M, Minv and B are assembled exactly from blocks."""
    n = cert.order
    om = _SIXTH
    M, Minv, B = cert.M, cert.Minv, cert.B

    Mp = np.zeros((n + 1, n + 1), dtype=complex)
    Mp[:n, :n] = M
    Mp[0, n] = -om
    Mp[n, :n] = om * M[0, :]
    Mp[n, n] = 1.0

    Minvp = np.zeros((n + 1, n + 1), dtype=complex)
    Minvp[:n, :n] = Minv
    Minvp[:n, 0] = Minv[:, 0] * om.conjugate()
    Minvp[:n, n] = Minv[:, 0]
    Minvp[n, 0] = -1.0
    Minvp[n, n] = om.conjugate()

    Bp = np.zeros((n + 1, n + 1), dtype=complex)
    Bp[:n, :n] = B
    Bp[:n, 0] = B[:, 0] * om.conjugate()
    Bp[:n, n] = B[:, 0]
    Bp[n, :n] = om * B[0, :]
    Bp[n, 0] = B[0, 0]
    Bp[n, n] = om * B[0, 0]
    return ApportionCertificate(Mp, Minvp, Bp, cert.kappa, CertTag.PAD_ZERO)


def pad_by_zero(cert: ApportionCertificate, A=None) -> ApportionCertificate:
    """Extend a certificate for A to one for A + [0], checked against A + [0] if A is given."""
    Ap = None if A is None else np.pad(as_matrix(A, square=True, name="A"), (0, 1))
    return _certified(lambda _: _padded(cert), Ap)


def _peel_and_pad(spec: JordanSpec, peel: list[int], build_core, tag: CertTag
                  ) -> tuple[ApportionCertificate, tuple]:
    """Build on the blocks outside ``peel`` (zero 1-blocks) by ``build_core``, which returns a
    certificate and its blocks, and re-attach each peeled block by zero padding, unchecked:
    the certificate, stamped ``tag``, and its blocks, the peeled ones last."""
    core = JordanSpec(tuple(blk for i, blk in enumerate(spec.blocks) if i not in peel))
    cert, built = build_core(core)
    for _ in peel:
        cert = _padded(cert)
    return replace(cert, theorem_tag=tag), built + tuple(spec.blocks[i] for i in peel)


# ---------------------------------------------------------------------------
# nilpotent matrices
# ---------------------------------------------------------------------------

def _nilpotent_core(spec: JordanSpec, kappa: float) -> ApportionCertificate:
    """Apportion a nilpotent Jordan matrix whose blocks all have size >= 2.

    M = I + P D with P the cyclic shift and D a diagonal of unit-modulus
    phases stepping by pi/3, whose adjugate is the alternating geometric sum
    of powers of P D.  The raw image has common modulus 1/sqrt(3); a per-block
    geometric diagonal rescales it to the requested modulus.
    """
    n = spec.order
    angles = [(j - 1) * math.pi / 3 for j in range(1, n)]
    last = 2 * math.pi / 3 - math.pi * n - sum(angles)
    d = np.array([cmath.exp(1j * a) for a in angles] + [cmath.exp(1j * last)])
    cols = np.arange(n)
    nxt = (cols + 1) % n           # the cyclic shift P: e_j -> e_(j+1 mod n)
    M0 = np.eye(n, dtype=complex)
    M0[nxt, cols] = d              # I + P D
    # (-P D)^k is monomial: column j holds V[k, j] in row j + k mod n, with
    # V[k, j] = V[k-1, j+1] (-d_j); for k = 0 .. n-1 these rows fill the
    # adjugate once each
    V = np.empty((n, n), dtype=complex)
    V[0] = 1.0
    minus_d = -d
    for k in range(1, n):
        V[k] = V[k - 1][nxt] * minus_d
    adj = np.empty((n, n), dtype=complex)
    adj[(cols[:, None] + cols) % n, cols] = V
    det = 1.0 - _THIRD
    M0inv = adj / det
    A = build_jordan(spec)
    B0 = (M0 @ A) @ M0inv          # uniform, common modulus 1/sqrt(3)
    kappa0 = 1.0 / math.sqrt(3.0)
    factor = kappa0 / kappa
    svec = geometric_diagonal(spec, factor)
    M = M0 * svec[None, :]
    Minv = M0inv / svec[:, None]
    B = (kappa / kappa0) * B0
    return ApportionCertificate(M, Minv, B, kappa, CertTag.NILPOTENT)


def _zero(spec: JordanSpec) -> ApportionCertificate:
    """The zero matrix's certificate, unchecked: M = I and B = O, at kappa 0."""
    n = spec.order
    return _certificate(np.eye(n), np.eye(n), build_jordan(spec), 0.0, CertTag.NILPOTENT)


def _nilpotent(spec: JordanSpec, kappa: float) -> tuple[ApportionCertificate, tuple]:
    """``apportion_nilpotent`` at a member kappa, unchecked, and the blocks it was built
    for: those of size >= 2 in ``spec``'s order, then the 1-blocks."""
    ones = [i for i, (_, s) in enumerate(spec.blocks) if s == 1]
    return _peel_and_pad(spec, ones, lambda core: (_nilpotent_core(core, kappa), core.blocks),
                         CertTag.NILPOTENT)


def apportion_nilpotent(spec: JordanSpec, kappa: float) -> ApportionCertificate:
    """Apportion a nilpotent Jordan matrix at a member kappa of its set: any kappa > 0,
    or kappa = 0 for the zero matrix (M = I, B = O).

    Size-1 blocks are stripped, the core construction runs on the remaining
    blocks, the stripped blocks are re-attached by zero padding (modulus
    preserved at each step), and the result is placed in input block order.
    """
    spec = _coerce_spec(spec)
    if not spec.is_nilpotent():
        raise InvalidInputError("spectrum must be exactly zero")
    return request_certificate(spec, kappa)


# ---------------------------------------------------------------------------
# identity plus zero block of equal size
# ---------------------------------------------------------------------------

def _split_vector(n2: int, cut: int, hi: complex, lo: complex) -> np.ndarray:
    """Vector with ``lo`` in entries below ``cut`` (0-based) and ``hi`` from it on."""
    v = np.empty(n2, dtype=complex)
    v[:cut] = lo
    v[cut:] = hi
    return v


def apportion_I_oplus_O(n: int, kappa: float) -> ApportionCertificate:
    """Certificate for I_n + O_n (order 2n) at any kappa >= 1/2.

    Columns u_k split at position 2k between -conj(zeta) and zeta with
    Re(zeta) = 1/2, |zeta| = kappa; rows v_k are the adjacent differences
    e_{2k} - e_{2k-1}.  Their outer-product sum is the uniform image.  M is
    completed by the columns that jump from -1 to 1 at an even position, which
    every v_k annihilates.
    """
    n = _integer(n, 1, refusal="n must be a positive integer")
    _require_dense_order(2 * n)
    spec = JordanSpec(((1 + 0j, 1),) * n + ((0j, 1),) * n)
    return _by_rule("identity-plus-zero", spec, build_jordan(spec), kappa)


def _identity_plus_zero(n: int, kappa: float) -> ApportionCertificate:
    """``apportion_I_oplus_O`` at a member kappa >= 1/2, unchecked; a kappa below 1/2 (a
    subnormal eigenvalue's rounding) is numpy's invalid sqrt, raised by ``_guarded``."""
    zeta = 0.5 + 1j * np.sqrt(kappa * kappa - 0.25)
    N = 2 * n
    M = np.empty((N, N), dtype=complex)
    V = np.zeros((n, N), dtype=complex)
    for k in range(1, n + 1):
        M[:, k - 1] = _split_vector(N, 2 * k - 1, zeta, -zeta.conjugate())
        M[:, n + k - 1] = _split_vector(N, 2 * k, 1.0, -1.0)
        V[k - 1, 2 * k - 1] = 1.0
        V[k - 1, 2 * k - 2] = -1.0
    return _certificate(M, _inverse_below(M, V), M[:, :n] @ V, kappa, CertTag.I_OPLUS_O)


# ---------------------------------------------------------------------------
# rank at most half the order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfRankPlan:
    """Ingredients of the half-rank construction, for one sorted Jordan input.

    ``zetas``/``gammas`` are keyed by 1-based index k over the first r
    positions with nonzero (rescaled) eigenvalue; ``us`` holds all 2r columns
    (the hatted difference vectors occupy columns r+1..2r), ``vs`` the first r
    inverse rows.  ``phi`` maps each column index of the Jordan matrix to the
    column of ``us`` that carries it; restricted to ``omega_set`` it is the
    order-preserving enumeration onto 1..r.
    """

    zetas: dict[int, complex]
    gammas: dict[int, complex]
    us: np.ndarray
    vs: np.ndarray
    omega_set: tuple[int, ...]
    phi: tuple[int, ...]


def _half_rank_plan_sorted(spec: JordanSpec, kappa: float) -> HalfRankPlan:
    N = spec.order
    r = spec.rank
    if 2 * r != N:
        raise InvalidInputError("internal: plan needs rank exactly half the order")
    mu = spec.diagonal / kappa
    if np.count_nonzero(mu) != np.count_nonzero(spec.diagonal):
        raise ConstructionError(
            f"construction fails in floating point at kappa = {kappa!r}: an eigenvalue "
            "divided by kappa underflows to 0")
    alphas = spec.alphas
    us = np.empty((N, N), dtype=complex)
    vs = np.zeros((r, N), dtype=complex)
    zetas: dict[int, complex] = {}
    gammas: dict[int, complex] = {}
    for k in range(1, r + 1):
        us[:, r + k - 1] = _split_vector(N, 2 * k, 1.0, -1.0)
        m = mu[k - 1]
        if m != 0:
            am = modulus(m)
            zeta = am / 2.0 + 1j * math.sqrt(4.0 - am * am) / 2.0
            gamma = ((zeta.conjugate() ** 2 - 1.0) * m) ** k
            zetas[k] = zeta
            gammas[k] = gamma
            us[:, k - 1] = _split_vector(N, 2 * k - 1, zeta, -zeta.conjugate()) / (gamma * am)
            vs[k - 1, 2 * k - 1] = gamma
            vs[k - 1, 2 * k - 2] = -gamma
        else:
            us[:, k - 1] = _split_vector(N, 2 * k - 1, _SIXTH,
                                         -cmath.exp(5j * math.pi / 3))
            vs[k - 1, 2 * k - 1] = 1.0
            vs[k - 1, 2 * k - 2] = -1.0
    omega = [1] + [
        ell for ell in range(2, N + 1)
        if mu[ell - 1] != 0 or (ell >= 2 and alphas[ell - 2] == 1)
    ]
    if len(omega) != r:
        raise InvalidInputError("internal: nonzero-column count differs from rank")
    # omega onto 1..r in order, then the other columns onto r+1..N in order
    phi = [0] * N
    for j, k in enumerate(omega + [k for k in range(1, N + 1) if k not in omega], start=1):
        phi[k - 1] = j
    return HalfRankPlan(zetas=zetas, gammas=gammas, us=us, vs=vs,
                        omega_set=tuple(omega), phi=tuple(phi))


def half_rank_plan(spec: JordanSpec, kappa: float) -> HalfRankPlan:
    """Plan for the canonically sorted version of ``spec`` (rank = order/2)."""
    kappa = _member(kappa, _half_rank_constants(spec))
    with _guarded(kappa):
        return _half_rank_plan_sorted(spec.canonical(), kappa)


def _half_rank_exact(spec: JordanSpec, kappa: float) -> tuple[ApportionCertificate, tuple]:
    """Construction at rank exactly half the order, unchecked, for ``spec``'s blocks in
    canonical order; returns the certificate and those blocks."""
    sorted_spec = spec.canonical()
    plan = _half_rank_plan_sorted(sorted_spec, kappa)
    # column j of the Jordan matrix is carried by column phi(j) of us
    cols = [p - 1 for p in plan.phi]
    P, Q = plan.us[:, cols], _inverse_below(plan.us, plan.vs)[cols]
    # T: the sorted Jordan matrix with diagonal mu = lambda / kappa; its columns outside
    # omega_set vanish, so only the known rows vs of Q enter B
    T = build_jordan(sorted_spec)
    np.fill_diagonal(T, sorted_spec.diagonal / kappa)
    B = kappa * ((P @ T) @ Q)
    svec = geometric_diagonal(sorted_spec, 1.0 / kappa)
    return (ApportionCertificate(P * svec[None, :], Q / svec[:, None], B, kappa,
                                 CertTag.HALF_RANK), sorted_spec.blocks)


def _half_rank(spec: JordanSpec, kappa: float) -> tuple[ApportionCertificate, tuple]:
    """``apportion_half_rank`` at a member kappa, unchecked, for a spec that is not
    nilpotent, with its blocks: the kept ones sorted, then the peeled zero 1-blocks."""
    m = spec.order - 2 * spec.rank
    # each zero 1-block adds 1 to n - 2r and no other block adds anything: m <= their count
    zero_ones = [i for i, (lam, s) in enumerate(spec.blocks) if lam == 0 and s == 1]
    return _peel_and_pad(spec, zero_ones[len(zero_ones) - m:],
                         lambda core: _half_rank_exact(core, kappa), CertTag.HALF_RANK)


def apportion_half_rank(A_or_spec: Union[JordanSpec, np.ndarray],
                        kappa: float) -> ApportionCertificate:
    """Apportion a matrix of rank at most half its order at any kappa above
    half the spectral radius (strict).

    Nilpotent input is delegated to the nilpotent construction.  When the rank
    is strictly below half the order, zero 1-blocks are peeled off until rank
    equals half the order, the exact construction runs, the peeled blocks are
    re-attached by zero padding, and the result is placed in input block order.
    """
    spec = _coerce_spec(A_or_spec)
    if spec.is_nilpotent():
        return apportion_nilpotent(spec, kappa)
    n, r = spec.order, spec.rank
    if 2 * r > n:
        raise InvalidInputError(
            f"rank {r} exceeds half the order {n}; this construction does not apply")
    return _by_rule("half-rank", spec, build_jordan(spec), kappa)


def apportion_A_oplus_zeros(A_or_spec: Union[JordanSpec, np.ndarray],
                            kappa: float) -> tuple[ApportionCertificate, int]:
    """Pad A (rank r >= order/2) with zeros up to order 2r and apportion.

    Returns the certificate together with the padding count m = 2r - n, an
    upper-bound witness for the least number of zero rows/columns that make
    the matrix apportionable.
    """
    spec = _coerce_spec(A_or_spec)
    n, r = spec.order, spec.rank
    if 2 * r < n:
        raise InvalidInputError("rank below half the order: no padding is needed")
    m = 2 * r - n
    padded = JordanSpec(spec.blocks + ((0j, 1),) * m)
    return apportion_half_rank(padded, kappa), m


# ---------------------------------------------------------------------------
# rank one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpiralSolution:
    """Angles theta_j with r * sum_j exp(i theta_j) = 1."""

    rho: float
    alpha: float
    thetas: tuple[float, ...]


def spiral_sum(n: int, r: float) -> SpiralSolution:
    """Find theta_1..theta_n with r * sum exp(i theta_j) = 1 for r >= 1/n.

    The modulus f(theta) = |sum_j exp(i j theta)| = |sin(n theta/2) / sin(theta/2)|
    falls monotonically from n at 0 to 0 at 2 pi / n; its crossing of 1/r is
    pinned by bisection on that interval, then all angles are rotated so the
    sum lands on the real axis.
    """
    n = _integer(n, 2, refusal="n must be an integer >= 2")
    r = float(r)
    if not r >= 1.0 / n:   # a NaN r fails too
        raise InvalidInputError(
            f"r = {r!r} is infeasible: the sum of {n} unit phasors cannot reach 1/r"
        )
    sol = _spiral_angles(n, r)
    total = sum(cmath.exp(1j * t) for t in sol.thetas)    # rotated onto the real axis
    if abs(abs(total) - 1.0 / r) > 1e-12 * max(1.0, 1.0 / r):
        raise ConstructionError(f"bisection failed to pin the crossing at r = {r!r}")
    if abs(r * total - 1.0) > 1e-10:
        raise ConstructionError("phase-sum identity check failed")
    return sol


def _spiral_angles(n: int, r: float) -> SpiralSolution:
    """``spiral_sum``'s bisection and rotation, unchecked, for n >= 2 and r > 0."""
    y = 1.0 / r

    def g(theta: float) -> float:
        if theta == 0.0:
            return n - y
        return abs(math.sin(n * theta / 2.0) / math.sin(theta / 2.0)) - y

    if g(0.0) <= 0.0:
        rho = 0.0
    else:
        lo_t, hi_t = 0.0, 2.0 * math.pi / n
        while True:
            mid = 0.5 * (lo_t + hi_t)
            if mid == lo_t or mid == hi_t:
                break
            if g(mid) <= 0.0:
                hi_t = mid
            else:
                lo_t = mid
        rho = hi_t if abs(g(hi_t)) <= abs(g(lo_t)) else lo_t
    alpha = cmath.phase(sum(cmath.exp(1j * j * rho) for j in range(1, n + 1)))
    return SpiralSolution(rho, alpha, tuple(j * rho - alpha for j in range(1, n + 1)))


def _rank_one(lam: complex, n: int, kappa: float) -> ApportionCertificate:
    """``apportion_rank_one`` at a member kappa, unchecked."""
    if n == 1:   # a 1x1 matrix is similar only to itself
        return _certificate(np.eye(1), np.eye(1), [[lam]], modulus(lam), CertTag.RANK_ONE)
    r = modulus(lam, dividing=kappa)
    sol = _spiral_angles(n, r)
    vraw = r * np.exp(1j * np.array(sol.thetas))
    v = vraw / vraw.sum()       # v^T 1 = 1
    # M = [1 | e_j - (v_j/v_0) e_0] has the closed-form inverse I - 1 v^T with row 0 set
    # to v^T
    M = np.eye(n, dtype=complex)
    M[:, 0] = 1.0
    M[0, 1:] = -v[1:] / v[0]
    Minv = np.eye(n, dtype=complex) - v
    Minv[0] = v
    return _certificate(M, Minv, lam * np.tile(v, (n, 1)), kappa, CertTag.RANK_ONE)


def apportion_rank_one(lam: complex, n: int, kappa: float) -> ApportionCertificate:
    """Certificate for diag(lam, 0, ..., 0) of order n at any kappa >= |lam|/n.

    The image is lam * u v^T with u all ones and v of constant modulus
    kappa/|lam|, phased so that v^T u = 1.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidInputError("lam must be nonzero; zero spectrum is a nilpotent case")
    n = _integer(n, 1, refusal="n must be a positive integer")
    _require_dense_order(n)
    return request_certificate(JordanSpec(((lam, 1),) + ((0j, 1),) * (n - 1)), kappa)


# ---------------------------------------------------------------------------
# rank-one perturbations of the identity
# ---------------------------------------------------------------------------

def _perturb_identity(n: int, lam: complex, target: Optional[float]) -> ApportionCertificate:
    """``apportion_perturb_identity`` at a member target, unchecked, for an
    apportionable lam."""
    if target is None:
        j, k = np.indices((n, n))
        F = np.exp(-2j * np.pi * j * k / n) / math.sqrt(n)     # the unitary Fourier matrix
        f = F[:, n - 1]
        B = np.eye(n, dtype=complex) - (n / 2.0 - 1j * lam.imag) * np.outer(f, f.conjugate())
        kappa = math.hypot(0.5, lam.imag / n)
        return _certificate(F, F.conj().T, B, kappa, CertTag.PERTURB_IDENTITY)

    constants = perturb_identity_constants(n, lam)
    finite = constants.shape is SetShape.FINITE
    # a finite set: snap to the exact member and recover its index s (the perturb rule's
    # member of the set scaled by |mu|, divided by |mu|, can miss it by an ulp)
    t = min(constants.values, key=lambda v: abs(v - target)) if finite else target
    q = math.sqrt(max(0.0, t * t - 0.25))
    r_plus = n // 2
    if finite and q != 0.0:
        r_plus = round((n - lam.imag / q) / 2.0)
        if not 0 <= r_plus <= n:
            raise ConstructionError("diagonal sign count out of range")
    w_hi = (0.5 + 1j * q) / (1.0 - lam)
    w_lo = (0.5 - 1j * q) / (1.0 - lam)
    w = np.array([w_hi] * r_plus + [w_lo] * (n - r_plus))
    M = np.zeros((n, n), dtype=complex)
    M[0, : n - 1] = -1.0
    for i in range(1, n):
        M[i, n - 1 - i] = 1.0
    M[:, n - 1] = w
    Minv = np.linalg.solve(M, np.eye(n, dtype=complex))
    B = np.eye(n, dtype=complex) - (1.0 - lam) * np.outer(w, np.ones(n))
    return _certificate(M, Minv, B, t, CertTag.PERTURB_IDENTITY)


def apportion_perturb_identity(
    n: int, lam: complex, target: Optional[float] = None
) -> Union[ApportionCertificate, ClassificationReport]:
    """Apportion I_(n-1) + [lam] (n >= 3) when Re(lam) = 1 - n/2.

    Without a target the unitary Fourier transform is the certificate, with
    diagonal entries 1/2 + (Im(lam)/n) i.  With a target it is validated
    against the constant set and realized by the bordered anti-identity whose
    last column holds the two conjugate diagonal values.  When Re(lam) misses
    1 - n/2 the refusal is returned as a NotApportionable report, not raised.
    """
    n = _integer(n, 3, refusal=_PERTURB_ORDER_REFUSAL)
    _require_dense_order(n)
    lam = complex(lam)
    constants = perturb_identity_constants(n, lam)
    if constants is None:
        return ClassificationReport(Verdict.NOT_APPORTIONABLE, ConstantSet.empty(),
                                    "perturb-identity")
    spec = JordanSpec(((1 + 0j, 1),) * (n - 1) + ((lam, 1),))
    if target is not None:
        return request_certificate(spec, target)
    return _certified(lambda _: _perturb_identity(n, lam, None), build_jordan(spec))


# ---------------------------------------------------------------------------
# order 2 with distinct nonzero eigenvalues
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoByTwoPlan:
    """Entries of the unit-determinant transform for the 2x2 construction."""

    gamma: complex
    omega: complex
    b: complex
    a: complex
    c: complex
    d: complex


def _plan(l1: complex, l2: complex, found: tuple, kappa: Optional[float]) -> TwoByTwoPlan:
    """The plan at a member kappa (default: the smallest); ``found`` is ``_order_two``'s."""
    gamma, g4, constants = found
    kappa = constants.smallest_member() if kappa is None else kappa
    if gamma == 0:
        ratio2 = modulus(l1, l2, dividing=kappa) ** 2
        omega = math.sqrt(0.5 * ratio2 + 0.25) + 1j * math.sqrt(max(0.0, 0.5 * ratio2 - 0.25))
    elif g4 == 1.0:
        omega = 0j
    else:
        omega = gamma * math.sqrt((1.0 - g4) / (2.0 * (g4 - (gamma * gamma).real))) * 1j
    b = cmath.sqrt((omega * omega - 1.0) / 4.0)
    if abs(b) <= 1e-12 * max(1.0, abs(omega)):
        raise ConstructionError("degenerate transform: omega^2 = 1 should be unreachable")
    c = (omega - 1.0) / (2.0 * b)
    d = (omega + 1.0) / 2.0
    return TwoByTwoPlan(gamma=gamma, omega=omega, b=b, a=1.0 + 0j, c=c, d=d)


def two_by_two_plan(l1: complex, l2: complex,
                    kappa: Optional[float] = None) -> TwoByTwoPlan:
    """Transform entries achieving the (validated) modulus for diag(l1, l2)."""
    l1, l2 = complex(l1), complex(l2)
    found = _order_two(l1, l2)
    if found is None:
        raise InvalidInputError("diag(l1, l2) is not apportionable")
    if kappa is not None:
        kappa = _member(kappa, found[2])
    with _guarded(kappa):
        return _plan(l1, l2, found, kappa)


def _two_by_two(l1: complex, l2: complex, found: tuple,
                target: Optional[float]) -> ApportionCertificate:
    """A certificate for diag(l1, l2) at a member ``target`` (default: the smallest
    constant), unchecked; ``found`` is ``_order_two``'s."""
    plan = _plan(l1, l2, found, target)
    gamma, omega, b = plan.gamma, plan.omega, plan.b
    M = np.array([[plan.a, b], [plan.c, plan.d]])
    # the determinant is 1 by construction; dividing the adjugate by its
    # computed value keeps M @ Minv at the exact identity in floats
    det = plan.a * plan.d - b * plan.c
    Minv = np.array([[plan.d, -b], [-plan.c, plan.a]]) / det
    # B and its mean modulus at the pair's unit scale (``core.unit_exponent``), scaled back
    # by 2^e: l2 - l1 and the sum of the moduli pass the float range before B's entries do
    e = unit_exponent((l1, l2))
    B = (times_power_of_two(l2, -e) - times_power_of_two(l1, -e)) * np.array(
        [[(gamma - omega) / 2.0, b], [-b, (gamma + omega) / 2.0]])
    return _certificate(M, Minv, times_power_of_two(B, e),
                        math.ldexp(float(np.abs(B).mean()), e), CertTag.TWO_BY_TWO)


def apportion_2x2(l1: complex, l2: complex,
                  target: Optional[float] = None) -> ClassificationReport:
    """Classify diag(l1, l2) with distinct nonzero eigenvalues and, when
    apportionable, attach a certificate at ``target`` (default: the smallest
    achievable constant)."""
    l1, l2 = complex(l1), complex(l2)
    found = _order_two(l1, l2)
    if found is None:
        return ClassificationReport(Verdict.NOT_APPORTIONABLE, ConstantSet.empty(), "two-by-two")
    cert = request_certificate(JordanSpec(((l1, 1), (l2, 1))), target)
    return ClassificationReport(Verdict.APPORTIONABLE, found[2], "two-by-two", cert)


def polar_condition_2x2(l1: complex, l2: complex) -> bool:
    """Whether diag(l1, l2), nonzero eigenvalues, is apportionable, by the gamma test
    of ``two_by_two_constants`` (a repeated eigenvalue never is).  In polar form: l1 =
    -l2, or l1 is a real multiple of i*l2, or the angle theta between them lies in
    (pi/2, 3pi/2) with |r cos(theta) + 1| < |sin(theta)| for the modulus ratio r."""
    l1, l2 = complex(l1), complex(l2)
    if not (cmath.isfinite(l1) and cmath.isfinite(l2)):
        raise InvalidInputError("eigenvalues must be finite")
    if l1 == 0 or l2 == 0:
        raise InvalidInputError("eigenvalues must be nonzero")
    return l1 != l2 and _order_two(l1, l2) is not None


# ---------------------------------------------------------------------------
# the two explicit 3x3 families
# ---------------------------------------------------------------------------

def _template_spec(kind: TemplateKind, lam: complex) -> JordanSpec:
    """The Jordan blocks of a family: (lam, 2) + (0, 1), or (lam, 1) + (0, 2)."""
    sizes = (2, 1) if kind is TemplateKind.LAMBDA_J2_PLUS_ZERO else (1, 2)
    return JordanSpec(((lam, sizes[0]), (0j, sizes[1])))


def _template(kind: TemplateKind, lam: complex) -> ApportionCertificate:
    """``apportion_3x3_template`` at lam != 0, unchecked."""
    w3, w6 = _THIRD, _SIXTH
    if kind is TemplateKind.LAMBDA_J2_PLUS_ZERO:
        M = np.array([[0, 1, 1], [w3, 0, 1], [1, 0, 0]], dtype=complex) @ np.diag([lam, 1, 1])
        Minv = np.diag([1 / lam, 1, 1]) @ np.array(
            [[0, 0, 1], [1, -1, w3], [0, 1, -w3]], dtype=complex
        )
        B = lam * np.array([[1, -1, w3], [w3, -w3, -1], [1, -1, 1 + w3]], dtype=complex)
        kappa = modulus(lam)
    else:
        M = np.array([[0, 1, w3], [1, 0, w6], [1, 1, 0]], dtype=complex) @ np.diag([1, lam, 1])
        Minv = (1.0 / (1.0 + w6)) * np.diag([1, 1 / lam, 1]) @ np.array(
            [[-1, w6, 1], [1, -w6, w6],
             [w6.conjugate(), w6.conjugate(), -w6.conjugate()]], dtype=complex
        )
        # equals conj(w6) * (lam/(1+w6)) [[1,1,-1],[-w6,w3,w6],[1-w6,1+w3,w6-1]]
        B = (M @ build_jordan(_template_spec(kind, lam))) @ Minv
        kappa = modulus(lam, over=math.sqrt(3.0))
    return _certificate(M, Minv, B, kappa, CertTag.THREE_BY_THREE_TEMPLATE)


def apportion_3x3_template(kind: TemplateKind, lam: complex) -> ApportionCertificate:
    """Fixed 3x3 transforms for the two explicitly solved singular families."""
    kind, lam = TemplateKind(kind), complex(lam)
    return request_certificate(_template_spec(kind, lam), 1.0 if lam == 0 else None)
