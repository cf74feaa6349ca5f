"""Tests of the benchmark's oracle: it accepts the paper's worked cases and
rejects tampered outputs.

    python3 bench/oracle_selftest.py
    python3 -m pytest bench/oracle_selftest.py

The file name keeps it out of the package's own test collection.  The oracle
imports nothing from ``apportion``; only the 5x5 worked case below is built
with the package, so that the oracle is shown to accept a real certificate.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402

J3_PLUS_J2 = [(0, 3), (0, 2)]


def diag_pm1_certificate(kappa: float):
    """A certificate for diag(1, -1) at any kappa in K = [1/sqrt(2), inf).

    B = [[a, b], [c, -a]] has eigenvalues +-1 when b c = 1 - a^2.  Take
    |a| = |b| = kappa and c = (1 - a^2) / b; |c| = kappa needs
    |1 - a^2| = kappa^2, which fixes the phase of a once kappa >= 1/sqrt(2).
    M holds the eigenvectors of B, so B = M diag(1, -1) M^-1.
    """
    # |1 - kappa^2 e^(i t)| = kappa^2  <=>  cos t = 1 / (2 kappa^2)
    t = math.acos(min(1.0, 1.0 / (2.0 * kappa * kappa)))
    a = kappa * complex(math.cos(t / 2), math.sin(t / 2))
    b = complex(kappa)
    c = (1 - a * a) / b
    B = np.array([[a, b], [c, -a]])
    vals, vecs = np.linalg.eig(B)
    M = vecs[:, np.argsort(-vals.real)]
    return np.diag([1.0 + 0j, -1.0]), M, np.linalg.inv(M), B


def nilpotent_5x5_certificate():
    from apportion import JordanSpec, apportion_nilpotent

    kappa = 1.0 / math.sqrt(3.0)
    cert = apportion_nilpotent(JordanSpec(tuple((complex(l), s) for l, s in J3_PLUS_J2)), kappa)
    return oracle.jordan_matrix(J3_PLUS_J2), cert.M, cert.Minv, cert.B, cert.kappa


def test_accepts_nilpotent_5x5_at_inverse_sqrt3():
    A, M, Minv, B, kappa = nilpotent_5x5_certificate()
    assert oracle.check_certificate(A, M, Minv, B, kappa, requested=1 / math.sqrt(3)) == []
    assert oracle.paper_verdict(J3_PLUS_J2) == oracle.APPORTIONABLE


def test_accepts_diag_1_minus_1_on_its_constant_set():
    for kappa in (1 / math.sqrt(2), 0.9, 1.0, 3.0):
        A, M, Minv, B = diag_pm1_certificate(kappa)
        assert oracle.check_certificate(A, M, Minv, B, kappa, requested=kappa) == []
    assert oracle.paper_verdict([(1, 1), (-1, 1)]) == oracle.APPORTIONABLE
    # K = [1/sqrt(2), inf): the determinant bound is sharp here
    assert math.isclose(oracle.lower_bound(np.diag([1, -1])), 1 / math.sqrt(2))


def test_rejects_one_perturbed_entry_of_B():
    A, M, Minv, B, kappa = nilpotent_5x5_certificate()
    for i, j in ((0, 0), (2, 3), (4, 1)):
        tampered = B.copy()
        tampered[i, j] *= 1 + 1e-6
        assert oracle.check_certificate(A, M, Minv, tampered, kappa)


def test_rejects_a_wrong_kappa():
    A, M, Minv, B, kappa = nilpotent_5x5_certificate()
    assert oracle.check_certificate(A, M, Minv, B, kappa, requested=0.6)
    assert oracle.check_certificate(A, M, Minv, B, 0.6)
    A2, M2, Minv2, B2 = diag_pm1_certificate(1.0)
    assert oracle.check_certificate(A2, M2, Minv2, B2 * 0.5, 0.5)    # below 1/sqrt(2)


def test_rejects_a_nan_inverse():
    A, M, Minv, B, kappa = nilpotent_5x5_certificate()
    assert oracle.check_certificate(A, M, np.full_like(Minv, np.nan), B, kappa)
    nan_one = Minv.copy()
    nan_one[1, 2] = np.nan
    assert oracle.check_certificate(A, M, nan_one, B, kappa)


def test_rejects_a_flipped_verdict():
    cases = [
        (J3_PLUS_J2, oracle.APPORTIONABLE),
        ([(1.5, 1), (0, 1), (0, 1), (0, 1)], oracle.APPORTIONABLE),      # rank 1 of 4
        ([(2j, 1), (2j, 1), (2j, 1)], oracle.NOT_APPORTIONABLE),          # scalar
        ([(1.0, 2)], oracle.NOT_APPORTIONABLE),                           # J2(1)
        ([(1.0, 1), (-1.0, 1)], oracle.APPORTIONABLE),                    # gamma = 0
        ([(1.0, 1), (2.0, 1)], oracle.NOT_APPORTIONABLE),                 # gamma = 3
        ([(1.0, 1), (-0.5 + 1j, 1)], oracle.APPORTIONABLE),
    ]
    flip = {oracle.APPORTIONABLE: oracle.NOT_APPORTIONABLE,
            oracle.NOT_APPORTIONABLE: oracle.APPORTIONABLE}
    for blocks, verdict in cases:
        assert oracle.paper_verdict(blocks) == verdict, blocks
        assert oracle.check_verdict(blocks, verdict) is None
        assert oracle.check_verdict(blocks, flip[verdict]) is not None


def test_no_verdict_where_the_paper_is_silent_or_on_the_boundary():
    assert oracle.paper_verdict([(1, 1), (2, 1), (3, 1)]) is None         # open order 3
    assert oracle.paper_verdict([(1, 1), (1j, 1)]) is None                # |gamma| = 1
    assert oracle.check_verdict([(1, 1), (1j, 1)], "NotApportionable") is None
    admissible, margin = oracle.gamma_test(1, 1j)
    assert margin < oracle.BOUNDARY_MARGIN


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} oracle tests passed")
