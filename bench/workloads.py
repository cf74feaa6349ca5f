"""The four workloads: seeded inputs, one operation at a time, checked outputs.

Each workload turns ``(seed, seconds)`` into a fixed list of operations.  The
list is whole rounds of the same operation kinds, interleaved in a seeded
order, so every run does the same work and drift falls on every kind alike.
``seconds`` sets the number of rounds, never a clock.

An operation is ``Op(kind, run, check)``.  ``run(tracer)`` makes the public
calls and returns what they gave (an exception is returned, not raised);
``check(out)`` returns ``OK`` or ``FAILED`` and raises ``Wrong`` when the
output contradicts the oracle or a property the method must have.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import oracle
from tracing import NullTracer

OK = "ok"
FAILED = "failed"


class Wrong(Exception):
    """An output that the oracle or a required property refutes."""


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str]
    argv: Optional[list] = None     # the command line of a cli-calls operation


def rand_lam(rng: random.Random, lo=0.5, hi=2.0) -> complex:
    """A complex number of modulus in [lo, hi] and uniform phase."""
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def spec_doc(blocks) -> dict:
    """The JordanSpec JSON document of a block list."""
    return {"blocks": [{"re": complex(lam).real, "im": complex(lam).imag, "size": size}
                       for lam, size in blocks]}


def entries_doc(A) -> dict:
    return {"entries": [[[z.real, z.imag] for z in row] for row in np.asarray(A, complex)]}


def interleave(rounds: list[list], rng: random.Random) -> list:
    ops = [op for r in rounds for op in r]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# certify-mix
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """One certify-mix input: its block list (ground truth) and how to use it.

    ``form`` is "spec" (a JordanSpec JSON document), "raw" (entries already
    in Jordan arrangement) or "conj" (entries conjugated by an integer
    unimodular matrix; classified only).  ``plan`` says which kappa to
    request: None (classify only), ("low",), ("any", u) or ("below", kappa),
    the last being under the oracle's lower bound and so due a refusal.
    """

    tag: str
    blocks: list
    form: str
    plan: Any
    A: np.ndarray
    doc: Any = None


def _composition(rng, n):
    """Random block sizes summing to n, at least one of them 2 or more."""
    while True:
        sizes = []
        left = n
        while left:
            s = rng.randint(1, left)
            sizes.append(s)
            left -= s
        if max(sizes) >= 2:
            return sizes


#: distance from the order-2 boundary kept by generated certify-mix pairs
PAIR_MARGIN = 1e-3


def _admissible_pair(rng, want: bool):
    while True:
        l1, l2 = rand_lam(rng), rand_lam(rng)
        ok, gap = oracle.gamma_test(l1, l2)
        if ok == want and gap >= PAIR_MARGIN and abs(l1 - l2) > 0.1:
            return l1, l2


def _shuffled(rng, blocks):
    blocks = list(blocks)
    rng.shuffle(blocks)
    return blocks


def _unimodular(rng, n):
    """An integer matrix with integer inverse: a product of shear matrices."""
    S = np.eye(n)
    for _ in range(3):
        E = np.eye(n)
        i, j = rng.sample(range(n), 2)
        E[i, j] = rng.choice((-2, -1, 1, 2))
        S = S @ E
    Sinv = np.linalg.inv(S).round()
    assert np.array_equal(S @ Sinv, np.eye(n))
    return S, Sinv


#: eigenvalues that keep S J S^-1 exact in floating point
_EXACT = (1, -1, 2, -2, 0.5, -0.5, 1j, -1j, 2j, 1 + 1j, -1 + 0.5j, 1.5)


def _conj_case(rng) -> tuple[str, list]:
    kind = rng.randrange(6)
    a, b = rng.sample(_EXACT, 2)
    if kind == 0:
        return "two-by-two", [(a, 1), (b, 1)]
    if kind == 1:
        return "nilpotent", [(0, 2)]
    if kind == 2:
        return "nilpotent", rng.choice(([(0, 3)], [(0, 2), (0, 1)]))
    if kind == 3:
        return "rank-one", _shuffled(rng, [(a, 1), (0, 1), (0, 1)])
    if kind == 4:
        return "repeated-eigenvalue", [(a, 2)]
    return "scalar-matrix", [(a, 1), (a, 1)]


def _raw_case(rng) -> tuple[str, list]:
    kind = rng.randrange(4)
    if kind == 0:
        return "two-by-two", [(lam, 1) for lam in _admissible_pair(rng, True)]
    if kind == 1:
        return "nilpotent", rng.choice(([(0, 3)], [(0, 2), (0, 1)], [(0, 1), (0, 2)]))
    if kind == 2:
        return "3x3-template-j2-plus-zero", [(rand_lam(rng), 2), (0, 1)]
    l1, l2 = _admissible_pair(rng, True)
    return "two-by-two-pad-zero", _shuffled(rng, [(l1, 1), (l2, 1), (0, 1)])


def stratified_rank_one(rng: random.Random, count: int) -> list[tuple[int, float]]:
    """(order, kappa position) for the rank-one cases above the minimum.

    These set the tail of certify-mix (the scan in spiral_sum grows with the
    order), so every run gets the same spread of orders 2..16 and of kappa
    positions, in a seeded arrangement.
    """
    orders = [2 + k % 15 for k in range(count)]
    positions = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(orders)
    rng.shuffle(positions)
    return list(zip(orders, positions))


def certify_round(rng: random.Random, rank_one=(16, 0.5)) -> list[Case]:
    """One round: every theorem tag at least once, in fixed proportions.

    ``rank_one`` is the (order, kappa position) of the round's rank-one case
    above the minimum.
    """
    out = []

    def add(tag, blocks, plan, form="spec"):
        blocks = [(complex(lam), size) for lam, size in blocks]
        A = oracle.jordan_matrix(blocks)
        doc = spec_doc(blocks)
        if form == "conj":
            S, Sinv = _unimodular(rng, A.shape[0])
            A = S @ A @ Sinv
        if form != "spec":
            doc = A
        out.append(Case(tag, blocks, form, plan, A, doc))

    def below(blocks):
        bound = oracle.lower_bound(oracle.jordan_matrix(blocks))
        return ("below", 0.5 * bound)

    add("zero-matrix", [(0, 1)] * rng.randint(1, 16), ("low",))
    add("order-one", [(rand_lam(rng), 1)], ("low",))
    add("scalar-matrix", [(rand_lam(rng), 1)] * rng.randint(2, 16), None)
    for _ in range(6):
        n = rng.randint(2, 16)
        add("nilpotent", [(0, s) for s in _composition(rng, n)], ("any", rng.random()))
    for mode in ("low", "any", "below"):
        n = rank_one[0] if mode == "any" else rng.randint(2, 16)
        blocks = _shuffled(rng, [(rand_lam(rng), 1)] + [(0, 1)] * (n - 1))
        if mode == "low":
            add("rank-one", blocks, ("low",))
        elif mode == "any":
            add("rank-one", blocks, ("any", rank_one[1]))
        else:
            add("rank-one", blocks, below(blocks))
    for i in range(4):
        blocks = [(rand_lam(rng), 1) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            blocks.append((rand_lam(rng), 2))
        if rng.random() < 0.5:
            blocks.append((0, 2))
        rank = sum(s if lam != 0 else s - 1 for lam, s in blocks)
        n = sum(s for _, s in blocks)
        zeros = max(2 * rank - n, 0) + rng.randint(0, 16 - max(n, 2 * rank))
        blocks = _shuffled(rng, blocks + [(0, 1)] * zeros)
        add("half-rank", blocks, below(blocks) if i == 3 else ("any", rng.random()))
    n = rng.randint(3, 6)
    mu = rand_lam(rng)
    other = mu * complex(1.0 - n / 2.0, rng.choice((-1, 1)) * rng.uniform(0.2, 2.0))
    add("perturb-identity", _shuffled(rng, [(mu, 1)] * (n - 1) + [(other, 1)]),
        ("any", rng.random()))
    add("perturb-identity", _shuffled(rng, [(mu, 1)] * (n - 2) + [(mu, 2)]), None)
    for plan in (("low",), ("low",), "below"):
        blocks = [(lam, 1) for lam in _admissible_pair(rng, True)]
        add("two-by-two", blocks, below(blocks) if plan == "below" else plan)
    add("two-by-two", [(lam, 1) for lam in _admissible_pair(rng, False)], None)
    add("repeated-eigenvalue", [(rand_lam(rng), 2)], None)
    add("3x3-template-j2-plus-zero", _shuffled(rng, [(rand_lam(rng), 2), (0, 1)]), ("low",))
    add("3x3-template-plus-nilpotent", _shuffled(rng, [(rand_lam(rng), 1), (0, 2)]), ("low",))
    add("open-3x3", rng.choice((
        [(rand_lam(rng), 1) for _ in range(3)],
        [(rand_lam(rng), 2), (rand_lam(rng), 1)],
        [(rand_lam(rng), 3)])), None)
    l1, l2 = _admissible_pair(rng, True)
    add("two-by-two-pad-zero", _shuffled(rng, [(l1, 1), (l2, 1), (0, 1)]), ("low",))
    l1, l2 = _admissible_pair(rng, False)
    add("two-by-two-pad-zero-inconclusive", _shuffled(rng, [(l1, 1), (l2, 1), (0, 1)]), None)
    add("order-not-covered", [(rand_lam(rng), 1) for _ in range(rng.randint(4, 8))], None)
    for _ in range(3):
        tag, blocks = _raw_case(rng)
        add(tag, blocks, ("low",), form="raw")
    for _ in range(3):
        tag, blocks = _conj_case(rng)
        add(tag, blocks, None, form="conj")
    return out


def choose_kappa(constants, plan) -> float:
    """The kappa a client requests after reading the reported constant set."""
    if plan[0] == "below":
        return plan[1]
    if plan[0] == "low":
        return constants.smallest_member()
    u = plan[1]
    if constants.shape.value == "finite":
        return constants.values[int(u * len(constants.values))]
    if constants.shape.value == "zero-only":
        return 0.0
    return constants.lo + max(constants.lo, 1.0) * (0.05 + 2.0 * u)


def certify_op(case: Case) -> Op:
    from apportion import (ConstantNotAchievableError, JordanSpec, Verdict, build_jordan,
                           classify, request_certificate, verify_certificate)

    def run(tr):
        out = {}
        if case.form == "spec":
            with tr.span("jordan.from_json_us"):
                target = JordanSpec.from_json(case.doc)
        else:
            target = case.doc
        with tr.span("classifier.classify_us." + case.tag):
            report = classify(target)
        out["report"] = report
        if case.plan is None or report.verdict is not Verdict.APPORTIONABLE:
            return out
        kappa = out["kappa"] = choose_kappa(report.constants, case.plan)
        if case.form == "spec":
            with tr.span("jordan.build_jordan_us"):
                A = build_jordan(target)
        else:
            A = target
        try:
            with tr.span("constructors.request_certificate_us." + case.tag):
                cert = request_certificate(target, kappa=kappa, report=report)
        except ConstantNotAchievableError as exc:
            out["refused"] = exc
            return out
        with tr.span("constructors.verify_certificate_us"):
            verify_certificate(cert, A)
        out["cert"] = cert
        return out

    def check(out):
        if isinstance(out, Exception):
            return FAILED
        verdict = out["report"].verdict.value
        problem = oracle.check_verdict(case.blocks, verdict)
        if problem:
            raise Wrong(f"{case.tag}: {problem}")
        if case.plan is None:
            return OK
        if verdict != oracle.APPORTIONABLE:
            return FAILED
        if case.plan[0] == "below":
            if "refused" in out:
                return OK
            raise Wrong(f"{case.tag}: kappa {out['kappa']!r} under the lower bound was accepted")
        if "refused" in out:
            return FAILED
        cert = out["cert"]
        problems = oracle.check_certificate(case.A, cert.M, cert.Minv, cert.B, cert.kappa,
                                            requested=out["kappa"])
        return FAILED if problems else OK

    return Op(case.tag, run, check)


# ---------------------------------------------------------------------------
# search-grid and search-orders
# ---------------------------------------------------------------------------

def search_op(kind: str, blocks, cfg) -> Op:
    """find_apportioning on the Jordan matrix of ``blocks``, checked by the oracle.

    A find on a proven NotApportionable matrix is wrong; a miss on a proven
    Apportionable matrix fails; a find whose certificate the oracle rejects
    fails.  Open matrices (no verdict) pass either way.
    """
    from apportion import find_apportioning

    A = oracle.jordan_matrix(blocks)
    n = A.shape[0]
    verdict = oracle.paper_verdict(blocks)

    def run(tr):
        with tr.span("search.find_ms") as sp:
            outcome = find_apportioning(A, cfg)
            if outcome.found:
                sp.name = f"search.find_ms.n{n}.found"
            elif verdict == oracle.APPORTIONABLE:
                sp.name = f"search.find_ms.n{n}.missed"
            elif verdict == oracle.NOT_APPORTIONABLE:
                sp.name = f"search.find_ms.n{n}.refuted"
            else:
                sp.name = f"search.find_ms.n{n}.open"
        tr.count("search.calls")
        tr.count("search.restarts_used", outcome.restarts_used)
        tr.count("search.found", outcome.found)
        if verdict == oracle.APPORTIONABLE:
            tr.count("search.apportionable_calls")
            tr.count("search.found_apportionable", outcome.found)
            tr.count("search.missed", not outcome.found)
        if verdict == oracle.NOT_APPORTIONABLE:
            tr.count("search.false_finds", outcome.found)
        return outcome

    def check(outcome):
        if isinstance(outcome, Exception):
            return FAILED
        if not outcome.found:
            return FAILED if verdict == oracle.APPORTIONABLE else OK
        if verdict == oracle.NOT_APPORTIONABLE:
            raise Wrong(f"{kind} {blocks}: found on a matrix the paper proves not apportionable")
        cert = outcome.certificate
        if cert is None:
            raise Wrong(f"{kind} {blocks}: found without a certificate")
        problems = oracle.check_certificate(A, cert.M, cert.Minv, cert.B, cert.kappa,
                                            spread_rtol=cfg.defect_target)
        return FAILED if problems else OK

    return Op(kind, run, check)


#: criterion 7's grid and configuration
GRID_AXIS = np.linspace(-3.0, 3.0, 41)
GRID_CONFIG = dict(seed=1, restarts=32, defect_target=1e-6)
#: one point is drawn from each GRID_BLOCK cell of the grid per round
GRID_BLOCK = (2, 4)


def grid_round(rng: random.Random, cfg) -> list[Op]:
    """One seeded point from every 2x4 cell of the 41x41 grid of lambda2."""
    cells: dict[tuple[int, int], list[complex]] = {}
    for i, im in enumerate(GRID_AXIS):
        for j, re in enumerate(GRID_AXIS):
            l2 = complex(re, im)
            if abs(l2) <= 1e-9 or abs(l2 - 1.0) <= 1e-9:
                continue
            cells.setdefault((i // GRID_BLOCK[0], j // GRID_BLOCK[1]), []).append(l2)
    ops = []
    for key in sorted(cells):
        l2 = rng.choice(cells[key])
        verdict = oracle.paper_verdict([(1.0, 1), (l2, 1)])
        kind = {oracle.APPORTIONABLE: "admissible",
                oracle.NOT_APPORTIONABLE: "inadmissible"}.get(verdict, "boundary")
        ops.append(search_op(kind, [(1.0, 1), (l2, 1)], cfg))
    return ops


#: search-orders: matrices of order 3-6, each searched with seeds 0, 1 and 2
ORDER_MATRICES = {
    "J3": [(0, 3)], "J4": [(0, 4)], "J5": [(0, 5)], "J6": [(0, 6)],
    "J2+J2": [(0, 2), (0, 2)], "J2+J1+J1": [(0, 2), (0, 1), (0, 1)],
    "J2+J2+J1": [(0, 2), (0, 2), (0, 1)], "J3+J2": [(0, 3), (0, 2)],
    "rank1-n3": [(1.5, 1), (0, 1), (0, 1)],
    "rank2-n4": [(1, 1), (-0.5 + 1j, 1), (0, 1), (0, 1)],
    "J2(0.8)+0+0": [(0.8, 2), (0, 1), (0, 1)],
    "J2(0)+1.2i+0": [(0, 2), (1.2j, 1), (0, 1)],
    "open-3x3-diag": [(1, 1), (2, 1), (-1 + 0.5j, 1)],
    "open-3x3-J2+mu": [(1, 2), (-0.7, 1)],
    "open-3x3-J3": [(1, 3)],
    "pad-zero-inconclusive": [(1, 1), (2, 1), (0, 1)],
}
ORDER_SEEDS = (0, 1, 2)


def orders_round() -> list[Op]:
    from apportion import SearchConfig

    return [search_op(name, blocks, SearchConfig(seed=s))
            for name, blocks in ORDER_MATRICES.items() for s in ORDER_SEEDS]


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------

def _parse_matrix(rows) -> np.ndarray:
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


class CliRunner:
    """Runs ``python -m apportion.cli`` one child at a time.

    Output goes to a file rather than a pipe, so the child is reaped with
    ``os.wait4`` and its own peak resident set is known.
    """

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.outputs: dict[str, bytes] = {}
        self.peak_rss_kb = 0

    def call(self, argv: list[str]) -> tuple[int, bytes]:
        """Exit code and stdout of one call."""
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "apportion.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as fh:
            return proc.returncode, fh.read()

    def write(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def cli_round(rng: random.Random, cli: CliRunner) -> list[Op]:
    """The ten calls of one round; every round repeats them byte for byte.

    Two of them meet faults that are known today: a document whose "order"
    is not a number exits 1 with a traceback instead of 2, and
    ``apportion --kappa 1e300`` on J3+J2 prints a certificate whose Minv is
    all NaN.
    """
    ops = []

    def add(key, argv, check):
        def run(tr):
            code, stdout = cli.call(argv)
            return {"code": code, "stdout": stdout}

        def checked(out):
            if isinstance(out, Exception):
                return FAILED
            first = cli.outputs.setdefault(key, out["stdout"])
            if first != out["stdout"]:
                raise Wrong(f"cli {key}: identical calls printed different stdout")
            return check(out["code"], out["stdout"])

        ops.append(Op("cli." + key, run, checked, argv))

    def expect_json(code, stdout):
        if code != 0:
            return None
        return json.loads(stdout)

    # classify: raw order-2 entries, verdict from the gamma test
    l1, l2 = _admissible_pair(rng, rng.random() < 0.5)
    raw = cli.write("raw2.json", entries_doc(np.diag([l1, l2])))

    def check_classify_raw(code, stdout):
        doc = expect_json(code, stdout)
        if doc is None:
            return FAILED
        problem = oracle.check_verdict([(l1, 1), (l2, 1)], doc["verdict"])
        if problem:
            raise Wrong(f"cli classify: {problem}")
        return _check_bounds(doc["bounds"], np.diag([l1, l2]))

    add("classify.raw", ["classify", raw], check_classify_raw)

    # classify: a Jordan document of rank <= n/2 up to order 16
    blocks = [(rand_lam(rng), 1) for _ in range(rng.randint(2, 8))]
    zeros = len(blocks) + rng.randint(0, 16 - 2 * len(blocks))
    blocks = _shuffled(rng, blocks + [(0, 1)] * zeros)
    half = cli.write("half.json", {"jordan": spec_doc(blocks)})

    def check_classify_half(code, stdout):
        doc = expect_json(code, stdout)
        if doc is None:
            return FAILED
        if doc["verdict"] != oracle.APPORTIONABLE:
            raise Wrong(f"classify of rank <= n/2 {blocks}: {doc['verdict']}")
        return _check_bounds(doc["bounds"], oracle.jordan_matrix(blocks))

    add("classify.jordan", ["classify", half], check_classify_half)

    # apportion: a nilpotent Jordan document at a seeded kappa
    nil = [(0, s) for s in _composition(rng, rng.randint(2, 16))]
    nil_path = cli.write("nilpotent.json", {"jordan": spec_doc(nil)})
    kappa = round(rng.uniform(0.1, 4.0), 6)
    add("apportion.jordan", ["apportion", nil_path, "--kappa", repr(kappa)],
        lambda code, stdout: _check_cli_certificate(code, stdout, nil, kappa))

    # apportion: raw order-2 entries at the default kappa
    p1, p2 = _admissible_pair(rng, True)
    raw_ok = cli.write("raw2-admissible.json", entries_doc(np.diag([p1, p2])))
    add("apportion.raw", ["apportion", raw_ok],
        lambda code, stdout: _check_cli_certificate(code, stdout, [(p1, 1), (p2, 1)], None))

    # verify: diag(c, -c) and the rotation by pi/8, whose image is
    # c / sqrt(2) [[1, 1], [1, -1]], uniform at |c| / sqrt(2)
    c = rand_lam(rng)
    t = math.pi / 8
    rot = rng.uniform(0.5, 2.0) * np.array([[math.cos(t), -math.sin(t)],
                                            [math.sin(t), math.cos(t)]])
    a_path = cli.write("verify-A.json", entries_doc(np.diag([c, -c])))
    m_path = cli.write("verify-M.json", entries_doc(rot))

    def check_verify(code, stdout):
        doc = expect_json(code, stdout)
        if doc is None:
            return FAILED
        want = abs(c) / math.sqrt(2.0)
        if not (doc["is_uniform"] is True and abs(doc["kappa"] - want) <= 1e-12 * want
                and doc["defect"] <= 1e-12 * want):
            raise Wrong(f"verify of a uniformizing transform: {doc}, kappa should be {want!r}")
        return OK

    add("verify", ["verify", a_path, m_path], check_verify)

    # bounds: a Jordan document up to order 16 with nonzero eigenvalues
    bblocks = [(rand_lam(rng), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
    b_path = cli.write("bounds.json", {"jordan": spec_doc(bblocks)})

    def check_bounds_call(code, stdout):
        doc = expect_json(code, stdout)
        if doc is None:
            return FAILED
        A = oracle.jordan_matrix(bblocks)
        if doc["order"] != A.shape[0]:
            raise Wrong(f"bounds: order {doc['order']} for an order-{A.shape[0]} matrix")
        return _check_bounds(doc, A)

    add("bounds", ["bounds", b_path], check_bounds_call)

    # region: default 201 x 201 box for a seeded lambda1, flags from the gamma test
    lam1 = rand_lam(rng, 0.5, 1.5)
    add("region", ["region", "--lambda1-re", repr(lam1.real), "--lambda1-im", repr(lam1.imag)],
        lambda code, stdout: _check_region(code, stdout, lam1))

    add("demo", ["demo"], _check_demo)

    # known fault: a non-numeric "order" must exit 2 (malformed document)
    bad = cli.write("bad-order.json", {"entries": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
                                       "order": "x"})
    add("fault.order", ["classify", bad],
        lambda code, stdout: OK if code == 2 else FAILED)

    # known fault: kappa = 1e300 must be refused or give a certificate that holds
    j32 = [(0, 3), (0, 2)]
    j32_path = cli.write("j3j2.json", {"jordan": spec_doc(j32)})

    def check_huge(code, stdout):
        if code in (3, 6, 7):
            return OK
        return _check_cli_certificate(code, stdout, j32, 1e300)

    add("fault.kappa", ["apportion", j32_path, "--kappa", "1e300"], check_huge)
    return ops


def _check_bounds(doc, A) -> str:
    for key, want in (("trace_lower_bound", oracle.trace_bound(A)),
                      ("hadamard_lower_bound", oracle.det_bound(A))):
        if not abs(doc[key] - want) <= 1e-9 * max(want, 1e-300):
            raise Wrong(f"{key} = {doc[key]!r}, the oracle computes {want!r}")
    return OK


def _check_cli_certificate(code, stdout, blocks, kappa) -> str:
    if code != 0:
        return FAILED
    doc = json.loads(stdout)
    M, Minv, B = (_parse_matrix(doc[k]) for k in ("M", "Minv", "B"))
    problems = oracle.check_certificate(oracle.jordan_matrix(blocks), M, Minv, B,
                                        float(doc["kappa"]), requested=kappa)
    return FAILED if problems else OK


def _check_region(code, stdout, lam1) -> str:
    if code != 0:
        return FAILED
    lines = stdout.decode().splitlines()
    if lines[0] != "re,im,admissible" or len(lines) != 1 + 201 * 201:
        raise Wrong(f"region: {len(lines)} lines, header {lines[0]!r}")
    for line in lines[1:]:
        re_s, im_s, flag = line.split(",")
        l2 = complex(float(re_s), float(im_s))
        if flag == "skip":
            if not (abs(l2) <= 1e-9 or abs(l2 - lam1) <= 1e-9):
                raise Wrong(f"region: {l2} skipped")
            continue
        admissible, gap = oracle.gamma_test(lam1, l2)
        if gap >= oracle.BOUNDARY_MARGIN and admissible != (flag == "1"):
            raise Wrong(f"region: lambda2 = {l2} flagged {flag}, the gamma test says {admissible}")
    return OK


#: the worked constructions ``apportion demo`` replays, with the paper's constants
DEMO_KAPPAS = {"nilpotent-5x5": 1.0 / math.sqrt(3.0), "identity-plus-zeros-4x4": 1.0,
               "3x3-size2-plus-zero": 1.0, "3x3-plus-nilpotent": 1.0 / math.sqrt(3.0)}


def _check_demo(code, stdout) -> str:
    if code != 0:
        return FAILED
    cases = {c["case"]: c for c in json.loads(stdout)["demo"]}
    if set(cases) != set(DEMO_KAPPAS):
        raise Wrong(f"demo cases {sorted(cases)}")
    for name, want in DEMO_KAPPAS.items():
        c = cases[name]
        if not (c["uniform"] is True and abs(c["kappa"] - want) <= 1e-12
                and c["defect"] <= 1e-9 * want):
            raise Wrong(f"demo {name}: {c}, kappa should be {want!r}")
    return OK


# ---------------------------------------------------------------------------
# building a run
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """A workload's operations for one run, ready to time."""

    ops: list[Op]
    chunk: int                        # operations timed back to back before their checks
    cli: Optional["CliRunner"] = None  # set when the program runs in child processes


#: distinct certify-mix rounds generated per run; more rounds cycle through them
CERTIFY_DISTINCT_ROUNDS = 100


#: nominal seconds of one round: a run holds ``seconds / ROUND_SECONDS`` rounds
ROUND_SECONDS = {"certify-mix": 0.05, "search-grid": 20.0, "search-orders": 20.0,
                 "cli-calls": 5.0}


def rounds_for(name: str, seconds: int) -> int:
    """Whole rounds per run: the run length comes from the list, not a clock.

    cli-calls needs two rounds to compare identical calls.
    """
    return max(2 if name == "cli-calls" else 1, round(seconds / ROUND_SECONDS[name]))


def build(name: str, seed: int, seconds: int, root: str, workdir: str) -> Plan:
    """Generate the inputs of one run from ``seed`` and warm up each layer once."""
    rng = random.Random(f"{name}/{seed}")
    rounds = rounds_for(name, seconds)
    if name == "certify-mix":
        count = min(rounds, CERTIFY_DISTINCT_ROUNDS)
        distinct = [[certify_op(c) for c in certify_round(rng, r1)]
                    for r1 in stratified_rank_one(rng, count)]
        for c in certify_round(random.Random(f"{name}/warm-up")):
            certify_op(c).run(NullTracer())
        ops = interleave([distinct[r % len(distinct)] for r in range(rounds)], rng)
        return Plan(ops, 2 * len(distinct[0]))
    if name == "search-grid":
        from apportion import SearchConfig

        cfg = SearchConfig(**GRID_CONFIG)
        _warm_search(cfg)
        return Plan(interleave([grid_round(rng, cfg) for _ in range(rounds)], rng), 1)
    if name == "search-orders":
        from apportion import SearchConfig

        _warm_search(SearchConfig())
        return Plan(interleave([orders_round() for _ in range(rounds)], rng), 1)
    if name == "cli-calls":
        cli = CliRunner(root, workdir)
        calls = cli_round(rng, cli)
        cli.call(["demo"])
        cli.peak_rss_kb = 0
        return Plan(interleave([calls] * rounds, rng), 2, cli)
    raise ValueError(f"unknown workload {name!r}")


def _warm_search(cfg) -> None:
    from apportion import find_apportioning

    find_apportioning(np.diag([1.0 + 0j, -1.0]), cfg)
