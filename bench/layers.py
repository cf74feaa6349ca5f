"""Per-layer metrics of a traced run.

The traced run keeps the spans its own operations recorded and then sweeps
every layer once more, through the public functions of each module, so that
every workload reports every per-layer metric:

* import: a bare interpreter, and ``python -X importtime -c "import apportion"``;
* cli: ``apportion.cli.main(argv)`` in-process with stdout captured;
* jordan, classifier, constructors, core: seeded certify-mix rounds, with
  the core primitives called directly on each certificate;
* search: a fixed list of ``find_apportioning`` calls, one for each
  (order, outcome) pair named below.

Times are medians of span self time; counts are totals over the traced run.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

CLI_SUBCOMMANDS = ("classify", "apportion", "verify", "bounds", "region", "demo")
CLASSIFY_TAGS = (
    "zero-matrix", "order-one", "scalar-matrix", "nilpotent", "rank-one", "half-rank",
    "perturb-identity", "two-by-two", "repeated-eigenvalue", "3x3-template-j2-plus-zero",
    "3x3-template-plus-nilpotent", "open-3x3", "two-by-two-pad-zero",
    "two-by-two-pad-zero-inconclusive", "order-not-covered",
)
CERTIFY_TAGS = (
    "zero-matrix", "order-one", "nilpotent", "rank-one", "half-rank", "perturb-identity",
    "two-by-two", "two-by-two-pad-zero", "3x3-template-j2-plus-zero",
    "3x3-template-plus-nilpotent",
)
#: (order, outcome) pairs of search.find_ms and the sweep call that yields each
SEARCH_SWEEP = (
    ("n2.found", [(1.0, 1), (-1.0, 1)], dict(seed=1, restarts=32, defect_target=1e-6)),
    ("n2.refuted", [(1.0, 1), (2.0, 1)], dict(seed=1, restarts=32, defect_target=1e-6)),
    ("n3.found", [(0, 3)], dict(seed=0)),
    ("n4.found", [(1, 1), (-0.5 + 1j, 1), (0, 1), (0, 1)], dict(seed=0)),
    ("n4.missed", [(0, 2), (0, 2)], dict(seed=0)),
    ("n5.found", [(0, 5)], dict(seed=0)),
    ("n5.missed", [(0, 2), (0, 2), (0, 1)], dict(seed=0)),
    ("n6.found", [(0, 6)], dict(seed=0)),
    ("n6.missed", [(0, 6)], dict(seed=1)),
)
SEARCH_COUNTS = ("calls", "found", "missed", "false_finds", "restarts_used",
                 "apportionable_calls")

SWEEP_CERTIFY_ROUNDS = 5
SWEEP_REPEATS = 3


def names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"import.{part}_ms", "ms", "lower")
           for part in ("interpreter", "numpy", "scipy", "apportion")]
    out += [(f"cli.main_ms.{sub}", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    out.append(("cli.stdout_bytes", "bytes", "lower"))
    out += [(f"jordan.{fn}_us", "us", "lower")
            for fn in ("from_json", "build_jordan", "input_ordered_spec", "eigenstructure_small")]
    out += [(f"classifier.classify_us.{tag}", "us", "lower") for tag in CLASSIFY_TAGS]
    out.append(("classifier.admissible_region_ms", "ms", "lower"))
    out += [(f"constructors.request_certificate_us.{tag}", "us", "lower")
            for tag in CERTIFY_TAGS]
    out += [("constructors.verify_certificate_us", "us", "lower"),
            ("constructors.spiral_sum_us", "us", "lower")]
    out += [(f"core.{fn}_us", "us", "lower")
            for fn in ("is_uniform", "similarity_image", "reciprocal_condition",
                       "trace_lower_bound", "hadamard_lower_bound")]
    out += [(f"search.find_ms.{key}", "ms", "lower") for key, _, _ in SEARCH_SWEEP]
    out += [(f"search.{c}", "count", "higher" if c in ("found", "apportionable_calls")
             else "lower") for c in SEARCH_COUNTS]
    out.append(("search.found_per_apportionable", "ratio", "higher"))
    return out


# ---------------------------------------------------------------------------
# import layer
# ---------------------------------------------------------------------------

def _import_tree(stderr: str, prefixes) -> dict[str, float]:
    """Cumulative ms of the outermost import of each prefix, from -X importtime."""
    stack: list[list] = []  # [depth, name, cumulative_us, children]
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, field = line.split("|")
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append([depth, name, int(cum), children])
    totals = {p: 0.0 for p in prefixes}

    def walk(node, inside):
        _, name, cum, children = node
        hit = next((p for p in prefixes if name == p or name.startswith(p + ".")), None)
        if hit and hit not in inside:
            totals[hit] += cum / 1e3
            inside = inside | {hit}
        for child in children:
            walk(child, inside)

    for node in stack:
        walk(node, frozenset())
    return totals


def import_metrics(root: str) -> dict[str, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    bare, tree = [], []
    for _ in range(SWEEP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(1e3 * (perf_counter() - t0))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import apportion"],
                              env=env, check=True, stderr=subprocess.PIPE, text=True)
        tree.append(_import_tree(proc.stderr, ("numpy", "scipy", "apportion")))
    out = {"import.interpreter_ms": statistics.median(bare)}
    for key in ("numpy", "scipy", "apportion"):
        out[f"import.{key}_ms"] = statistics.median(t[key] for t in tree)
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def cli_sweep(tr, rng, root: str, workdir: str) -> int:
    """In-process cli.main on the documents of one cli-calls round."""
    from apportion import cli as cli_module

    runner = workloads.CliRunner(root, workdir)
    calls = [op.argv for op in workloads.cli_round(rng, runner)
             if not op.kind.startswith("cli.fault")]
    total = 0
    for _ in range(SWEEP_REPEATS):
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tr.span(f"cli.main_ms.{argv[0]}"):
                    code = cli_module.main(argv)
            if code != 0:
                raise RuntimeError(f"cli sweep: {argv} exited {code}: {err.getvalue()}")
            total += len(out.getvalue().encode())
    return total // SWEEP_REPEATS


def certify_sweep(tr, rng) -> None:
    """certify-mix rounds under the tracer, plus direct calls into jordan and core."""
    from apportion import (ApportionError, admissible_region, eigenstructure_small,
                           hadamard_lower_bound, input_ordered_spec, is_uniform,
                           reciprocal_condition, similarity_image, spiral_sum,
                           trace_lower_bound)

    for _ in range(SWEEP_CERTIFY_ROUNDS):
        for case in workloads.certify_round(rng):
            try:
                out = workloads.certify_op(case).run(tr)
            except ApportionError:  # counted as failed by the untraced run
                continue
            if case.form == "raw":
                with tr.span("jordan.input_ordered_spec_us"):
                    input_ordered_spec(case.A)
            elif case.form == "conj":
                with tr.span("jordan.eigenstructure_small_us"):
                    eigenstructure_small(case.A)
            cert = out.get("cert")
            if cert is None:
                continue
            with tr.span("core.is_uniform_us"):
                is_uniform(cert.B)
            try:
                with tr.span("core.similarity_image_us"):
                    similarity_image(cert.M, case.A)
            except ApportionError:
                pass
            with tr.span("core.reciprocal_condition_us"):
                reciprocal_condition(cert.M)
            with tr.span("core.trace_lower_bound_us"):
                trace_lower_bound(case.A)
            with tr.span("core.hadamard_lower_bound_us"):
                hadamard_lower_bound(case.A)
        n = rng.randint(2, 16)
        with tr.span("constructors.spiral_sum_us"):
            spiral_sum(n, (1.0 + rng.uniform(0.05, 2.0)) / n)
    for _ in range(SWEEP_REPEATS):
        lam1 = workloads.rand_lam(rng, 0.5, 1.5)
        with tr.span("classifier.admissible_region_ms"):
            admissible_region(lam1, ((-3.0, 3.0), (-3.0, 3.0)), 201)


def search_sweep(tr) -> None:
    from apportion import SearchConfig

    for _, blocks, cfg in SEARCH_SWEEP:
        workloads.search_op("sweep", blocks, SearchConfig(**cfg)).run(tr)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def per_layer(tr, args, root: str, workdir: str) -> dict[str, tuple[float, str]]:
    """Run the sweeps under ``tr`` and reduce the whole traced run to metrics."""
    rng = random.Random(f"layers/{args.workload}/{args.seed}")
    tr.op = -1
    values = import_metrics(root)
    values["cli.stdout_bytes"] = cli_sweep(tr, rng, root, workdir)
    certify_sweep(tr, rng)
    search_sweep(tr)
    for name, samples in tr.self_times().items():
        if name.endswith("_us") or "_us." in name:
            values[name] = 1e6 * statistics.median(samples)
        elif name.endswith("_ms") or "_ms." in name:
            values[name] = 1e3 * statistics.median(samples)
    for c in SEARCH_COUNTS:
        values[f"search.{c}"] = tr.counts.get(f"search.{c}", 0)
    base = tr.counts.get("search.apportionable_calls", 0)
    values["search.found_per_apportionable"] = (
        tr.counts.get("search.found_apportionable", 0) / base if base else 0.0)
    missing = [name for name, _, _ in names() if name not in values]
    if missing:
        raise RuntimeError(f"traced run produced no samples for {missing}")
    return {name: (float(values[name]), unit) for name, unit, _ in names()}
