"""Command-line front end with JSON input/output and stable exit codes.

Matrices arrive as JSON documents holding either raw entries (complex scalars
as [re, im] pairs) or a Jordan block list; all results leave as JSON on
stdout with every float printed to 17 significant digits, so identical
invocations produce byte-identical output.  Diagnostics go to stderr.

Exit codes: 0 success, 2 malformed input document, 3 invalid or unsupported
input, 4 not apportionable, 5 verdict unknown, 6 requested constant not
achievable, 7 singular transform.

A subcommand imports the numeric layer, and with it numpy, only where it needs an array:
``classify`` and ``bounds`` on a Jordan document, and every malformed document, run on the
theory layer (``rules``) alone.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import numbers
import sys
from itertools import chain

from . import __version__
from .errors import (ApportionError, ConstantNotAchievableError, InvalidInputError,
                     SingularMatrixError)
from .reports import Verdict
from .rules import TemplateKind, classify, spec_bounds
from .scalar import DEFAULT_TOL, Tolerance
from .spec import JordanSpec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NOT_APPORTIONABLE = 4
EXIT_UNKNOWN = 5
EXIT_CONSTANT = 6
EXIT_SINGULAR = 7


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


_NESTS = (list, tuple)


def _emit_floats(obj):
    """A rectangular nest of lists of finite floats, such as a certificate
    matrix, formatted by one ``%`` pass over a bracket template (the same
    17-digit text as ``_format_float``); None for anything else.  numpy's
    float64 is a float, so its values pass too."""
    shape, items = [len(obj)], obj
    while items and type(items[0]) in _NESTS:   # one level deeper, if every item is a nest
        k = len(items[0])
        if not all(type(x) in _NESTS and len(x) == k for x in items):
            return None
        shape.append(k)
        items = list(chain.from_iterable(items))
    if (not items or not all(isinstance(x, float) for x in items)
            or not all(map(math.isfinite, items))):
        return None
    template = "%.17g"
    for k in reversed(shape):
        template = "[" + ",".join([template] * k) + "]"
    return template % tuple(items)


def _emit_json(obj) -> str:
    """Serialize with deterministic key order and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):   # int and numpy's integer types
        return str(int(obj))
    if isinstance(obj, numbers.Real):       # float and numpy's floating types
        return _format_float(float(obj))
    if isinstance(obj, (list, tuple)):
        floats = _emit_floats(obj)
        if floats is not None:
            return floats
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{_emit_json(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _print_json(obj):
    sys.stdout.write(_emit_json(obj) + "\n")


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _ParseFailure("matrix document must be a JSON object")
    return doc


class _ParseFailure(Exception):
    pass


def _part(x) -> float:
    """A real or imaginary part of a raw entry: a number (not a boolean) or numeric text,
    read by float(), with an integer past the float range read as an infinity."""
    if type(x) is bool:
        raise TypeError("a part must be a number, not a boolean")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _entry(pair) -> complex:
    """A raw entry: a JSON array of exactly two parts, [re, im]."""
    if type(pair) is not list or len(pair) != 2:
        raise TypeError(f"{json.dumps(pair)[:40]} is not one")
    return complex(_part(pair[0]), _part(pair[1]))


def _parse_matrix_document(doc: dict):
    """A document holds exactly one of 'entries' (with optional 'order') or 'jordan'.

    Raw entries are validated in Python (the [re, im] pairs, a nonempty square of finite
    entries, the declared order) before their array is built, so a malformed document is
    refused without loading numpy.  Returns (ndarray or None, JordanSpec or None).
    """
    has_entries = "entries" in doc
    has_jordan = "jordan" in doc
    if has_entries == has_jordan:
        raise _ParseFailure("document must contain exactly one of 'entries' or 'jordan'")
    if has_jordan:
        try:
            return None, JordanSpec.from_json(doc["jordan"])
        except (InvalidInputError, TypeError) as exc:
            raise _ParseFailure(f"bad jordan block list: {exc}") from exc
    entries = doc["entries"]
    try:
        rows = [[_entry(pair) for pair in row] for row in entries]
    except (TypeError, ValueError) as exc:
        raise _ParseFailure(f"entries must be an array of [re, im] pairs: {exc}") from exc
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise _ParseFailure(f"entries: expected a nonempty square matrix, got {n} rows of "
                            f"lengths {sorted({len(row) for row in rows})}")
    if not all(cmath.isfinite(z) for row in rows for z in row):
        raise _ParseFailure("entries: entries must be finite")
    if "order" in doc:
        try:
            order = int(doc["order"])
            if isinstance(doc["order"], float) and order != doc["order"]:
                raise ValueError(f"{doc['order']!r} is fractional")
        except (TypeError, ValueError, OverflowError) as exc:
            raise _ParseFailure(f"'order' must be an integer: {exc}") from exc
        if order != n:
            raise _ParseFailure("declared order does not match the entry array shape")
    from .core import as_matrix

    return as_matrix(rows, square=True, name="entries"), None


def _doc_input(doc: dict):
    M, spec = _parse_matrix_document(doc)
    return spec if spec is not None else M


def _doc_matrix(doc: dict):
    M, spec = _parse_matrix_document(doc)
    if spec is None:
        return M
    from .jordan import build_jordan

    return build_jordan(spec)


def _bounds_json(M, spec) -> dict:
    """Both lower bounds: from the block list for a Jordan document (no numpy), from the
    dense matrix for raw entries."""
    if spec is not None:
        trace_bound, det_bound = spec_bounds(spec.blocks)
    else:
        from .core import hadamard_lower_bound, trace_lower_bound

        trace_bound, det_bound = trace_lower_bound(M), hadamard_lower_bound(M)
    return {"trace_lower_bound": trace_bound, "hadamard_lower_bound": det_bound}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    M, spec = _parse_matrix_document(_read_document(args.matrix))
    out = classify(spec if spec is not None else M).to_json()
    out["bounds"] = _bounds_json(M, spec)
    _print_json(out)
    return EXIT_OK


def _cmd_apportion(args) -> int:
    inp = _doc_input(_read_document(args.matrix))
    report = classify(inp)
    if report.verdict is Verdict.NOT_APPORTIONABLE:
        print("not apportionable", file=sys.stderr)
        return EXIT_NOT_APPORTIONABLE
    if report.verdict is Verdict.UNKNOWN:
        print("apportionability unknown for this class", file=sys.stderr)
        return EXIT_UNKNOWN
    from .classifier import request_certificate

    # checked once, against the document's raw entries when it holds them
    cert = request_certificate(inp, kappa=args.kappa, report=report)
    out = cert.to_json()
    out["constants"] = report.constants.to_json()
    _print_json(out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    A = _doc_matrix(_read_document(args.matrix))
    M = _doc_matrix(_read_document(args.transform))
    from .core import is_uniform, similarity_image

    tol = Tolerance(rel=args.rel, abs=args.abs)
    B = similarity_image(M, A)
    rep = is_uniform(B, tol)
    _print_json({
        "is_uniform": rep.is_uniform,
        "kappa": rep.kappa,
        "defect": rep.defect,
    })
    return EXIT_OK


def _cmd_bounds(args) -> int:
    M, spec = _parse_matrix_document(_read_document(args.matrix))
    out = _bounds_json(M, spec)
    out["order"] = spec.order if spec is not None else M.shape[0]
    _print_json(out)
    return EXIT_OK


def _cmd_region(args) -> int:
    from .region import region_text

    lambda1 = complex(args.lambda1_re, args.lambda1_im)
    box = ((args.re_min, args.re_max), (args.im_min, args.im_max))
    # checked before the output is opened, and written one row block at a time
    chunks = region_text(lambda1, box, args.resolution, args.format)
    if args.output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    return EXIT_OK


def _search_config(args):
    # the search module is compiled only by the commands that run it
    from .search import SearchConfig

    return SearchConfig(
        restarts=args.restarts,
        seed=args.seed,
        defect_target=args.defect_target,
        max_iters=args.max_iters,
    )


def _cmd_search(args) -> int:
    A, spec = _parse_matrix_document(_read_document(args.matrix))
    from .jordan import build_jordan
    from .search import _require_search_order, find_apportioning

    if spec is not None:
        _require_search_order(spec.order)
        A = build_jordan(spec)
    outcome = find_apportioning(A, _search_config(args))
    _print_json(outcome.to_json(with_transcript=args.verbose))
    return EXIT_OK


def _cmd_sigma(args) -> int:
    inp = _doc_input(_read_document(args.matrix))
    from .search import sigma_estimate

    report = sigma_estimate(inp, args.m_max, _search_config(args))
    _print_json(report.to_json(with_transcript=args.verbose))
    return EXIT_OK


def _cmd_demo(_args) -> int:
    from .constructors import apportion_3x3_template, apportion_I_oplus_O, apportion_nilpotent
    from .core import is_uniform

    nilpotent = JordanSpec(((0j, 3), (0j, 2)))
    cases = []
    for name, cert in (
            ("nilpotent-5x5", apportion_nilpotent(nilpotent, 1.0 / math.sqrt(3.0))),
            ("identity-plus-zeros-4x4", apportion_I_oplus_O(2, 1.0)),
            ("3x3-size2-plus-zero", apportion_3x3_template(TemplateKind.LAMBDA_J2_PLUS_ZERO, 1.0)),
            ("3x3-plus-nilpotent", apportion_3x3_template(TemplateKind.LAMBDA_PLUS_N2, 1.0))):
        rep = is_uniform(cert.B)
        cases.append({"case": name, "kappa": rep.kappa, "defect": rep.defect,
                      "uniform": rep.is_uniform})
    _print_json({"demo": cases})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Takes any number for a value, so ``--kappa -1e-3`` means ``--kappa=-1e-3``."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apportion",
        description="Classify, construct, and verify equal-modulus similarity images.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="verdict and constant set for a matrix")
    p.add_argument("matrix", help="matrix document path, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("apportion", help="build a transforming certificate")
    p.add_argument("matrix")
    p.add_argument("--kappa", type=float, default=None,
                   help="target modulus (default: a canonical member of the set)")
    p.set_defaults(func=_cmd_apportion)

    p = sub.add_parser("verify", help="check M A M^-1 for uniformity")
    p.add_argument("matrix")
    p.add_argument("transform")
    p.add_argument("--rel", type=float, default=DEFAULT_TOL.rel)
    p.add_argument("--abs", type=float, default=DEFAULT_TOL.abs)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="trace and determinant lower bounds")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("region", help="admissible second-eigenvalue region (order 2)")
    p.add_argument("--lambda1-re", type=float, required=True)
    p.add_argument("--lambda1-im", type=float, default=0.0)
    p.add_argument("--re-min", type=float, default=-3.0)
    p.add_argument("--re-max", type=float, default=3.0)
    p.add_argument("--im-min", type=float, default=-3.0)
    p.add_argument("--im-max", type=float, default=3.0)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_region)

    for name, helptext in (("search", "numerical search for a transform"),
                           ("sigma", "least zero padding estimate")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("matrix")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=32)
        p.add_argument("--max-iters", type=int, default=2000)
        p.add_argument("--defect-target", type=float, default=1e-8)
        p.add_argument("--verbose", action="store_true",
                       help="include per-restart transcript")
        if name == "sigma":
            p.add_argument("--m-max", type=int, default=4)
            p.set_defaults(func=_cmd_sigma)
        else:
            p.set_defaults(func=_cmd_search)

    p = sub.add_parser("demo", help="replay the worked construction examples")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_ParseFailure, ApportionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _ParseFailure):
            return EXIT_PARSE
        if isinstance(exc, ConstantNotAchievableError):
            return EXIT_CONSTANT
        return EXIT_SINGULAR if isinstance(exc, SingularMatrixError) else EXIT_INVALID


def run() -> int:
    """Process entry (``python -m apportion.cli`` and the ``apportion`` script).

    Freezes the import-time heap first, so the cyclic collector never walks
    the package's objects again during the call, and freezes the heap again after
    it: a command that needs arrays imports numpy during the call, and the
    interpreter's final collection at exit then walks none of it.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
