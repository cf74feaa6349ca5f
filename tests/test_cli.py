import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apportion.cli import main


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def entries_doc(A):
    A = np.asarray(A, dtype=complex)
    return {"entries": [[[z.real, z.imag] for z in row] for row in A]}


def jordan_doc(blocks):
    return {"jordan": {"blocks": [{"re": l.real, "im": l.imag, "size": s}
                                  for l, s in blocks]}}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


#: raw-entry documents with a part that is not a finite number: integers past the float
#: range, which float() refuses, and a boolean
BAD_NUMBERS = {
    "integer-past-range": '{"entries": [[[1' + "0" * 400 + ', 0]]]}',
    "negative-integer-past-range": '{"entries": [[[0, -1' + "0" * 400 + ']]]}',
    "boolean": '{"entries": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]}',
}

#: raw-entry documents whose entry is not an [re, im] array: two-character text and a
#: two-key object were read as one (exit 0), three parts were refused already
NOT_PAIRS = {
    "text": '{"entries": [["12"]]}',
    "object": '{"entries": [[{"3": 0, "4": 0}]]}',
    "three-parts": '{"entries": [[[1, 2, 3]]]}',
}


class TestClassify:
    def test_nilpotent_block(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 2)]))
        code, out = run(capsys, ["classify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Apportionable"
        assert doc["constants"]["kind"] == "OpenHalfLine"

    def test_opposite_pair_entries(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json",
                         entries_doc(np.diag([1.0, -1.0])))
        code, out = run(capsys, ["classify", path])
        doc = json.loads(out)
        assert doc["constants"]["kind"] == "ClosedHalfLine"
        assert doc["constants"]["lo"] == pytest.approx(1 / math.sqrt(2))

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, ["classify", str(path)])
        assert code == 2

    def test_both_fields_rejected(self, tmp_path, capsys):
        doc = {**entries_doc(np.eye(2)), **jordan_doc([(0j, 2)])}
        path = write_doc(tmp_path, "m.json", doc)
        code, _ = run(capsys, ["classify", path])
        assert code == 2

    @pytest.mark.parametrize("order", ["x", None, [2]])
    def test_non_integer_order(self, tmp_path, capsys, order):
        doc = {**entries_doc(np.diag([1.0, 2.0])), "order": order}
        path = write_doc(tmp_path, "m.json", doc)
        code = main(["classify", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_raw_order_four_unsupported(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.eye(4)))
        code, _ = run(capsys, ["classify", path])
        assert code == 3


class TestApportion:
    def test_golden_nilpotent(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 3), (0j, 2)]))
        code, out = run(capsys, ["apportion", path, "--kappa", "0.57735026919"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == pytest.approx(1 / math.sqrt(3), rel=1e-9)
        B = np.array([[complex(re, im) for re, im in row] for row in doc["B"]])
        from helpers import GOLDEN_5X5_IMAGE

        assert np.abs(B - GOLDEN_5X5_IMAGE).max() < 1e-9

    def test_not_apportionable_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(5 + 0j, 2)]))
        code, _ = run(capsys, ["apportion", path])
        assert code == 4

    def test_unknown_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(1 + 0j, 3)]))
        code, _ = run(capsys, ["apportion", path])
        assert code == 5

    def test_constant_not_achievable_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([2.0, 0.0])))
        code, _ = run(capsys, ["apportion", path, "--kappa", "0.9"])
        assert code == 6

    def test_non_finite_certificate_refused(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 3), (0j, 2)]))
        code, out = run(capsys, ["apportion", path, "--kappa", "1e300"])
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("kappa", [None, "1e-12", "1e-9"])
    def test_tiny_eigenvalue_beside_nilpotent_block_refused(self, tmp_path, capsys, kappa):
        # [1e-10] + J2(0) in Jordan arrangement classifies as nilpotent (approximate),
        # but its certificate is built for the blocks the entries hold, which that rule
        # does not match: no certificate for a matrix it does not apportion
        A = np.array([[1e-10, 0, 0], [0, 0, 1], [0, 0, 0]])
        path = write_doc(tmp_path, "m.json", entries_doc(A))
        argv = ["apportion", path] + ([] if kappa is None else ["--kappa", kappa])
        assert run(capsys, argv) == (3, "")

    @pytest.mark.parametrize("kappa, expected", [("1e4", 0), ("1e6", 0), ("1e7", 3)])
    def test_rank_one_at_large_kappa(self, tmp_path, capsys, kappa, expected):
        # certified at 1e6 |lam|; at 1e7 the inverse product fails (max|M Minv - I| is
        # 2.2e-9 against 3e-10 at order 3) and the construction exits 3, never 7
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([1.0, 0.0, 0.0])))
        code, _ = run(capsys, ["apportion", path, "--kappa", kappa])
        assert code == expected

    def test_round_trip_verify(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([2.0, 0.0])))
        code, out = run(capsys, ["apportion", path, "--kappa", "1.5"])
        assert code == 0
        cert = json.loads(out)
        mpath = write_doc(tmp_path, "t.json", {"entries": cert["M"]})
        code, out = run(capsys, ["verify", path, mpath])
        assert code == 0
        rep = json.loads(out)
        assert rep["is_uniform"] is True
        assert rep["kappa"] == pytest.approx(1.5, rel=1e-9)

    def test_round_trip_non_canonical_order(self, tmp_path, capsys):
        # raw entries whose diagonal order differs from the canonical order
        path = write_doc(tmp_path, "m.json",
                         entries_doc(np.diag([1.0, 1.0, -0.5 + 1.0j])))
        kappa = math.sqrt(1 + 0.25)
        code, out = run(capsys, ["apportion", path, "--kappa", str(kappa)])
        assert code == 0
        cert = json.loads(out)
        mpath = write_doc(tmp_path, "t.json", {"entries": cert["M"]})
        code, out = run(capsys, ["verify", path, mpath])
        assert code == 0
        rep = json.loads(out)
        assert rep["is_uniform"] is True
        assert rep["kappa"] == pytest.approx(kappa, rel=1e-9)


class TestVerify:
    def test_identity_on_nonuniform(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", entries_doc(np.diag([1.0, 2.0])))
        m = write_doc(tmp_path, "m.json", entries_doc(np.eye(2)))
        code, out = run(capsys, ["verify", a, m])
        assert code == 0
        assert json.loads(out)["is_uniform"] is False

    def test_singular_transform(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", entries_doc(np.eye(2)))
        m = write_doc(tmp_path, "m.json",
                      entries_doc(np.array([[1.0, 2.0], [2.0, 4.0]])))
        code, _ = run(capsys, ["verify", a, m])
        assert code == 7


class TestBounds:
    def test_trace_bound(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json",
                         entries_doc(np.diag([1.0, 1.0, 1.0, -1.0])))
        code, out = run(capsys, ["bounds", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["trace_lower_bound"] == pytest.approx(0.5)

    @pytest.mark.parametrize("doc, trace", [
        (entries_doc(np.diag([1e308, 1e308])), 1e308),
        (jordan_doc([(1e308 + 0j, 1), (1e308 + 0j, 1), (0j, 1), (0j, 1)]), 5e307),
    ])
    def test_trace_bound_near_float_range(self, tmp_path, capsys, doc, trace):
        # the trace overflows, the bound does not: no "inf" and no RuntimeWarning
        import warnings

        path = write_doc(tmp_path, "m.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("bounds", "classify"):
                code, out = run(capsys, [command, path])
                assert code == 0
                out = json.loads(out)
                assert out.get("bounds", out)["trace_lower_bound"] == trace


class TestRegion:
    def test_csv_rows(self, capsys):
        code, out = run(capsys, [
            "region", "--lambda1-re", "1", "--re-min", "-3", "--re-max", "3",
            "--im-min", "-3", "--im-max", "3", "--resolution", "7",
        ])
        assert code == 0
        rows = {}
        for line in out.strip().split("\n")[1:]:
            re_s, im_s, flag = line.split(",")
            rows[(float(re_s), float(im_s))] = flag
        assert rows[(-1.0, 0.0)] == "1"
        assert rows[(2.0, 0.0)] == "0"
        assert rows[(1.0, 0.0)] == "skip"

    def test_svg_output(self, tmp_path, capsys):
        out_path = tmp_path / "region.svg"
        code, _ = run(capsys, [
            "region", "--lambda1-re", "1", "--resolution", "9",
            "--format", "svg", "-o", str(out_path),
        ])
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg")

    def test_zero_lambda1(self, capsys):
        code, _ = run(capsys, ["region", "--lambda1-re", "0"])
        assert code == 3

    def test_resolution_too_small(self, capsys):
        code, _ = run(capsys, ["region", "--lambda1-re", "1", "--resolution", "1"])
        assert code == 3


class TestSearchCommands:
    def test_search_found(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 2)]))
        code, out = run(capsys, ["search", path, "--seed", "1", "--restarts", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True

    def test_search_transcript(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(1 + 0j, 2)]))
        code, out = run(capsys, ["search", path, "--seed", "7", "--restarts", "4",
                                 "--verbose"])
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is False
        assert len(doc["restart_defects"]) == 4

    def test_sigma_identity_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(1 + 0j, 1), (1 + 0j, 1)]))
        code, out = run(capsys, ["sigma", path, "--m-max", "2", "--restarts", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma_upper_empirical"] == 2


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([1.0, -1.0])))
        outputs = []
        for _ in range(2):
            code, out = run(capsys, ["apportion", path, "--kappa", "2.0"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_search_byte_identical(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(1 + 0j, 2)]))
        argv = ["search", path, "--seed", "3", "--restarts", "4", "--verbose"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("obj", [
        [[[0.5, -0.0], [1e-320, -2.5e300]], [[1 / 3, 2.0], [np.float64(-7.25), 1e16]]],
        [0.1, 0.2, 0.30000000000000004],
        [[1.0, 2], [3.0, 4.0]],                  # an int leaf
        [[1.0, True]],                           # a bool leaf
        [[1.0, float("nan")], [float("inf"), -float("inf")]],
        [[1.0, 2.0], [3.0]],                     # ragged
        [[], []],
        [{"a": [1.5, -0.0]}, "s", None],
    ])
    def test_one_pass_floats_match_the_per_number_reference(self, obj):
        from apportion.cli import _emit_json, _format_float

        def reference(x):
            if isinstance(x, list):
                return "[" + ",".join(reference(v) for v in x) + "]"
            if isinstance(x, dict):
                return "{" + ",".join(f"{json.dumps(k)}:{reference(v)}" for k, v in x.items()) + "}"
            if isinstance(x, float):
                return _format_float(x)
            return json.dumps(x)

        assert _emit_json(obj) == reference(obj)

    def test_certificate_printed_as_its_numbers(self, tmp_path, capsys):
        from apportion import JordanSpec, request_certificate

        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 5)]))
        code, out = run(capsys, ["apportion", path, "--kappa", "0.75"])
        assert code == 0
        doc = json.loads(out)
        cert = request_certificate(JordanSpec(((0j, 5),)), kappa=0.75)
        for key in ("M", "Minv", "B"):
            printed = np.array(doc[key], dtype=float)
            assert np.array_equal(printed[..., 0] + 1j * printed[..., 1], getattr(cert, key))

    @pytest.mark.parametrize("blocks, tag", [
        (((0j, 1),) * 3, "zero-matrix"),
        (((-1.39 + 0.14j, 1),), "order-one"),
        (((0j, 8), (0j, 4)), "nilpotent"),
        (((0j, 1), (-0.5 - 0.27j, 1), (0j, 1)), "rank-one"),
        (((1 + 0j, 1), (0j, 1), (1 + 0j, 1), (0j, 1)), "identity-plus-zero"),
        (((0j, 1), (0.56 + 0.1j, 1), (0j, 1), (0j, 1), (0.96 + 1.11j, 1), (-0.98 - 1.31j, 2),
          (0j, 1), (0j, 1)), "half-rank"),
        (((1 + 0j, 1), (-0.5 + 1j, 1), (1 + 0j, 1)), "perturb-identity"),
        (((1 + 0j, 1), (-1 + 0j, 1)), "two-by-two"),
        (((0.65 - 0.05j, 2), (0j, 1)), "3x3-template-j2-plus-zero"),
        (((0j, 2), (-0.55 + 0.93j, 1)), "3x3-template-plus-nilpotent"),
        (((0j, 1), (0.27 + 1.84j, 1), (1.08 - 0.33j, 1)), "two-by-two-pad-zero"),
        (((0j, 256),), "nilpotent"),  # the dense cap
        (None, "signed zeros"),
    ])
    def test_certificate_json_matches_the_per_entry_build(self, blocks, tag):
        # a certificate's matrices are built in one pass each; printed, they
        # are byte for byte the [z.real, z.imag] of every entry, zero signs too
        from apportion import (ApportionCertificate, CertTag, JordanSpec, classify,
                               request_certificate)
        from apportion.cli import _emit_json

        if blocks is None:
            z = complex(-0.0, 0.0)
            M = np.array([[z, 1.0], [complex(0.0, -0.0), -1.5j]])
            cert = ApportionCertificate(M, M, M.conj(), 1.0, CertTag.SEARCH)
        else:
            report = classify(JordanSpec(blocks))
            assert report.theorem_tag == tag
            cert = request_certificate(JordanSpec(blocks), report=report)
        reference = cert.to_json()
        for key in ("M", "Minv", "B"):
            reference[key] = [[[z.real, z.imag] for z in row]
                              for row in np.asarray(getattr(cert, key), dtype=complex)]
        printed = _emit_json(cert.to_json())
        assert printed == _emit_json(reference)
        if blocks is None:
            assert "[[-0,0],[1,0]]" in printed and "[0,-0]" in printed

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([1.0, -1.0])))
        _, out = run(capsys, ["classify", path])
        assert "0.70710678118654746" in out or "0.70710678118654757" in out


class TestProcessEntry:
    def test_child_matches_in_process(self, tmp_path, capsys):
        # one call per exit code: python -m apportion.cli against cli.main
        import gc
        import os
        import subprocess
        import sys

        import apportion

        src = os.path.dirname(os.path.dirname(apportion.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        calls = {
            0: ["classify", write_doc(tmp_path, "raw.json", entries_doc(np.diag([1.0, -1.0])))],
            2: ["classify", str(bad)],
            3: ["region", "--lambda1-re", "0"],
            4: ["apportion", write_doc(tmp_path, "j2.json", jordan_doc([(5 + 0j, 2)]))],
            5: ["apportion", write_doc(tmp_path, "j3.json", jordan_doc([(1 + 0j, 3)]))],
            6: ["apportion", write_doc(tmp_path, "d.json", entries_doc(np.diag([2.0, 0.0]))),
                "--kappa", "0.9"],
        }
        frozen = gc.get_freeze_count()
        for code, argv in calls.items():
            proc = subprocess.run([sys.executable, "-m", "apportion.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert main(argv) == proc.returncode == code
            captured = capsys.readouterr()
            assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
        # only the process entry freezes the heap, never main itself
        assert gc.get_freeze_count() == frozen


class TestDemo:
    def test_demo_runs(self, capsys):
        code, out = run(capsys, ["demo"])
        assert code == 0
        doc = json.loads(out)
        assert all(case["uniform"] for case in doc["demo"])


class TestEdgeRefusals:
    @pytest.mark.parametrize("order", [2.7, 2.5, 2.000001])
    def test_fractional_order(self, tmp_path, capsys, order):
        doc = {**entries_doc(np.diag([1.0, 2.0])), "order": order}
        path = write_doc(tmp_path, "m.json", doc)
        code = main(["classify", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", [BAD_NUMBERS[name] for name in BAD_NUMBERS],
                             ids=list(BAD_NUMBERS))
    @pytest.mark.parametrize("command", ["classify", "bounds", "apportion", "verify", "search"])
    def test_bad_number_in_entries(self, tmp_path, capsys, text, command):
        # an integer past the float range is refused as 1e400 is (it was an OverflowError
        # traceback), and a boolean as in a Jordan document (it was read as 1)
        path = tmp_path / "m.json"
        path.write_text(text)
        code = main([command, str(path)] + ([str(path)] if command == "verify" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", list(NOT_PAIRS.values()), ids=list(NOT_PAIRS))
    @pytest.mark.parametrize("command",
                             ["classify", "bounds", "apportion", "verify", "search", "sigma"])
    def test_entry_not_a_pair(self, tmp_path, capsys, text, command):
        path = tmp_path / "m.json"
        path.write_text(text)
        code = main([command, str(path)] + ([str(path)] if command == "verify" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: entries must be an array of [re, im] pairs")
        assert captured.err.count("\n") == 1

    def test_numeric_text_parts_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [[["3", "4"]]]}')
        code, out = run(capsys, ["classify", str(path)])
        assert code == 0
        assert json.loads(out)["constants"]["values"] == [5.0]

    @pytest.mark.parametrize("order", [2, 2.0])
    def test_integral_order_accepted(self, tmp_path, capsys, order):
        doc = {**entries_doc(np.diag([1.0, 2.0])), "order": order}
        path = write_doc(tmp_path, "m.json", doc)
        code, out = run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "NotApportionable"

    @pytest.mark.parametrize("field, value", [("size", 2.7), ("size", 2.000001),
                                              ("size", True), ("size", 1e400),
                                              ("re", True), ("im", False)])
    def test_bad_jordan_block_field(self, tmp_path, capsys, field, value):
        block = {"re": 0.0, "im": 0.0, "size": 2, field: value}
        path = write_doc(tmp_path, "m.json", {"jordan": {"blocks": [block]}})
        code = main(["classify", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("size", [2, 2.0])
    def test_integral_block_size_accepted(self, tmp_path, capsys, size):
        doc = {"jordan": {"blocks": [{"re": 0.0, "im": 0.0, "size": size}]}}
        code, out = run(capsys, ["classify", write_doc(tmp_path, "m.json", doc)])
        assert code == 0
        assert json.loads(out)["theorem_tag"] == "nilpotent"

    @pytest.mark.parametrize("option, value", [("--defect-target", "inf"),
                                               ("--defect-target", "1e300"),
                                               ("--defect-target", "nan"),
                                               ("--defect-target", "1.0"),
                                               ("--seed", "-1")])
    def test_search_config_refused(self, tmp_path, capsys, option, value):
        # 2 I_3 is NotApportionable; a loose target used to print "found": true
        path = write_doc(tmp_path, "m.json", entries_doc(2 * np.eye(3)))
        code = main(["search", path, option, value])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_sigma_negative_seed_refused(self, tmp_path, capsys):
        # three distinct nonzero eigenvalues: Unknown, so sigma would search
        path = write_doc(tmp_path, "m.json", jordan_doc([(1 + 0j, 1), (2 + 0j, 1), (3j, 1)]))
        code, out = run(capsys, ["classify", path])
        assert json.loads(out)["verdict"] == "Unknown"
        code, out = run(capsys, ["sigma", path, "--seed", "-1", "--m-max", "0"])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("doc, kappa, expected", [
        (jordan_doc([(0j, 3), (0j, 2)]), "inf", 6),
        (jordan_doc([(0j, 3), (0j, 2)]), "nan", 6),
        (jordan_doc([(0j, 3), (0j, 2)]), "1e300", 3),
        (jordan_doc([(0j, 3), (0j, 2)]), "1e-300", 3),
        (jordan_doc([(1 + 0j, 1), (2 + 0j, 1), (0j, 1), (0j, 1)]), "1e200", 3),
        (entries_doc(np.diag([1.0, -1.0])), "1e200", 3),
    ])
    def test_extreme_kappa_exit_code_without_warnings(self, tmp_path, capsys,
                                                      doc, kappa, expected):
        import warnings

        path = write_doc(tmp_path, "m.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["apportion", path, "--kappa", kappa])
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, option, value, expected", [
        (["apportion", "DOC"], "--kappa", "-1e-3", 6),
        (["region", "--lambda1-re", "1"], "--re-min", "-1e308", 0),
        (["region"], "--lambda1-re", "-1e-3", 0),
    ])
    def test_negative_number_in_exponent_form(self, tmp_path, capsys, argv, option,
                                              value, expected):
        # argparse reads "-1e-3" as an option by default; "--opt -1e-3" must act
        # as "--opt=-1e-3"
        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 3), (0j, 2)]))
        argv = [path if a == "DOC" else a for a in argv]
        spaced = run(capsys, argv + [option, value])
        joined = run(capsys, argv + [f"{option}={value}"])
        assert spaced == joined
        assert spaced[0] == expected

    @pytest.mark.parametrize("scale", [1e175, 1e300])
    def test_raw_entries_near_float_range(self, tmp_path, capsys, scale):
        import warnings

        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([scale, scale])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "NotApportionable"

    def test_region_resolution_cap(self, capsys):
        code, out = run(capsys, ["region", "--lambda1-re", "1", "--resolution", "1002"])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("option, value, transform", [
        ("--rel", "inf", np.eye(2)), ("--rel", "2", np.eye(2)), ("--rel", "1.0", np.eye(2)),
        ("--abs", "inf", np.array([[1.0, 5.0], [3.0, 7.0]]))])
    def test_verify_loose_tolerance_refused(self, tmp_path, capsys, option, value, transform):
        # diag(1, 2) is NotApportionable; these tolerances used to call its image uniform
        a = write_doc(tmp_path, "a.json", entries_doc(np.diag([1.0, 2.0])))
        m = write_doc(tmp_path, "m.json", entries_doc(transform))
        code = main(["verify", a, m, option, value])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_sigma_negative_padding_refused(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(1 + 0j, 1), (2 + 0j, 1), (3j, 1)]))
        code, out = run(capsys, ["sigma", path, "--m-max", "-1"])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("argv", [["apportion", "DOC"], ["verify", "DOC", "DOC"],
                                      ["search", "DOC"], ["sigma", "DOC", "--m-max", "0"]])
    def test_large_jordan_document_refused_before_allocation(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        def no_allocation(*_args, **_kwargs):
            raise AssertionError("a dense matrix allocated for a refused order")

        monkeypatch.setattr(np, "zeros", no_allocation)
        path = write_doc(tmp_path, "m.json", jordan_doc([(0j, 40_000)]))
        code, out = run(capsys, [path if a == "DOC" else a for a in argv])
        assert code == 3 and out == ""

    def test_search_restart_budget(self, tmp_path, capsys, monkeypatch):
        from apportion import search

        def no_start(*_):
            raise AssertionError("starting points drawn for an over-budget search")

        monkeypatch.setattr(search, "_initial_points", no_start)
        path = write_doc(tmp_path, "m.json", entries_doc(np.eye(16)))
        code, out = run(capsys, ["search", path, "--restarts", "1000000"])
        assert code == 3 and out == ""

    def test_order_two_search_restart_budget(self, tmp_path, capsys, monkeypatch):
        from apportion import search

        def no_start(*_):
            raise AssertionError("starting points drawn for an over-budget search")

        monkeypatch.setattr(search, "_initial_points", no_start)
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([1.0, 2.0])))
        code, out = run(capsys, ["search", path, "--restarts", "500000"])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("scale", [1e175, 1e300])
    def test_opposite_pair_lower_end_near_float_range(self, tmp_path, capsys, scale):
        # |l1 l2| overflows at this scale: the bound stays finite, and the
        # set's own lower end is certified
        import warnings

        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([scale, -scale])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["classify", path])
            assert code == 0
            lower = json.loads(out)["constants"]["lower_bound"]
            assert lower == pytest.approx(scale / math.sqrt(2), rel=1e-12)
            for argv in ([], ["--kappa", repr(lower)]):
                code, out = run(capsys, ["apportion", path, *argv])
                assert code == 0
                assert json.loads(out)["kappa"] == pytest.approx(lower, rel=1e-12)

    def test_default_member_near_float_range(self, tmp_path, capsys):
        # the set [5e307, inf) and its default member 5e307 survive an overflowing trace
        import warnings

        doc = jordan_doc([(1e308 + 0j, 1), (1e308 + 0j, 1), (0j, 1), (0j, 1)])
        path = write_doc(tmp_path, "m.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["apportion", path])
        assert code == 0
        assert json.loads(out)["kappa"] == 5e307

    @pytest.mark.parametrize("lams, found", [((1e100, -1e100), True),
                                             ((1e175, 1e175), False)])
    def test_search_near_float_range_child(self, tmp_path, lams, found):
        # LAPACK writes to the process's own stderr, so a child process shows it
        import os
        import subprocess
        import sys

        import apportion

        src = os.path.dirname(os.path.dirname(apportion.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag(lams)))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "apportion.cli", "search",
                               path], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["found"] is found
        assert math.isfinite(doc["best_defect"])


class TestScale:
    def test_small_raw_pair_not_apportionable(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([1e-10, 2e-10])))
        code, out = run(capsys, ["apportion", path])
        assert code == 4 and out == ""

    def test_small_singleton_other_kappa_refused(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", jordan_doc([(1e-10 + 0j, 1), (1e-10j, 1)]))
        code, out = run(capsys, ["classify", path])
        assert json.loads(out)["constants"]["values"] == pytest.approx([7.0710678118654755e-11], rel=1e-12, abs=0)
        code, out = run(capsys, ["apportion", path, "--kappa", "2.1e-10"])
        assert code == 6 and out == ""

    @pytest.mark.parametrize("scale", [1e13, 1e100])
    def test_large_rank_one_raw_entries(self, tmp_path, capsys, scale):
        from apportion import ApportionCertificate, CertTag, verify_certificate

        A = np.diag([scale, 0.0, 0.0])
        path = write_doc(tmp_path, "m.json", entries_doc(A))
        code, out = run(capsys, ["apportion", path])
        assert code == 0
        doc = json.loads(out)
        M, Minv, B = (np.array([[complex(*z) for z in row] for row in doc[k]])
                      for k in ("M", "Minv", "B"))
        cert = ApportionCertificate(M, Minv, B, doc["kappa"], CertTag(doc["theorem_tag"]))
        assert verify_certificate(cert, A).kappa == pytest.approx(scale / 3, rel=1e-9)

    @pytest.mark.parametrize("blocks", [[(5e-324 + 0j, 1), (0j, 1)],
                                        [(1.7e308 + 1.7e308j, 1), (0j, 1), (0j, 1)]])
    def test_rank_one_at_the_float_range_ends(self, tmp_path, capsys, blocks):
        # |lam|/2 underflows and |lam| overflows: classify reports a set that holds no 0,
        # and apportion certifies (the certificate verifies) or exits 3
        path = write_doc(tmp_path, "m.json", jordan_doc(blocks))
        code, out = run(capsys, ["classify", path])
        assert code == 0
        report = json.loads(out)
        assert report["theorem_tag"] == "rank-one" and report["constants"]["lo"] > 0
        code, out = run(capsys, ["apportion", path])
        assert code in (0, 3)
        if code == 0:
            m_path = write_doc(tmp_path, "M.json", {"entries": json.loads(out)["M"]})
            code, out = run(capsys, ["verify", path, m_path])
            assert code == 0 and json.loads(out)["is_uniform"] is True

    def test_verify_defaults_are_the_library_defaults(self, tmp_path, capsys):
        # no absolute floor: a small non-uniform image is reported as such
        a_path = write_doc(tmp_path, "a.json", entries_doc([[1e-13, 0], [0, 0]]))
        m_path = write_doc(tmp_path, "m.json", entries_doc(np.eye(2)))
        code, out = run(capsys, ["verify", a_path, m_path])
        assert code == 0 and json.loads(out)["is_uniform"] is False


#: an eigenvalue whose modulus, 2.4e308, is past the float range, and the largest float
HUGE = 1.7e308 + 1.7e308j
LARGEST = 1.7976931348623157e308


class TestFloatRangeEnds:
    """Finite documents whose eigenvalue moduli pass the float range exit with a code,
    never a traceback: a constant set with no float member is invalid input (3), a
    bound past the range is the largest float, and the rest classify and build."""

    @pytest.mark.parametrize("doc, commands, expected", [
        (jordan_doc([(HUGE, 1)]), ["classify", "apportion"], (3,)),
        (entries_doc([[HUGE]]), ["classify", "apportion", "sigma"], (3,)),
        (jordan_doc([(HUGE, 2), (0j, 1)]), ["classify", "apportion"], (3,)),
        (jordan_doc([(HUGE, 1), (HUGE, 1), (0j, 1), (0j, 1)]), ["classify"], (0,)),
        (jordan_doc([(HUGE, 1), (HUGE, 1), (0j, 1), (0j, 1)]), ["apportion"], (0, 3)),
        (jordan_doc([(HUGE, 1), (1 + 0j, 1), (0j, 1), (0j, 1)]), ["classify"], (0,)),
        (jordan_doc([(HUGE, 1), (1 + 0j, 1), (0j, 1), (0j, 1)]), ["apportion"], (0, 3)),
        (jordan_doc([(HUGE, 1), (-HUGE, 1)]), ["classify", "bounds"], (0,)),
        (jordan_doc([(HUGE, 1), (-HUGE, 1)]), ["apportion"], (0, 3)),
        (entries_doc(np.diag([HUGE, -HUGE])), ["classify"], (0,)),
        (entries_doc(np.diag([HUGE, -HUGE])), ["apportion"], (0, 3)),
        (jordan_doc([(HUGE, 1), (HUGE, 1)]), ["classify", "bounds"], (0,)),
        (jordan_doc([(HUGE, 1)] * 3 + [(-1.7e308 + 1.7e308j, 1)]), ["classify", "bounds"],
         (0,)),
    ])
    def test_exit_code(self, tmp_path, capsys, doc, commands, expected):
        path = write_doc(tmp_path, "m.json", doc)
        for command in commands:
            extra = ["--m-max", "0"] if command == "sigma" else []
            code = main([command, path, *extra])
            captured = capsys.readouterr()
            assert code in expected, command
            if code == 3:
                assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("doc", [jordan_doc([(HUGE, 1)]), entries_doc([[HUGE]])])
    def test_bounds_past_range_are_the_largest_float(self, tmp_path, capsys, doc):
        code, out = run(capsys, ["bounds", write_doc(tmp_path, "m.json", doc)])
        assert code == 0
        assert json.loads(out) == {"trace_lower_bound": LARGEST,
                                   "hadamard_lower_bound": LARGEST, "order": 1}

    def test_determinant_bound_past_range(self, tmp_path, capsys):
        # |H| / sqrt(2) = 1.7e308 is in range: reported as itself, not the largest float
        path = write_doc(tmp_path, "m.json", jordan_doc([(HUGE, 1), (-HUGE, 1)]))
        code, out = run(capsys, ["bounds", path])
        assert code == 0
        bound = json.loads(out)["hadamard_lower_bound"]
        assert bound == pytest.approx(1.7e308, rel=1e-13) and bound <= 1.7e308

    #: R(pi/8), the rotation by pi/8, and the documents of raw entries near the ends
    ROT = np.array([[math.cos(math.pi / 8), -math.sin(math.pi / 8)],
                    [math.sin(math.pi / 8), math.cos(math.pi / 8)]])
    WIDE_IMAGE = [[1e-300 + 1.7e308j, -5e-324 + 1.7e308j], [1.7e308j, -1.7e308 + 5e-324j]]
    WIDE_PARTS = [[1e-300 - 5e-324j, -1.7e308 + 1e-300j], [-1.0, 2.0]]

    @staticmethod
    def _quiet_main(argv):
        """main's exit code, stdout and stderr, and the warnings it raised."""
        import contextlib
        import io
        import warnings

        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]

    def test_verify_inverts_at_unit_scale(self, tmp_path):
        # M = 1e308 (1 + i) R(pi/8) is well conditioned: the image is uniform at 1/sqrt(2),
        # as under R(pi/8), not a singular transform
        a_path = write_doc(tmp_path, "a.json", entries_doc(np.diag([1.0, -1.0])))
        outs = []
        for M in (1e308 * (1 + 1j) * self.ROT, self.ROT):
            m_path = write_doc(tmp_path, "m.json", entries_doc(M))
            code, out, _, caught = self._quiet_main(["verify", a_path, m_path])
            assert code == 0 and caught == []
            outs.append(json.loads(out))
        assert outs[0]["is_uniform"] is True
        assert outs[0]["kappa"] == pytest.approx(1 / math.sqrt(2.0), rel=1e-15)
        assert outs[0]["kappa"] == pytest.approx(outs[1]["kappa"], rel=1e-15)

    def test_verify_image_past_the_range(self, tmp_path):
        a_path = write_doc(tmp_path, "a.json", entries_doc(self.WIDE_IMAGE))
        m_path = write_doc(tmp_path, "m.json", entries_doc([[1.0, 0.5], [0.0, 1.0]]))
        code, out, err, caught = self._quiet_main(["verify", a_path, m_path])
        assert (code, out, caught) == (3, "", [])
        assert "leaves the float range" in err

    def test_arrangement_read_at_unit_scale(self, tmp_path):
        # read as diag(H1, H2), which classify also reads: a two-by-two certificate
        h1, h2 = 1.7e308 - 1.7e308j, 1.7e308j
        path = write_doc(tmp_path, "a.json", entries_doc([[h1, 1.0], [0.0, h2]]))
        code, out, err, caught = self._quiet_main(["apportion", path])
        assert code in (0, 3) and caught == [], err
        assert "no constructive path" not in err
        if code == 0:
            assert json.loads(out)["theorem_tag"] == "TwoByTwo"
            m_path = write_doc(tmp_path, "m.json", {"entries": json.loads(out)["M"]})
            code, out, _, caught = self._quiet_main(["verify", path, m_path])
            assert code == 0 and caught == [] and json.loads(out)["is_uniform"] is True

    @pytest.mark.parametrize("command", ["classify", "apportion", "sigma"])
    def test_parts_wider_than_unit_scale_refused(self, tmp_path, command):
        path = write_doc(tmp_path, "a.json", entries_doc(self.WIDE_PARTS))
        extra = ["--m-max", "0"] if command == "sigma" else []
        code, out, err, caught = self._quiet_main([command, path, *extra])
        assert (code, out, caught) == (3, "", [])
        assert "span too wide a range" in err

    def test_bounds_of_parts_wider_than_unit_scale(self, tmp_path):
        path = write_doc(tmp_path, "a.json", entries_doc(self.WIDE_PARTS))
        code, out, _, caught = self._quiet_main(["bounds", path])
        assert (code, out, caught) == (
            0, '{"trace_lower_bound":1,"hadamard_lower_bound":0,"order":2}\n', [])

    def test_identity_plus_zero_at_the_least_float(self, tmp_path):
        path = write_doc(tmp_path, "a.json", jordan_doc([(5e-324 + 0j, 1), (0j, 1)] * 2))
        code, out, _, caught = self._quiet_main(["classify", path])
        assert code == 0 and caught == []
        assert json.loads(out)["constants"]["description"] == "[4.94065645841e-324, inf)"

    def test_region_past_range(self, capsys):
        code, out = run(capsys, ["region", "--lambda1-re", "1.7e308", "--lambda1-im", "1.7e308",
                                 "--resolution", "5"])
        assert code == 0
        assert out.count("\n") == 26 and out.count("skip") == 1


_PARTS = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308)


@st.composite
def extreme_blocks(draw):
    """Jordan blocks of total order 1-6 whose eigenvalue parts are 0, 1 or near either
    end of the float range, of either sign."""
    part = st.sampled_from(_PARTS + tuple(-x for x in _PARTS if x))
    blocks, order = [], draw(st.integers(1, 6))
    while order:
        size = draw(st.integers(1, order))
        blocks.append((complex(draw(part), draw(part)), size))
        order -= size
    return blocks


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blocks=extreme_blocks())
def test_float_range_ends_exit_with_a_code(tmp_path_factory, blocks):
    # classify, bounds and apportion end with an exit code, never a traceback or a
    # RuntimeWarning
    import contextlib
    import io
    import warnings

    path = write_doc(tmp_path_factory.mktemp("doc"), "m.json", jordan_doc(blocks))
    for command in ("classify", "bounds", "apportion"):
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, path]) in (0, 3, 4, 5, 6), command


@st.composite
def extreme_entries(draw, n):
    """A raw order-n matrix whose entry parts are 0, 1 or near either end of the float
    range, of either sign."""
    part = st.sampled_from(_PARTS + tuple(-x for x in _PARTS if x))
    return np.array([[complex(draw(part), draw(part)) for _ in range(n)] for _ in range(n)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_raw_float_range_ends_exit_with_a_code(tmp_path_factory, data, n):
    # raw entries: classify, apportion, bounds and verify end with an exit code, never a
    # traceback or a warning
    import contextlib
    import io
    import warnings

    tmp = tmp_path_factory.mktemp("doc")
    path = write_doc(tmp, "a.json", entries_doc(data.draw(extreme_entries(n))))
    m_path = write_doc(tmp, "m.json", entries_doc(data.draw(extreme_entries(n))))
    for argv in (["classify", path], ["apportion", path], ["bounds", path],
                 ["verify", path, m_path]):
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            assert main(argv) in (0, 3, 4, 5, 6, 7), argv


class TestWithoutNumpy:
    """``classify`` and ``bounds`` on a Jordan document, and a malformed document, run on
    the theory layer alone: in a child whose import of numpy fails they print what an
    ordinary child prints, byte for byte, with the same exit codes."""

    #: the console-script CI step's documents: one per constructive rule (two-by-two's
    #: set is finite) and the huge-* ones, whose moduli pass the float range
    RULE_BLOCKS = {
        "zero-matrix": [(0j, 1)] * 3,
        "order-one": [(-1.39 + 0.14j, 1)],
        "nilpotent": [(0j, 8), (0j, 4)],
        "rank-one": [(0j, 1), (-0.5 - 0.27j, 1), (0j, 1)],
        "identity-plus-zero": [(1 + 0j, 1), (0j, 1), (1 + 0j, 1), (0j, 1)],
        "half-rank": [(0j, 1), (0.56 + 0.1j, 1), (0j, 1), (0j, 1), (0.96 + 1.11j, 1),
                      (-0.98 - 1.31j, 2), (0j, 1), (0j, 1)],
        "perturb-identity": [(1 + 0j, 1), (-0.5 + 1j, 1), (1 + 0j, 1)],
        "two-by-two": [(1 + 0j, 1), (-1 + 0j, 1)],
        "two-by-two-finite": [(1 + 0j, 1), (1j, 1)],
        "3x3-template-j2-plus-zero": [(0.65 - 0.05j, 2), (0j, 1)],
        "3x3-template-plus-nilpotent": [(0j, 2), (-0.55 + 0.93j, 1)],
        "two-by-two-pad-zero": [(0j, 1), (0.27 + 1.84j, 1), (1.08 - 0.33j, 1)],
        "huge-one": [(HUGE, 1)],
        "huge-template": [(HUGE, 2), (0j, 1)],
        "huge-ipz": [(HUGE, 1), (HUGE, 1), (0j, 1), (0j, 1)],
        "huge-half": [(HUGE, 1), (1 + 0j, 1), (0j, 1), (0j, 1)],
        "huge-pair": [(HUGE, 1), (-HUGE, 1)],
        "huge-scalar": [(HUGE, 1), (HUGE, 1)],
        "huge-perturb": [(HUGE, 1)] * 3 + [(-1.7e308 + 1.7e308j, 1)],
    }

    #: runs each argument list of argv[1:] (JSON) through cli.main, the import of numpy
    #: failing when argv[0] is "block", and prints [exit code, stdout] per call
    CHILD = (
        "import contextlib, io, json, sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "if sys.argv[1] == 'block':\n"
        "    sys.meta_path.insert(0, Refuse())\n"
        "from apportion.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        results.append([main(argv), out.getvalue()])\n"
        "print(json.dumps([results, 'numpy' in sys.modules]))\n"
    )

    def test_classify_and_bounds_match_a_child_with_numpy(self, tmp_path):
        import os
        import subprocess
        import sys

        import apportion

        paths = [write_doc(tmp_path, f"{name}.json", jordan_doc(blocks))
                 for name, blocks in self.RULE_BLOCKS.items()]
        for name, text in BAD_NUMBERS.items():
            (tmp_path / f"{name}.json").write_text(text)
            paths.append(str(tmp_path / f"{name}.json"))
        paths.append(write_doc(tmp_path, "bad-order.json",
                               {**entries_doc(np.diag([1.0, 2.0])), "order": "x"}))
        calls = json.dumps([[command, path] for path in paths
                            for command in ("classify", "bounds")])
        src = os.path.dirname(os.path.dirname(apportion.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        runs = {}
        for mode in ("block", "load"):
            proc = subprocess.run([sys.executable, "-c", self.CHILD, mode, calls], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs[mode] = json.loads(proc.stdout)
        (blocked, numpy_loaded), (loaded, _) = runs["block"], runs["load"]
        assert blocked == loaded and not numpy_loaded
        codes = [code for code, _ in blocked]
        assert codes.count(2) == 2 * (len(BAD_NUMBERS) + 1) and set(codes) <= {0, 2, 3}


def _reference_emit_json(obj) -> str:
    """The formatter as it was with a numpy object array, the reference for
    ``cli._emit_json``."""
    from apportion.cli import _format_float

    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        leaves = np.array(obj, dtype=object)  # a ragged nest keeps lists as leaves
        if leaves.size and set(map(type, leaves.flat)) <= {float, np.float64}:
            values = leaves.astype(float)
            if np.isfinite(values).all():
                template = "%.17g"
                for k in reversed(values.shape):
                    template = "[" + ",".join([template] * k) + "]"
                return template % tuple(values.ravel().tolist())
        return "[" + ",".join(_reference_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{_reference_emit_json(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


#: floats with the edge cases drawn often: signed zeros, subnormals, NaN and infinities
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, float("nan"), float("inf"), -float("inf")]))
_FLOAT_LEAVES = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_LEAVES = st.one_of(_FLOAT_LEAVES, st.integers(-2**70, 2**70), st.booleans())


@st.composite
def rectangular_nests(draw, leaves):
    """A nest of lists (some tuples) of one shape, of up to 3 axes of up to 3 items."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))

    def fill(dims):
        if not dims:
            return draw(leaves)
        nest = [fill(dims[1:]) for _ in range(dims[0])]
        return tuple(nest) if draw(st.booleans()) else nest

    return fill(shape)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(obj=st.one_of(
    rectangular_nests(_FLOAT_LEAVES), rectangular_nests(_LEAVES),
    st.recursive(_LEAVES, lambda nest: st.lists(nest, max_size=4)
                 | st.lists(nest, max_size=4).map(tuple), max_leaves=24)))
def test_emit_json_matches_the_object_array_formatter(obj):
    from apportion.cli import _emit_json

    assert _emit_json(obj) == _reference_emit_json(obj)
    assert _emit_json({"x": obj}) == _reference_emit_json({"x": obj})
