import json
import math

import numpy as np
import pytest

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

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        path = write_doc(tmp_path, "m.json", entries_doc(np.diag([1.0, -1.0])))
        _, out = run(capsys, ["classify", path])
        assert "0.70710678118654746" in out or "0.70710678118654757" in out


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

    @pytest.mark.parametrize("order", [2, 2.0])
    def test_integral_order_accepted(self, tmp_path, capsys, order):
        doc = {**entries_doc(np.diag([1.0, 2.0])), "order": order}
        path = write_doc(tmp_path, "m.json", doc)
        code, out = run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "NotApportionable"

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
        # the set (5e307, inf) and its default member 7.5e307 survive an overflowing trace
        import warnings

        doc = jordan_doc([(1e308 + 0j, 1), (1e308 + 0j, 1), (0j, 1), (0j, 1)])
        path = write_doc(tmp_path, "m.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["apportion", path])
        assert code == 0
        assert json.loads(out)["kappa"] == 7.5e307

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

    def test_verify_defaults_are_the_library_defaults(self, tmp_path, capsys):
        # no absolute floor: a small non-uniform image is reported as such
        a_path = write_doc(tmp_path, "a.json", entries_doc([[1e-13, 0], [0, 0]]))
        m_path = write_doc(tmp_path, "m.json", entries_doc(np.eye(2)))
        code, out = run(capsys, ["verify", a_path, m_path])
        assert code == 0 and json.loads(out)["is_uniform"] is False
