import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chamberlab
from chamberlab import certify, cli
from chamberlab.cases import registry_case
from chamberlab.cli import EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_PIPELINE_ERROR, EXIT_USER_ERROR, \
    main
from chamberlab.errors import ExactDivisionError
from golden import BUNDLE_HASHES, CERTIFICATES, DERIVE_TEXT_HASH, derive_text_hashes, \
    without_volatile_lines
from root_checks import root_problems


def test_cases_listing(capsys):
    assert main(["cases"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("U5", "G2", "SOpxSOq", "SOn-1"):
        assert name in out


def test_cases_json(capsys):
    assert main(["cases", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 14


def test_derive_u5(tmp_path, capsys):
    assert main(["derive", "--case", "U5", "--out", str(tmp_path)]) == EXIT_OK
    (path,) = tmp_path.glob("*.bundle.json")
    doc = json.loads(path.read_text())
    assert doc["d"] == 4 and doc["n"] == 20
    a0 = doc["a_coeffs"][0]
    assert all(a + b == 9 for a, b, _ in a0)
    assert doc["degrees"]["a"] == [9, 9, 9, 9]


def test_derive_with_params(tmp_path):
    code = main(["derive", "--case", "SOpxSOq", "--param", "p=2",
                 "--param", "q=2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    (path,) = tmp_path.glob("*.bundle.json")
    doc = json.loads(path.read_text())
    assert doc["d"] == 2 and doc["multiplicities"] == [1, 1]


def test_derive_text_format_prints_coefficients(tmp_path, capsys):
    code = main(["derive", "--case", "SOn-1", "--format", "text",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "A0 = (-14/9" in out
    assert "C5 = 0" in out


def test_derive_text_output_matches_the_golden_hash():
    # The whole stdout of derive --format text --case all: every A and C line
    # of the 14 default rows and each "wrote" line.
    assert derive_text_hashes() == json.loads(DERIVE_TEXT_HASH.read_text())


def test_derive_all_cases(tmp_path):
    assert main(["derive", "--case", "all", "--out", str(tmp_path)]) == EXIT_OK
    paths = list(tmp_path.glob("*.bundle.json"))
    assert len(paths) == 14
    written = {hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert written == set(json.loads(BUNDLE_HASHES.read_text()).values())


def test_unknown_case_is_user_error(tmp_path, capsys):
    assert main(["derive", "--case", "nonsense", "--out", str(tmp_path)]) == EXIT_USER_ERROR
    assert "unknown case" in capsys.readouterr().err


def test_bad_param_is_user_error(tmp_path, capsys):
    for param, message in (("p=1", "error: case SOpxSOq: bound 'p >= 2' violated"),
                           ("n", "error: --param expects KEY=VALUE, got 'n'\n"),
                           ("p=x", "error: --param p: 'x' is not an integer\n")):
        code = main(["certify", "--case", "SOpxSOq", "--param", param,
                     "--out", str(tmp_path)])
        assert code == EXIT_USER_ERROR, param
        assert capsys.readouterr().err.startswith(message), param
    assert not list(tmp_path.iterdir())


def test_param_given_twice_is_user_error(tmp_path, capsys):
    # The second value would otherwise replace the first without a word.
    code = main(["certify", "--case", "SOpxSOq", "--param", "p=2", "--param", "p=3",
                 "--out", str(tmp_path)])
    assert code == EXIT_USER_ERROR
    assert capsys.readouterr().err == "error: --param p is given twice\n"
    assert not list(tmp_path.iterdir())


def test_integrate_all_is_user_error(tmp_path, capsys):
    code = main(["integrate", "--case", "all", "--x0", "1", "--y0", "0.3",
                 "--angle", "0.7", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USER_ERROR
    assert capsys.readouterr().err == "error: this command needs a single case, not 'all'\n"
    assert not list(tmp_path.iterdir())


def test_unwritable_output_path_is_user_error(tmp_path, capsys):
    # An --out that names a file, or a file's child, is reported, not raised:
    # exit 2, not the "not certified" exit 1 of an uncaught exception.
    blocker = tmp_path / "f"
    blocker.write_text("")
    for argv in (["certify", "--case", "SO3", "--out", str(blocker)],
                 ["derive", "--case", "SO3", "--out", str(blocker)],
                 ["integrate", "--case", "SU3", "--x0", "1", "--y0", "0.3",
                  "--angle", "0.7", "--steps", "5", "--out", str(blocker / "x.csv")]):
        assert main(argv) == EXIT_USER_ERROR, argv[0]
        assert capsys.readouterr().err.startswith("error: "), argv[0]
    assert blocker.read_text() == ""


def test_certify_single_case(tmp_path, capsys):
    assert main(["certify", "--case", "SOpxSOq", "--out", str(tmp_path)]) == EXIT_OK
    (path,) = tmp_path.glob("*.certificate.json")
    cert = json.loads(path.read_text())
    assert cert["conclusion"] == "nonexistence-certified"
    assert cert["resultant_degree"] == 27
    out = capsys.readouterr().out
    assert "nonexistence-certified" in out


def test_certify_failure_sets_exit_status(tmp_path, capsys, monkeypatch):
    # A resultant of the wrong degree does not certify: the certificate and
    # the table are written, the exit status says the sweep did not certify.
    compute = certify.compute_resultant

    def mismatched(bundle):
        report = compute(bundle)
        return report._replace(degree=report.degree + 1)

    monkeypatch.setattr(certify, "compute_resultant", mismatched)
    code = main(["certify", "--case", "SOn-1", "--out", str(tmp_path)])
    assert code == EXIT_NOT_CERTIFIED
    (path,) = tmp_path.glob("*.certificate.json")
    assert json.loads(path.read_text())["conclusion"] == "degree-mismatch"
    captured = capsys.readouterr()
    assert "degree-mismatch" in captured.out
    assert "1 case(s) not certified" in captured.err


def test_certify_internal_arithmetic_failure_is_pipeline_error(tmp_path, capsys, monkeypatch):
    # An inexact division inside the pipeline is a bug, not a case that did
    # not certify: exit 3, not 1, and no traceback.
    def failing(case):
        raise ExactDivisionError("division left a remainder")

    monkeypatch.setattr(cli, "certify_case", failing)
    code = main(["certify", "--case", "SOn-1", "--out", str(tmp_path)])
    assert code == EXIT_PIPELINE_ERROR
    assert "pipeline invariant violated: division left a remainder" in capsys.readouterr().err


def test_certify_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    # Any other exception is a bug too, such as poly.add's refusal to add
    # polynomials of unequal degrees: exit 3, not the 1 of an uncaught
    # exception, which would read as "not certified", and one line, no traceback.
    def failing(case):
        raise ValueError("sum of polynomials of different degrees")

    monkeypatch.setattr(cli, "certify_case", failing)
    code = main(["certify", "--case", "G2", "--out", str(tmp_path)])
    assert code == EXIT_PIPELINE_ERROR
    captured = capsys.readouterr()
    assert captured.err == \
        "internal error: ValueError: sum of polynomials of different degrees\n"
    assert not captured.out


def test_certify_rerun_is_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    main(["certify", "--case", "SO3", "--out", str(a_dir)])
    main(["certify", "--case", "SO3", "--out", str(b_dir)])
    (pa,) = a_dir.glob("*.json")
    (pb,) = b_dir.glob("*.json")
    da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
    for volatile in ("duration_ms", "created_utc"):
        da.pop(volatile), db.pop(volatile)
    assert da == db


def test_certify_all_writes_the_golden_certificates(tmp_path, capsys):
    # The headline sweep: every registry case certifies, one certificate file
    # per case.
    code = main(["certify", "--case", "all", "--out", str(tmp_path)])
    assert code == EXIT_OK
    files = sorted(tmp_path.glob("*.certificate.json"))
    assert len(files) == 14
    assert [p.name for p in files] == sorted(p.name for p in CERTIFICATES.iterdir())
    by_case = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        golden = (CERTIFICATES / path.name).read_text(encoding="utf-8")
        assert without_volatile_lines(text) == golden, path.name
        cert = json.loads(text)
        by_case[cert["case"]] = cert
        assert cert["conclusion"] == "nonexistence-certified", cert["label"]
        assert cert["resultant_degree"] == 27 * (cert["d"] - 1)
        if cert["factorization"] is not None:
            case = registry_case(cert["case"], cert["params"])
            assert root_problems(cert, case) == [], cert["label"]
        if cert["resultant_degree"] > 0:
            assert cert["exact_samples"], cert["label"]
    assert by_case["G2"]["resultant_degree"] == 135
    out = capsys.readouterr().out
    assert out.count("nonexistence-certified") == 14


def test_integrate_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["integrate", "--case", "SU3", "--mode", "minimal",
                 "--x0", "1", "--y0", "0.3", "--angle", "0.7",
                 "--steps", "200", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,x,y,xd,yd,f,A2,res_poly,res_ode"
    assert len(lines) == 202
    summary = capsys.readouterr().out
    assert "max|f|=" in summary and "stop=max_steps" in summary


def test_integrate_csv_to_stdout_keeps_summary_on_stderr(capsys):
    code = main(["integrate", "--case", "SU3", "--mode", "minimal",
                 "--x0", "1", "--y0", "0.3", "--angle", "0.7",
                 "--steps", "20", "--out", "-"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "s,x,y,xd,yd,f,A2,res_poly,res_ode"
    assert len(lines) == 22
    assert all(len(line.split(",")) == 9 for line in lines)
    assert "steps=20 stop=max_steps" in captured.err


def test_integrate_overflow_stops_the_curve(capsys):
    # A coarse step near G2's zeroth wall flings the curve out: after state 11
    # (|x| ~ 1e12) the next state's res_poly is not finite.  The curve stops
    # at state 11, with its own stop reason, exit 0.
    code = main(["integrate", "--case", "G2", "--mode", "biharmonic-candidate",
                 "--step-size", "3e-3", "--steps", "500",
                 "--x0", "0.9996573249755573", "--y0", "0.02617694830787315",
                 "--angle", "-1.5707963267948966", "--out", "-"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 12
    assert all(math.isfinite(float(v)) for v in rows[-1][:5])
    assert "steps=11 stop=overflow" in captured.err


def test_integrate_stage_on_a_wall_stops_the_curve(capsys):
    # From 2**-20 above SOpxSOq's wall y = 0, heading straight down with a
    # step of 2**-19, RK4's second stage lands on the wall, where qd is 0.0:
    # a wall stop at the start, exit 0, not an internal error.
    code = main(["integrate", "--case", "SOpxSOq", "--x0", "1", "--y0", "9.5367431640625e-07",
                 "--angle", "-1.5707963267948966", "--steps", "5",
                 "--step-size", "1.9073486328125e-06", "--out", "-"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert "steps=0 stop=boundary" in captured.err


def test_integrate_start_whose_values_overflow_is_user_error(capsys):
    # Starts inside the chamber but so far out that their own kernels
    # overflow: an error line, no CSV and no traceback, exit 2.
    for x0, y0 in (("1e200", "3e199"), ("1e60", "3e59")):
        code = main(["integrate", "--case", "SU3", "--x0", x0, "--y0", y0, "--angle", "0.5",
                     "--steps", "10", "--out", "-"])
        assert code == EXIT_USER_ERROR, x0
        captured = capsys.readouterr()
        assert captured.out == "", x0
        assert captured.err.startswith("error: initial state"), x0
        assert "overflow" in captured.err and "Traceback" not in captured.err, x0


def test_integrate_zero_steps(tmp_path):
    out = tmp_path / "single.csv"
    code = main(["integrate", "--case", "SU3", "--mode", "biharmonic-candidate",
                 "--x0", "1", "--y0", "0.3", "--angle", "0.7",
                 "--steps", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 2


def test_integrate_outside_chamber_is_user_error(tmp_path, capsys):
    code = main(["integrate", "--case", "SU3", "--mode", "minimal",
                 "--x0", "0.1", "--y0", "2.0", "--angle", "0.0",
                 "--steps", "10", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USER_ERROR
    assert "chamber" in capsys.readouterr().err


def test_integrate_bad_setting_is_user_error(tmp_path, capsys):
    # A rejected integrator setting or non-finite start value is reported,
    # not raised: exit 2, no CSV.
    for flag, value in (("--step-size", "0"), ("--step-size", "nan"),
                        ("--step-size", "1e-170"),  # its square is 0.0
                        ("--steps", "-3"),
                        ("--angle", "inf"), ("--angle", "nan"),
                        ("--x0", "inf"), ("--y0", "nan")):
        out = tmp_path / "x.csv"
        code = main(["integrate", "--case", "SU3", "--mode", "minimal",
                     "--x0", "1", "--y0", "0.3", "--angle", "0.7",
                     flag, value, "--out", str(out)])
        assert code == EXIT_USER_ERROR, (flag, value)
        assert capsys.readouterr().err.startswith("error: "), (flag, value)
        assert not out.exists()


def test_verify_reference_example_passes(capsys):
    assert main(["verify-paper-example"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_failing_reference_example_prints_diffs(monkeypatch, capsys):
    report = {"case": "U5", "passed": False, "scale": None,
              "diffs": ["anchor monomial x^9 missing from A0", "A1 x^0 y^9: derived 0"]}
    monkeypatch.setattr(cli, "verify_reference_example", lambda: report)
    assert main(["verify-paper-example"]) == EXIT_PIPELINE_ERROR
    assert capsys.readouterr().out == (
        "FAIL: derived U(5) coefficients disagree with the reference values:\n"
        "  anchor monomial x^9 missing from A0\n"
        "  A1 x^0 y^9: derived 0\n")


def test_module_entry_point_exit_codes():
    # `python -m chamberlab` runs main through __main__.py and exits with its code.
    src = str(Path(chamberlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "chamberlab", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    bad = run("certify", "--case", "nonsense")
    assert bad.returncode == EXIT_USER_ERROR, bad.stderr
    assert bad.stderr.startswith("error: unknown case 'nonsense'")
    good = run("verify-paper-example")
    assert good.returncode == EXIT_OK, good.stderr
    assert good.stdout.startswith("PASS")


def test_cli_import_loads_no_process_pool():
    # certify runs its cases in one process, and the records are NamedTuples
    # with time-module timestamps: of the modules that importing the front end
    # loads beyond a bare interpreter's, none is a process pool, dataclasses
    # (which loads inspect) or datetime.
    src = str(Path(chamberlab.__file__).parents[1])
    code = ("import sys; bare = set(sys.modules); import chamberlab.cli; "
            "print(sorted(m for m in set(sys.modules) - bare if m.split('.')[0] in "
            "('concurrent', 'multiprocessing', 'dataclasses', 'inspect', 'datetime')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_the_lab_unloaded():
    # The front end and the package load chamberlab.numerics only when a
    # curve is integrated, and every name of __all__, the lab's included,
    # still resolves (PEP 562), by attribute and by from-import.
    src = str(Path(chamberlab.__file__).parents[1])
    code = ("import sys, chamberlab, chamberlab.cli; "
            "print('chamberlab.numerics' in sys.modules); "
            "from chamberlab import integrate_curve; "
            "print(integrate_curve.__module__); "
            "print(all(hasattr(chamberlab, name) for name in chamberlab.__all__))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "chamberlab.numerics", "True"]
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        chamberlab.nonsense
    # The integrate parser, which names the modes without the lab, offers
    # the lab's modes.
    from chamberlab.numerics import MODES
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    (mode,) = (a for a in commands["integrate"]._actions if a.dest == "mode")
    assert tuple(mode.choices) == MODES and mode.default == MODES[0]


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAMBERLAB_OUT", str(tmp_path / "envdir"))
    assert main(["certify", "--case", "SOn-1"]) == EXIT_OK
    assert list((tmp_path / "envdir").glob("*.certificate.json"))


def test_out_dir_defaults_to_chamberlab_out(tmp_path, monkeypatch):
    # With neither --out nor $CHAMBERLAB_OUT, certify, derive and integrate
    # write under ./chamberlab_out.
    monkeypatch.delenv("CHAMBERLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--case", "SOn-1"]) == EXIT_OK
    assert main(["derive", "--case", "SOn-1"]) == EXIT_OK
    assert main(["integrate", "--case", "SOn-1", "--x0", "0", "--y0", "1",
                 "--angle", "0.3", "--steps", "5"]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "chamberlab_out").iterdir()) == [
        "SOn-1.trajectory.csv", "SOn-1_n=3.bundle.json", "SOn-1_n=3.certificate.json"]


def test_param_with_case_all_rejected(tmp_path, capsys):
    code = main(["certify", "--case", "all", "--param", "p=3",
                 "--out", str(tmp_path)])
    assert code == EXIT_USER_ERROR
