import hashlib
import json

from chamberlab.cli import EXIT_NOT_CERTIFIED, EXIT_OK, EXIT_USER_ERROR, main
from golden import BUNDLE_HASHES, CERTIFICATES, without_volatile_lines


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
    code = main(["certify", "--case", "SOpxSOq", "--param", "p=1",
                 "--out", str(tmp_path)])
    assert code == EXIT_USER_ERROR
    assert "bound" in capsys.readouterr().err


def test_certify_single_case(tmp_path, capsys):
    assert main(["certify", "--case", "SOpxSOq", "--out", str(tmp_path)]) == EXIT_OK
    (path,) = tmp_path.glob("*.certificate.json")
    cert = json.loads(path.read_text())
    assert cert["conclusion"] == "nonexistence-certified"
    assert cert["resultant_degree"] == 27
    out = capsys.readouterr().out
    assert "nonexistence-certified" in out


def test_certify_failure_sets_exit_status(tmp_path, capsys):
    # At n=5 the single-wall quintic cancels identically, so the case is
    # inconclusive: the certificate and the table are written, the exit
    # status says the sweep did not certify.
    code = main(["certify", "--case", "SOn-1", "--param", "n=5", "--out", str(tmp_path)])
    assert code == EXIT_NOT_CERTIFIED
    (path,) = tmp_path.glob("*.certificate.json")
    assert json.loads(path.read_text())["conclusion"] == "inconclusive-resultant-vanishes"
    captured = capsys.readouterr()
    assert "inconclusive-resultant-vanishes" in captured.out
    assert "1 case(s) not certified" in captured.err


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


def test_certify_all_with_worker_pool(tmp_path, capsys):
    # The headline sweep: every registry case certifies, fanned out to two
    # worker processes, one certificate file per case.
    code = main(["certify", "--case", "all", "--out", str(tmp_path),
                 "--jobs", "2"])
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
        for root in cert["roots"]:
            assert root["residual"] < 1e-10, cert["label"]
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


def test_verify_reference_example_passes(capsys):
    assert main(["verify-paper-example"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAMBERLAB_OUT", str(tmp_path / "envdir"))
    assert main(["certify", "--case", "SOn-1"]) == EXIT_OK
    assert list((tmp_path / "envdir").glob("*.certificate.json"))


def test_param_with_case_all_rejected(tmp_path, capsys):
    code = main(["certify", "--case", "all", "--param", "p=3",
                 "--out", str(tmp_path)])
    assert code == EXIT_USER_ERROR
