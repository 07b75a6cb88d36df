import json
import subprocess
import sys

import pytest

from disclab import extreme_l2, random_point_set, read_points, write_points
from disclab.cli import main


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "disclab.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_gen_vdc_rows():
    r = run_cli("gen", "--kind", "vdc", "--base", "2", "--n", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "# d=1 n=4"
    assert lines[1:] == ["0", "0.5", "0.25", "0.75"]


def test_gen_halton_and_lift(tmp_path):
    out = tmp_path / "h.csv"
    r = run_cli("gen", "--kind", "halton", "--bases", "2,3", "--n", "6", "--out", str(out))
    assert r.returncode == 0
    pts = read_points(str(out))
    assert pts.n == 6 and pts.d == 2

    r = run_cli("lift", "--kind", "vdc", "--n", "4")
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    assert [row[1] for row in rows] == ["0", "0.25", "0.5", "0.75"]


def test_compute_single_point_half(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.5\n")
    r = run_cli("compute", "--kind", "extreme", "--p", "2", "--in", str(f))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["value"] == 0.28867513459481287
    assert payload["method"] == "exact-closed-form"
    assert payload["stderr"] is None
    assert list(payload.keys()) == [
        "kind", "p", "method", "value", "stderr", "samples", "seed", "n", "d",
    ]
    assert "0.28867513459481287" in r.stdout  # 17 significant digits on the wire


def test_round_trip_gen_compute_matches_library(tmp_path):
    f = tmp_path / "vdc.csv"
    run_cli("gen", "--kind", "vdc", "--n", "64", "--out", str(f))
    r = run_cli("compute", "--kind", "extreme", "--p", "2", "--in", str(f))
    got = json.loads(r.stdout)["value"]
    from disclab import VanDerCorput, prefix

    assert got == extreme_l2(prefix(VanDerCorput(2), 64))


def test_compute_linf_and_piecewise(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.0\n0.5\n")
    r = run_cli("compute", "--kind", "star", "--p", "inf", "--in", str(f))
    assert json.loads(r.stdout)["value"] == 1.0
    assert json.loads(r.stdout)["p"] == "inf"
    r = run_cli("compute", "--kind", "star", "--p", "1.5", "--in", str(f))
    assert json.loads(r.stdout)["method"] == "exact-piecewise"


def test_oracle_reproducible_bytes(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.25,0.5\n0.75,0.125\n")
    args = ("oracle", "--kind", "extreme", "--p", "1.5",
            "--samples", "200000", "--seed", "42", "--in", str(f))
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["seed"] == 42 and payload["samples"] == 200000
    assert payload["stderr"] > 0.0


def test_oracle_thread_cap_does_not_change_bytes(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.25,0.5\n0.75,0.125\n")
    args = ("oracle", "--kind", "star", "--p", "2", "--samples", "150000",
            "--seed", "7", "--in", str(f))
    one = run_cli(*args, env={"DISCLAB_THREADS": "1"})
    four = run_cli(*args, env={"DISCLAB_THREADS": "4"})
    assert one.stdout == four.stdout


def test_compute_thread_cap_does_not_change_bytes(tmp_path, monkeypatch, capsys):
    # n = 2100 gives three ragged block rows: six block pairs for the pool to split
    for seq, n in (("halton", 50), ("halton", 2100), ("vdc", 2100)):
        f = tmp_path / f"{seq}{n}.csv"
        assert main(["gen", "--kind", seq, "--bases", "2,3", "--n", str(n), "--out", str(f)]) == 0
        for kind in ("star", "extreme", "periodic", "diaphony"):
            outs = set()
            for cap in ("1", "2", "3", "4"):
                monkeypatch.setenv("DISCLAB_THREADS", cap)
                assert main(["compute", "--kind", kind, "--p", "2", "--in", str(f)]) == 0
                outs.add(capsys.readouterr().out)
            assert len(outs) == 1, (seq, n, kind)


def test_scan_csv_and_plot_data(tmp_path):
    plot = tmp_path / "ref.csv"
    r = run_cli("scan", "--seq", "vdc", "--kind", "extreme", "--p", "2",
                "--ns", "16..256:geometric", "--format", "csv",
                "--plot-data", str(plot))
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "N,value,rate,ratio"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["16", "32", "64", "128", "256"]
    ref = plot.read_text().strip().splitlines()
    assert ref[0] == "N,log_n_pow_d_half,log_n,sqrt_log_n"
    assert len(ref) == len(lines)


def test_scan_ns_list_and_json():
    r = run_cli("scan", "--seq", "vdc", "--kind", "star", "--p", "2",
                "--ns", "8,4,64", "--format", "json")
    payload = json.loads(r.stdout)
    assert [row["n"] for row in payload["rows"]] == [4, 8, 64]
    assert "fit" in payload


@pytest.mark.parametrize("seq", ["vdc", "halton"])
def test_scan_diaphony_refuses_p_not_2_as_compute_does(tmp_path, seq):
    f = tmp_path / "p.csv"
    run_cli("gen", "--kind", seq, "--n", "8", "--out", str(f))
    compute = run_cli("compute", "--kind", "diaphony", "--p", "3", "--in", str(f))
    scan = run_cli("scan", "--seq", seq, "--kind", "diaphony", "--p", "3", "--ns", "4,8")
    assert scan.returncode == compute.returncode == 1
    assert scan.stdout == ""
    assert scan.stderr == compute.stderr == (
        "disclab: error: diaphony is a quadratic quantity; use --p 2\n"
    )


@pytest.mark.parametrize("seq", ["vdc", "halton"])
def test_scan_diaphony_with_samples_is_the_exact_scan(seq, capsys):
    # diaphony has one evaluator, its p = 2 closed form: --samples changes nothing
    scan = ["scan", "--seq", seq, "--kind", "diaphony", "--ns", "4,8,16"]
    assert main([*scan, "--p", "2"]) == 0
    exact = capsys.readouterr().out
    assert main([*scan, "--p", "2", "--samples", "1000"]) == 0
    assert capsys.readouterr().out == exact
    assert main([*scan, "--p", "3", "--samples", "1000"]) == 1
    assert capsys.readouterr() == ("", "disclab: error: diaphony is a quadratic quantity; "
                                       "use --p 2\n")


def test_scan_without_samples_names_the_samples_flag():
    # p != 2 in d >= 2 has no exact evaluator; scan's remedy is --samples N
    r = run_cli("scan", "--seq", "halton", "--kind", "extreme", "--p", "1.5", "--ns", "4,8")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == (
        "disclab: error: no exact evaluator for extreme at p=1.5 in d=2; "
        "pass --samples N to scan by Monte Carlo\n"
    )
    sampled = run_cli("scan", "--seq", "halton", "--kind", "extreme", "--p", "1.5",
                      "--ns", "4,8", "--samples", "2000")
    assert sampled.returncode == 0


@pytest.mark.parametrize("seq", ["vdc", "halton"])
def test_scan_refuses_p_inf(seq):
    r = run_cli("scan", "--seq", seq, "--kind", "extreme", "--p", "inf", "--ns", "4,8")
    assert r.returncode == 1
    assert r.stderr == "disclab: error: scan requires finite p; use compute for p=inf\n"


@pytest.mark.parametrize("ns", ["2..0", "5..2:linear"])
def test_scan_empty_schedule_is_domain_error(ns):
    r = run_cli("scan", "--seq", "vdc", "--kind", "star", "--ns", ns)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "ns",
    ["0..4", "-3..8:geometric", "2..64:geometric:inf", "2..64:geometric:nan",
     "2..64:geometric:1.0000000001", "2..64:geometric:x", "2..64:linear:0",
     "2..64:linear:x", "1..99999999999999999999"],
)
def test_scan_bad_schedule_is_domain_error(ns):
    # each of these once looped forever, ended in a traceback or printed a
    # bare range() or float() message
    r = subprocess.run(
        [sys.executable, "-m", "disclab.cli", "scan", f"--ns={ns}"],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("disclab: error:") and "Traceback" not in r.stderr
    assert "--ns" in r.stderr or "factor" in r.stderr or "step" in r.stderr


def test_oracle_overflow_is_domain_error(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.5\n0.25\n")
    r = run_cli("oracle", "--kind", "periodic", "--p", "1e308", "--samples", "100",
                "--in", str(f))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("disclab: error:") and "overflows" in r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


def test_verify_lemma1_exit_zero(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli("verify", "--suite", "lemma1", "--seq", "vdc", "--n", "64",
                "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert all(c["margin"] >= 0 for c in rep["cases"])


def test_verify_inequalities_exit_zero():
    r = run_cli("verify", "--suite", "inequalities", "--trials", "10",
                "--dims", "1", "--n", "16")
    assert r.returncode == 0


def test_exit_code_domain_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0.5\n1.5\n")
    r = run_cli("compute", "--kind", "star", "--p", "2", "--in", str(f))
    assert r.returncode == 1
    assert "row 2" in r.stderr


def test_exit_code_usage_error():
    r = run_cli("compute", "--kind", "star")  # missing --in
    assert r.returncode == 2


def test_exit_code_missing_file():
    r = run_cli("compute", "--kind", "star", "--p", "2", "--in", "/nonexistent.csv")
    assert r.returncode == 1


def test_oracle_rejects_p_inf(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.5\n")
    r = run_cli("oracle", "--kind", "star", "--p", "inf", "--in", str(f))
    assert r.returncode == 1


def test_compute_rejects_nonexact_combination(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0.5,0.5\n")
    r = run_cli("compute", "--kind", "star", "--p", "3", "--in", str(f))
    assert r.returncode == 1
    assert "oracle" in r.stderr


def test_compute_overflow_and_underflow_are_domain_errors(tmp_path):
    vdc = tmp_path / "vdc.csv"
    run_cli("gen", "--kind", "vdc", "--n", "200", "--out", str(vdc))
    wide = tmp_path / "wide.csv"
    with open(wide, "w", encoding="utf-8") as fh:
        write_points(random_point_set(5, 400, 1), fh)
    for argv in (("--kind", "extreme", "--p", "300", "--in", str(vdc)),
                 ("--kind", "extreme", "--p", "2", "--in", str(wide))):
        r = run_cli("compute", *argv)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("disclab: error:") and "Traceback" not in r.stderr
        assert r.stdout == ""


def test_request_too_large_to_allocate_is_domain_error(capsys):
    # numpy refuses the 8 PB index array at once, with a MemoryError
    assert main(["gen", "--n", str(10**15)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("disclab: error: Unable to allocate") and err.endswith("\n")
