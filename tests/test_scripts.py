"""Smoke runs of the scripts under scripts/, which call the experiment
drivers end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_verifications_and_growth_report_write_their_reports(tmp_path):
    r = run_script("run_verifications.py", "--trials", "3", "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stdout + r.stderr
    names = ["growth_exponents", "inequalities", "lemma1_halton", "lemma1_vdc", "vdc_constant"]
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == names
    growth = json.loads((tmp_path / "growth_exponents.json").read_text())
    assert set(growth["fits"]) == {"star", "extreme", "n_diaphony"}
    const = json.loads((tmp_path / "vdc_constant.json").read_text())
    assert const["checks"]["envelope_slope_matches_target_1pct"]

    out = tmp_path / "vdc_growth.csv"
    r = run_script("growth_report.py", "--max-n", "1024", "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,star_l2,extreme_l2,periodic_l2,n_diaphony"
    assert len(lines) == 1024 and lines[-1].startswith("1024,")
    assert "n=2^10" in r.stdout
