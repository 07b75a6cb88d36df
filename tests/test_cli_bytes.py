"""Byte-level gate for the command line.

A fixed corpus of fast invocations runs `disclab.cli.main` in-process; the
sha256 of each one's stdout and its exit code are pinned in
`tests/data/cli_bytes.json`. A changed digit, key order or exit code fails
the test. When output changes on purpose, re-record with

    PYTHONPATH=src python tests/test_cli_bytes.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from disclab.cli import main

DATA = Path(__file__).parent / "data" / "cli_bytes.json"

# Input files, written by `disclab gen`. halton1100 spans two pair-sum blocks
# of 1024 rows; halton40 is small enough for the exact d=2 supremum;
# halton100d3 gives the Monte Carlo oracle a d=3 set.
INPUTS = {
    "vdc300": ("gen", "--kind", "vdc", "--n", "300"),
    "halton40": ("gen", "--kind", "halton", "--bases", "2,3", "--n", "40"),
    "halton1100": ("gen", "--kind", "halton", "--bases", "2,3", "--n", "1100"),
    "halton100d3": ("gen", "--kind", "halton", "--bases", "2,3,5", "--n", "100"),
}

# Oracle sample counts above 65536 span two Monte Carlo chunks; on halton1100
# the d=2 box count's row blocks (238 boxes) do not divide a chunk.
CORPUS = {
    "compute-star-d2": ("compute", "--kind", "star", "--in", "{halton1100}"),
    "compute-extreme-d2": ("compute", "--kind", "extreme", "--in", "{halton1100}"),
    "compute-periodic-d2": ("compute", "--kind", "periodic", "--in", "{halton1100}"),
    "compute-diaphony-d2": ("compute", "--kind", "diaphony", "--in", "{halton1100}"),
    "compute-star-pinf-csv": ("compute", "--kind", "star", "--p", "inf",
                              "--format", "csv", "--in", "{halton40}"),
    "compute-extreme-pinf": ("compute", "--kind", "extreme", "--p", "inf",
                             "--in", "{halton40}"),
    "compute-extreme-p1.5": ("compute", "--kind", "extreme", "--p", "1.5",
                             "--in", "{vdc300}"),
    "compute-star-p1.5": ("compute", "--kind", "star", "--p", "1.5", "--in", "{vdc300}"),
    "compute-extreme-pinf-d1": ("compute", "--kind", "extreme", "--p", "inf",
                                "--in", "{vdc300}"),
    "oracle-star-d1": ("oracle", "--kind", "star", "--p", "1", "--samples", "70000",
                       "--seed", "3", "--in", "{vdc300}"),
    "oracle-extreme-d1": ("oracle", "--kind", "extreme", "--p", "1.5", "--samples", "70000",
                          "--seed", "4", "--in", "{vdc300}"),
    "oracle-periodic-d1": ("oracle", "--kind", "periodic", "--p", "2", "--samples", "70000",
                           "--seed", "5", "--in", "{vdc300}"),
    "oracle-star-d2": ("oracle", "--kind", "star", "--p", "1", "--samples", "70000",
                       "--seed", "6", "--in", "{halton40}"),
    "oracle-extreme-d2": ("oracle", "--kind", "extreme", "--p", "1.5", "--samples", "70000",
                          "--seed", "7", "--in", "{halton40}"),
    "oracle-periodic-d2": ("oracle", "--kind", "periodic", "--p", "2", "--samples", "70000",
                           "--seed", "8", "--in", "{halton40}"),
    "oracle-extreme-d2-n1100": ("oracle", "--kind", "extreme", "--p", "1.5",
                                "--samples", "70000", "--seed", "9",
                                "--in", "{halton1100}"),
    "oracle-periodic-d3": ("oracle", "--kind", "periodic", "--p", "1.5",
                           "--samples", "70000", "--seed", "10",
                           "--in", "{halton100d3}"),
    "scan-star-json": ("scan", "--seq", "vdc", "--kind", "star", "--ns", "16..4096",
                       "--format", "json"),
    "scan-diaphony": ("scan", "--seq", "vdc", "--kind", "diaphony", "--ns", "16..4096"),
    "scan-extreme-p1.5": ("scan", "--seq", "vdc", "--kind", "extreme", "--p", "1.5",
                          "--ns", "16..512"),
    "scan-extreme-d2": ("scan", "--seq", "halton", "--kind", "extreme", "--ns", "16..256"),
    "scan-periodic-d2-p1.5": ("scan", "--seq", "halton", "--kind", "periodic", "--p", "1.5",
                              "--samples", "2000", "--ns", "16..64"),
    "verify-inequalities": ("verify", "--suite", "inequalities", "--trials", "5",
                            "--n", "16"),
    "verify-lemma1": ("verify", "--suite", "lemma1", "--seq", "halton", "--n", "64"),
    "verify-lemma1-vdc": ("verify", "--suite", "lemma1", "--seq", "vdc", "--n", "64"),
    "verify-vdc-constant": ("verify", "--suite", "vdc-constant", "--max-n", "1024"),
    "verify-growth": ("verify", "--suite", "growth", "--max-n", "4096"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _corpus_results(workdir: Path) -> dict[str, dict]:
    paths = {}
    for name, argv in INPUTS.items():
        paths[name] = str(workdir / f"{name}.csv")
        code, _ = _run([*argv, "--out", paths[name]])
        assert code == 0, name
    results = {}
    for name, argv in CORPUS.items():
        code, stdout = _run([a.format(**paths) for a in argv])
        results[name] = {
            "exit": code,
            "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        }
    return results


def test_cli_bytes_match_recorded(tmp_path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    got = _corpus_results(tmp_path)
    assert set(got) == set(expected)
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"CLI output or exit code changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_bytes.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = _corpus_results(Path(tmp))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} commands in {DATA}")
