"""Fuzz `disclab.cli.main` in-process over malformed point files, degenerate
point sets and bad flags.

Every invocation must end with exit code 0, 1, 2 or 3: a value, a domain
error, a usage error or a failed verdict. An exception escaping `main`, a
traceback on stderr, Python's own int() or float() conversion message on
stderr, or a numpy warning fails the test.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import PointSet, write_points
from disclab.cli import main

# degenerate coordinates: both ends of [0, 1), the smallest subnormal, and
# values that repeat across points and coordinates
COORDS = st.sampled_from([0.0, 1.0 - 2.0**-53, 2.0**-1074, 0.5, 0.25, 0.1, 0.75])

BAD_LINES = st.sampled_from([
    "abc", "1.0", "-0.1", "nan", "inf", "1e-400", "0.5,", ",", "0.5;0.5", "0.5 0.5",
    "0.5,0.5,0.5", "# d=2 n=3", "# d=x", "# d=0", "# d=-1", "# n=1", "#", "\x00", "",
])

P_VALUES = st.sampled_from(
    ["1", "1.5", "2", "3", "300", "1e308", "inf", "oo", "0.5", "-1", "nan", "-inf", "x", ""]
)

NS = st.sampled_from([
    "2..16", "16..64:geometric:1.5", "4..32:linear:4", "0..4", "-3..8", "2..64:geometric:inf",
    "2..64:geometric:nan", "2..64:geometric:1", "2..64:geometric:1.0000000001",
    "2..64:linear:0", "2..64:linear:-2", "2..64:linear:x", "2..64:cubic", "2..0",
    "1..99999999999999999999", "8,4,64", "1", "0,2", "a,b", "..", "2..",
])


@st.composite
def point_files(draw) -> str:
    kind = draw(st.sampled_from(["set", "set", "malformed", "empty"]))
    if kind == "set":
        n = draw(st.integers(1, 6))
        d = draw(st.sampled_from([1, 1, 2, 2, 3, 5, 300, 700]))
        vals = draw(st.lists(COORDS, min_size=1, max_size=12))
        buf = io.StringIO()
        write_points(PointSet(np.resize(vals, (n, d))), buf)
        return buf.getvalue()
    if kind == "empty":
        return draw(st.sampled_from(["", "# d=2 n=0\n", "\n\n"]))
    good = st.sampled_from(["0.5", "0.25,0.75", "0,0", "0.9999999999999999,0.5"])
    return "\n".join(draw(st.lists(st.one_of(good, BAD_LINES), min_size=1, max_size=5))) + "\n"


def _small_int(lo: int = -2, hi: int = 8):
    return st.integers(lo, hi).map(str)


@st.composite
def invocations(draw) -> list[str]:
    """argv with "{in}" for the point file and "{dir}" for its directory."""
    cmd = draw(st.sampled_from(["gen", "lift", "compute", "oracle", "scan", "verify", "nope"]))
    src = draw(st.sampled_from(["{in}", "{in}", "{in}", "{dir}", "{dir}/missing.csv"]))
    seq = ["--base", draw(st.sampled_from(["2", "3", "1", "0", "-2", str(2**64), "x"])),
           "--bases", draw(st.sampled_from(["2,3", "2,3,5", "2,4", "3", "", "x", "1,2"]))]
    if cmd in ("gen", "lift"):
        argv = [cmd, "--kind", draw(st.sampled_from(["vdc", "halton", "sobol"])),
                "--n", draw(_small_int(-2, 40)), *seq]
    elif cmd == "compute":
        argv = [cmd, "--kind", draw(st.sampled_from(["star", "extreme", "periodic", "diaphony"])),
                "--p", draw(P_VALUES), "--format", draw(st.sampled_from(["json", "csv"])),
                "--in", src]
    elif cmd == "oracle":
        argv = [cmd, "--kind", draw(st.sampled_from(["star", "extreme", "periodic", "diaphony"])),
                "--p", draw(P_VALUES), "--samples", draw(st.sampled_from(["-5", "0", "1", "100"])),
                "--seed", draw(st.sampled_from(["0", "-1", str(2**70), "x"])),
                "--threads", draw(st.sampled_from(["-1", "0", "1", "2"])), "--in", src]
    elif cmd == "scan":
        argv = [cmd, "--seq", draw(st.sampled_from(["vdc", "halton"])),
                "--kind", draw(st.sampled_from(["star", "extreme", "periodic", "diaphony"])),
                "--p", draw(P_VALUES), "--ns=" + draw(NS),
                "--samples", draw(st.sampled_from(["0", "100"])), *seq]
    elif cmd == "verify":
        argv = [cmd, "--suite",
                draw(st.sampled_from(["inequalities", "lemma1", "vdc-constant", "growth", "x"])),
                "--trials", draw(_small_int(-1, 2)), "--n", draw(_small_int(-1, 8)),
                "--dims", draw(st.sampled_from(["1", "2", "1,2", "0", "x", ""])),
                "--max-n", draw(st.sampled_from(["-1", "0", "2", "16", "64"])), *seq[2:]]
    else:
        argv = [cmd]
    if draw(st.booleans()) and cmd in ("gen", "compute", "oracle"):
        argv += ["--out", "{dir}"]  # a directory is not writable as a file
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(text=point_files(), argv=invocations())
@example(text="0.5\n", argv=["verify", "--suite", "inequalities", "--dims", "x"])
@example(text="0.5\n", argv=["scan", "--ns", "0..4"])
@example(text="0.5\n", argv=["scan", "--ns", "2..64:geometric:inf"])
@example(text="0.5\n", argv=["scan", "--ns", "2..64:linear:0"])
@example(text="0.5,0.25\n", argv=["oracle", "--kind", "periodic", "--p", "1e308",
                                   "--samples", "100", "--in", "{in}"])
@example(text="# d=700 n=1\n" + ",".join(["0"] * 700) + "\n",
         argv=["compute", "--kind", "diaphony", "--p", "2", "--in", "{in}"])
@settings(max_examples=300, deadline=None)
def test_cli_main_never_escapes_its_exit_codes(workdir, text, argv):
    infile = workdir / "points.csv"
    infile.write_text(text, encoding="utf-8")
    argv = [a.format(**{"in": infile, "dir": workdir}) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # each refusal names the flag or row it read, not Python's conversion error
    for message in ("invalid literal for int()", "could not convert string to float"):
        assert message not in err.getvalue(), (argv, err.getvalue())
