"""One benchmark child process: a timed set-up, one pass over the workload's
operations, then the cross-check reference values. The orchestrator
(`run.py`) starts it fresh for every pass, so each pass sees a cold process
and has its own peak RSS, taken before the cross-checks run.

Host speed: the shared host this benchmark runs on changes the speed of
interpreter-bound code by up to 2x over periods of a minute or more, longer
than a run. So the child also times a fixed probe (`probe_s`) after the
set-up and after every operation, and reports each time twice: as measured
(`s`, `setup_s`) and scaled to the reference host speed (`norm_s`,
`setup_norm_s`), i.e. multiplied by PROBE_REF_S over the mean of the probes
just before and just after the operation (the set-up: over the probe just
after it, so that numpy's import stays inside the set-up). The probe runs no
disclab code, so a change to disclab moves the scaled times as much as the
measured ones.

    python3 perfbench/worker.py --root R --workload W --seed-class C \
        --workdir DIR [--trace 0|1] [--threads T] [--ops a,b]

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, summarize  # noqa: E402
from workloads import CROSS_CHECKS, WORKLOADS, expand, inputs_of  # noqa: E402

# Median probe time on the reference host (2-vCPU Intel Xeon VM); a scaled
# time is the time the step would take on a host where the probe takes this.
PROBE_REF_S = 0.065
_FENWICK_N = 1 << 16
_fenwick = [0.0] * (_FENWICK_N + 1)


def probe_s() -> float:
    """Time of a fixed kernel made of the three kinds of work the ops spend
    their time in: an interpreter loop of integer arithmetic, Fenwick-tree
    updates over a 64k-entry list, and many numpy calls on 64-element
    arrays. Call it only once numpy is imported."""
    import numpy as np

    xs = np.linspace(0.0, 1.0, 64) ** 2
    cuts = np.linspace(0.0, 1.0, 66)
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    tree, n = _fenwick, _FENWICK_N
    for j in range(15_000):
        i = (j * 40_503) % n + 1
        while i <= n:
            tree[i] += 1.0
            i += i & (-i)
    for i in range(1_200):
        v = cuts[i % 60 :]
        counts = np.searchsorted(xs, v, side="right") - np.searchsorted(xs, cuts[i % 60])
        float(np.max(counts - 64 * v))
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * PROBE_REF_S / ((before + after) / 2.0)


def import_disclab(root: str):
    """Import disclab from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    disclab = importlib.import_module("disclab")
    importlib.import_module("disclab.cli")
    here = os.path.realpath(disclab.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"disclab was imported from {here}, not from {src}")
    return disclab


def write_inputs(disclab, workload: str, cls: int, workdir: str) -> dict[str, str]:
    """Generate the workload's point sets and write them as CSV files."""
    seqs, pointsets = disclab.sequences, disclab.pointsets
    paths = {}
    for inp in inputs_of(workload):
        if inp.source == "vdc":
            pts = seqs.prefix(seqs.VanDerCorput(2), inp.n)
        elif inp.source == "halton":
            pts = seqs.prefix(seqs.Halton((2, 3, 5, 7, 11, 13)[: inp.d]), inp.n)
        else:
            pts = disclab.rng.random_point_set(inp.n, inp.d, inp.seed_base + cls)
        path = os.path.join(workdir, inp.name + ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            pointsets.write_points(pts, fh)
        paths[inp.name] = path
    return paths


def run_op(cli, argv: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", "cli", cli.main, (argv,))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught exception is a failed operation, not a crash
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    return {
        "rc": rc,
        "s": seconds,
        "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "stdout": stdout,
        "stderr": err.getvalue(),
        "error": error,
    }


def cross_check_values(disclab, workload: str, paths: dict[str, str]) -> dict[str, float]:
    """Independent reference values for the ops that have a cross-check."""
    refs = {}
    for op, (method, inp, kind) in CROSS_CHECKS.get(workload, {}).items():
        pts = disclab.pointsets.read_points(paths[inp])
        if method == "prefix_scan":
            refs[op] = float(disclab.prefix_scan.prefix_discrepancies(pts, (kind,))[kind][-1])
        else:
            refs[op] = disclab.exact_l2.periodic_l2(pts)
    return refs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed-class", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--ops", default="", help="comma list of op names (default: all)")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    disclab = import_disclab(args.root)
    if tracer is not None:
        tracer.install()
    paths = write_inputs(disclab, args.workload, args.seed_class, args.workdir)
    pass_start = time.perf_counter()
    setup_s, probe = pass_start - t0, probe_s()
    result: dict = {"setup_s": setup_s, "setup_norm_s": scaled(setup_s, probe, probe),
                    "ops": {}, "probe_s": [probe]}

    wanted = set(args.ops.split(",")) if args.ops else None
    for op in WORKLOADS[args.workload]:
        if wanted is None or op.name in wanted:
            argv = expand(op, args.seed_class, args.threads, paths)
            r = result["ops"][op.name] = run_op(disclab.cli, argv, tracer)
            before, probe = probe, probe_s()
            r["norm_s"] = scaled(r["s"], before, probe)
            result["probe_s"].append(probe)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = summarize(tracer)
        result["pass_self_s"] = tracer.pass_self_s(pass_start)
        tracer.write(os.path.join(args.workdir, f"spans-{os.getpid()}.jsonl"))
    result["refs"] = cross_check_values(disclab, args.workload, paths)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
