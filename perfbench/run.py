"""disclab benchmark: time, memory and correctness of fixed CLI workloads,
plus a traced run that splits the time by module.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30] [--trace 1]
    python3 perfbench/run.py --record      # re-record perfbench/reference.json

The repository root is the parent of this directory; disclab is imported
from its `src/`. A run starts fresh child processes (`worker.py`) one after
another until `--seconds` is used, and at least MIN_PASSES untraced ones.
Each child times its own set-up (import disclab, generate the inputs, write
the CSV files), runs the workload's operations once, in-process through
`disclab.cli.main` with stdout captured, and then computes the cross-check
references. With --trace 1 the children alternate untraced and traced.
Scratch files, span dumps and per-pass times go to `.bench_work/` under the
root.

Times are scaled to the reference host speed with the probe `worker.py`
times around every step (see there): the host drifts by up to 2x over
minutes, and the scaled times keep a run's figures comparable with another
run's. Set-up times are always scaled, pass times on the workloads that
`workloads.PROBE_SCALED` names. The report also prints the measured pass
time.

End-to-end metrics (--trace 0):
  setup_s      median scaled set-up time over the pass children
  wall_s       time of one pass: the sum over operations of each one's
               median (scaled) time over the passes
  peak_rss_mb  median peak resident memory of the pass children
  ok_op_frac   1 - failed / attempted operations (never 0, unlike
               failed_op_frac, which the report line prints)
Per-layer metrics (--trace 1): medians over the traced children, each one
traced set-up plus one traced pass, of the totals `tracing.summarize` forms;
lp_oracle.mc_scaling_eff is t1 / (2 t2) of the paired oracle op over the
untraced passes (0 on workloads without it); host.probe_s is the median probe
time; trace.wall_s is the traced pass time, scaled as wall_s, and
trace.overhead_frac = trace.wall_s / wall_s - 1. The report also checks that
the layer self times inside the traced pass sum to its time within
|trace.overhead_frac| + 5%.

An operation fails if it raises, exits with another code than the recorded
one, prints other bytes than recorded at the reference commit, or misses its
cross-check: d=1 closed forms within 1e-6 relative of the prefix-scan engine,
Monte Carlo values within 4 standard errors of the exact closed form, and
1-thread and 2-thread oracle outputs byte-identical.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import PROBE_SCALED, SCALING_PAIR, SEED_CLASSES, WORKLOADS, seed_class  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".bench_work")

MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
REL_TOL = 1e-6
N_STDERR = 4.0

# Metric names and units, and the run length, have one home: BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The workload process sees no thread-count overrides: oracle ops pass
    --threads explicitly and native libraries run one thread each."""
    env = {k: v for k, v in os.environ.items() if k not in ("DISCLAB_THREADS", "PYTHONPATH")}
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    return env


def environment() -> dict:
    head = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        head = r.stdout.strip() or None
    return {
        "git_head": head,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


class Child:
    """Runs worker.py processes for one workload and seed class."""

    def __init__(self, workload: str, cls: int, deadline: float) -> None:
        self.workload, self.cls, self.deadline = workload, cls, deadline
        self.workdir = os.path.join(WORK, workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.env = child_env()
        self.threads = min(2, nproc())

    def __call__(self, trace: int = 0, ops: list[str] | None = None) -> dict | None:
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--root", ROOT, "--workload", self.workload, "--seed-class", str(self.cls),
            "--workdir", self.workdir, "--trace", str(trace), "--threads", str(self.threads),
        ]
        if ops:
            cmd += ["--ops", ",".join(ops)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            r = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                               text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"benchmark: {self.workload} child timed out", file=sys.stderr)
            return None
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            print(f"benchmark: {self.workload} child exited {r.returncode}", file=sys.stderr)
            return None
        return json.loads(r.stdout.strip().splitlines()[-1])


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def expected(reference: dict, cls: int) -> dict[str, tuple[int, str]]:
    """Recorded (exit code, stdout sha256) per op for seed class `cls`."""
    out = {}
    for name, ref in reference.items():
        rc, sha = ref["rc"], ref["sha256"]
        out[name] = (rc[cls], sha[cls]) if isinstance(sha, list) else (rc, sha)
    return out


def op_failures(workload: str, ops: dict, want: dict, refs: dict) -> dict[str, str]:
    """Failure reason per failed op of one pass."""
    bad = {}
    for name, r in ops.items():
        want_rc, want_sha = want.get(name, (None, None))
        if want_sha is None:
            bad[name] = "no recorded reference; run --record"
        elif r["error"]:
            bad[name] = "raised: " + r["error"].strip().splitlines()[-1]
        elif r["rc"] != want_rc:
            bad[name] = f"exit code {r['rc']}, expected {want_rc}"
        elif r["sha256"] != want_sha:
            bad[name] = "output bytes differ from the reference"
        elif name in refs:
            est, ref = json.loads(r["stdout"]), refs[name]
            if est["stderr"] is None:
                ok = abs(est["value"] - ref) <= REL_TOL * abs(ref)
                rule = f"relative {REL_TOL:g}"
            else:
                ok = abs(est["value"] - ref) <= N_STDERR * est["stderr"]
                rule = f"{N_STDERR:g} stderr"
            if not ok:
                bad[name] = f"cross-check: {est['value']!r} vs {ref!r} ({rule})"
    pair_workload, one, two = SCALING_PAIR
    if workload == pair_workload and two not in bad:
        if ops[one]["sha256"] != ops[two]["sha256"]:
            bad[two] = "output differs between 1 and 2 threads"
    return bad


def op_median_sum(passes: list[dict], key: str) -> float:
    """Time of one pass as the sum over ops of each op's median time."""
    names = passes[0]["ops"].keys()
    return sum(statistics.median(p["ops"][n][key] for p in passes) for n in names)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cls = seed_class(seed)
    child = Child(workload, cls, time.monotonic() + RUN_LIMIT_S)
    n_ops = len(WORKLOADS[workload])
    passes: list[dict] = []
    attempted = failed = 0
    measure_start = time.monotonic()
    while True:
        n_plain = sum(not p["traced"] for p in passes)
        is_traced = bool(trace) and n_plain > len(passes) - n_plain
        t0 = time.monotonic()
        res = child(trace=int(is_traced))
        attempted += n_ops
        if res is None:
            failed += n_ops
            break
        res["traced"], res["child_s"] = is_traced, time.monotonic() - t0
        passes.append(res)
        n_plain = sum(not p["traced"] for p in passes)
        enough = n_plain >= MIN_PASSES if not trace else 0 < n_plain < len(passes)
        # start another child only if it would end within half a child of the budget
        half = statistics.median(p["child_s"] for p in passes) / 2
        if enough and time.monotonic() - measure_start + half > seconds:
            break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    want = expected(load_reference(workload), cls)
    for p in passes:
        bad = op_failures(workload, p["ops"], want, p["refs"])
        for name, why in bad.items():
            print(f"benchmark: {workload} op {name} failed: {why}", file=sys.stderr)
        failed += len(bad)
    with open(os.path.join(child.workdir, "passes.json"), "w", encoding="utf-8") as fh:
        json.dump([{"traced": p["traced"], "setup_s": p["setup_s"], "rss_mb": p["rss_mb"],
                    "setup_norm_s": p["setup_norm_s"], "probe_s": p["probe_s"],
                    "op_s": {k: v["s"] for k, v in p["ops"].items()},
                    "op_norm_s": {k: v["norm_s"] for k, v in p["ops"].items()}} for p in passes],
                  fh, indent=1)

    metrics: dict[str, float] = {}
    layer_share = None
    key = "norm_s" if PROBE_SCALED[workload] else "s"
    measured_wall_s = op_median_sum(plain, "s") if plain else None
    if plain and not trace:
        metrics = {
            "setup_s": statistics.median(p["setup_norm_s"] for p in plain),
            "wall_s": op_median_sum(plain, key),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "ok_op_frac": 1.0 - failed / attempted,
        }
    elif plain and traced:
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        pair_workload, one, two = SCALING_PAIR
        metrics["lp_oracle.mc_scaling_eff"] = 0.0
        if workload == pair_workload:
            t1 = statistics.median(p["ops"][one]["s"] for p in plain)
            t2 = statistics.median(p["ops"][two]["s"] for p in plain)
            metrics["lp_oracle.mc_scaling_eff"] = t1 / (2.0 * t2)
        metrics["host.probe_s"] = statistics.median(x for p in plain for x in p["probe_s"])
        metrics["trace.wall_s"] = op_median_sum(traced, key)
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / op_median_sum(plain, key) - 1.0
        # share of each traced pass's time that the layer self times account for
        layer_share = statistics.median(
            p["pass_self_s"] / sum(op["s"] for op in p["ops"].values()) for p in traced
        )
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark: {workload} produced no value for {missing}", file=sys.stderr)
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
        "passes": {"plain": len(plain), "traced": len(traced)},
        "layer_share": layer_share,
        "measured_wall_s": measured_wall_s,
    }


def record() -> int:
    """Run every op at the current commit and store its exit code and output
    hash: once for unseeded ops, once per seed class for seeded ones."""
    out = {"recorded_with": environment(), "seed_classes": SEED_CLASSES, "workloads": {}}
    for workload, ops in WORKLOADS.items():
        child = Child(workload, 0, time.monotonic() + 3600)
        table = out["workloads"][workload] = {}
        fixed = [op.name for op in ops if not op.seeded]
        seeded = [op.name for op in ops if op.seeded]
        for name in seeded:
            table[name] = {"rc": [], "sha256": []}
        runs = [(0, fixed)] if fixed else []
        runs += [(cls, seeded) for cls in range(SEED_CLASSES)] if seeded else []
        for cls, names in runs:
            child.cls = cls
            res = child(ops=names)
            if res is None:
                raise SystemExit(f"{workload} seed class {cls}: worker failed")
            for name in names:
                r = res["ops"][name]
                if r["error"]:
                    raise SystemExit(f"{workload}/{name} raised while recording:\n{r['error']}")
                if name in seeded:
                    table[name]["rc"].append(r["rc"])
                    table[name]["sha256"].append(r["sha256"])
                else:
                    table[name] = {"rc": r["rc"], "sha256": r["sha256"]}
        print(f"recorded {workload}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def report_lines(workload: str, result: dict) -> list[str]:
    lines = [
        f"{workload}: attempted {result['attempted']} failed {result['failed']} "
        f"failed_op_frac {result['failed'] / result['attempted']:.4g} "
        f"passes {result['passes']['plain']}+{result['passes']['traced']} traced"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if result["measured_wall_s"] is not None:
        lines.append(f"  {'(measured, unscaled pass)':28s} {result['measured_wall_s']:.6g} s")
    if result["layer_share"] is not None:
        share = result["layer_share"]
        allowed = abs(result["metrics"]["trace.overhead_frac"]["value"]) + 0.05
        verdict = "within" if abs(share - 1.0) <= allowed else "OUTSIDE"
        lines.append(f"  layer self times in the pass sum to {share:.4f} of the traced pass time, "
                     f"{verdict} |overhead_frac| + 5% = {allowed:.4f}")
    return lines


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in turn; print their reports and keep the results
    with the environment in .bench_work/."""
    env = environment()
    print("env " + json.dumps(env), flush=True)
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(workload, seed, seconds, trace)
        print("\n".join(report_lines(workload, results[workload])), flush=True)
    with open(os.path.join(WORK, f"results-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seed": seed, "seconds": seconds, "results": results},
                  fh, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--record", action="store_true", help="re-record reference.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "disclab", "__init__.py")):
        print(f"benchmark: no disclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if not args.workload:
        ap.error("give --workload, --all or --record")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(environment()))
    print("\n".join(report_lines(args.workload, result)))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
