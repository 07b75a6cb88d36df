"""Workload definitions: the input files each workload's set-up writes and
the fixed list of CLI operations that makes up one pass.

Only the standard library is imported here, so the orchestrator can read the
tables without importing numpy or disclab.

Seeds: the workload seed is folded to `seed % SEED_CLASSES`, and every seeded
input (random point sets, Monte Carlo and trial seeds) is derived from that
class. The reference output bytes were recorded for every class, so every
seed has a byte-level reference.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_CLASSES = 64


@dataclass(frozen=True)
class Input:
    """One CSV point file written during set-up.

    `source` is "vdc", "halton" (prefixes of the deterministic sequences) or
    "random" (a seeded uniform set whose seed is `seed_base + seed class`).
    """

    name: str
    source: str
    n: int
    d: int
    seed_base: int = 0

    @property
    def seeded(self) -> bool:
        return self.source == "random"


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `argv` may hold the placeholders {in:NAME},
    {seed:BASE} (replaced by BASE + seed class) and {threads} (the paired
    thread count, min(2, nproc))."""

    name: str
    argv: tuple[str, ...]

    @property
    def seeded(self) -> bool:
        return any("{seed:" in a for a in self.argv) or any(
            a.startswith("{in:") and INPUTS[a[4:-1]].seeded for a in self.argv
        )


INPUTS = {
    i.name: i
    for i in (
        Input("vdc8192", "vdc", 8192, 1),
        Input("halton4096", "halton", 4096, 2),
        Input("rand2048x5", "random", 2048, 5, seed_base=1000),
        Input("rand256x2", "random", 256, 2, seed_base=2000),
        Input("rand1024x3", "random", 1024, 3, seed_base=3000),
    )
}


def _compute(kind: str, inp: str) -> Op:
    return Op(f"{kind}-{inp}", ("compute", "--kind", kind, "--p", "2", "--in", f"{{in:{inp}}}"))


# Why each workload exists (also in BENCHMARK.json):
#   closed_form  exact_l2 pair sums and comp_sum dominate; d=1, d=2 and d=5
#                sets let a d=1 path, a d<=3 path and the O(n^2) fallback
#                each show separately.
#   dense_scan   prefix_scan, sequences.prefix and exact_lp_1d; exact_l2 is
#                never called, so closed-form changes must not move it.
#   mc_oracle    Monte Carlo chunk kernel, rng and the thread pool; the same
#                problem at 1 and 2 threads.
#   small_sets   linf enumeration and ~870 tiny exact_l2 calls, so per-call
#                overhead shows.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "closed_form": tuple(
        _compute(kind, inp)
        for inp in ("vdc8192", "halton4096")
        for kind in ("star", "extreme", "periodic", "diaphony")
    )
    + (_compute("periodic", "rand2048x5"),),
    "dense_scan": (
        Op("scan-star", ("scan", "--seq", "vdc", "--kind", "star", "--p", "2",
                         "--ns", "16..65536:geometric")),
        Op("scan-diaphony", ("scan", "--seq", "vdc", "--kind", "diaphony",
                             "--ns", "16..65536:geometric")),
        Op("verify-growth", ("verify", "--suite", "growth", "--max-n", "65536")),
        Op("scan-extreme-p1.5", ("scan", "--seq", "vdc", "--kind", "extreme", "--p", "1.5",
                                 "--ns", "16..2048:geometric")),
    ),
    "mc_oracle": (
        Op("extreme-t1", ("oracle", "--kind", "extreme", "--p", "1.5", "--samples", "1000000",
                          "--seed", "{seed:4000}", "--threads", "1", "--in", "{in:rand256x2}")),
        Op("extreme-t2", ("oracle", "--kind", "extreme", "--p", "1.5", "--samples", "1000000",
                          "--seed", "{seed:4000}", "--threads", "{threads}",
                          "--in", "{in:rand256x2}")),
        Op("star-p1", ("oracle", "--kind", "star", "--p", "1", "--samples", "262144",
                       "--seed", "{seed:5000}", "--threads", "{threads}",
                       "--in", "{in:rand1024x3}")),
        Op("periodic-p2", ("oracle", "--kind", "periodic", "--p", "2", "--samples", "262144",
                           "--seed", "{seed:6000}", "--threads", "{threads}",
                           "--in", "{in:rand1024x3}")),
    ),
    "small_sets": (
        Op("inequalities", ("verify", "--suite", "inequalities", "--trials", "100",
                            "--n", "32", "--seed", "{seed:7000}")),
        Op("lemma1-vdc", ("verify", "--suite", "lemma1", "--n", "256", "--seq", "vdc")),
        Op("lemma1-halton", ("verify", "--suite", "lemma1", "--n", "256", "--seq", "halton")),
    ),
}

# Workloads whose op times are scaled by the host-speed probe (worker.py).
# The probe is single-threaded core-bound work. On the reference host the
# log op times of closed_form, dense_scan and small_sets follow the log probe
# time with slope 0.5-1.0 (r 0.7-0.8), and scaling cuts their run-to-run
# spread by 1.5-6x. mc_oracle's time goes to memory-bound numpy kernels on two
# threads, which the probe does not predict (slope 0.14, r 0.18), so scaling
# would only add the probe's own noise: its pass times stay as measured.
PROBE_SCALED = {"closed_form": True, "dense_scan": True, "mc_oracle": False, "small_sets": True}

# The paired Monte Carlo ops whose time ratio gives lp_oracle.mc_scaling_eff;
# their outputs must also be byte-identical.
SCALING_PAIR = ("mc_oracle", "extreme-t1", "extreme-t2")

# Independent cross-checks: op -> (reference evaluator, input, kind). The
# prefix-scan engine checks the d=1 closed forms to 1e-6 relative; the exact
# periodic closed form checks the Monte Carlo estimate to 4 standard errors.
CROSS_CHECKS: dict[str, dict[str, tuple[str, str, str]]] = {
    "closed_form": {
        f"{kind}-vdc8192": ("prefix_scan", "vdc8192", kind)
        for kind in ("star", "extreme", "periodic", "diaphony")
    },
    "mc_oracle": {"periodic-p2": ("periodic_l2", "rand1024x3", "periodic")},
}


def inputs_of(workload: str) -> list[Input]:
    names = {a[4:-1] for op in WORKLOADS[workload] for a in op.argv if a.startswith("{in:")}
    return [INPUTS[n] for n in sorted(names)]


def seed_class(seed: int) -> int:
    return seed % SEED_CLASSES


def expand(op: Op, cls: int, threads: int, paths: dict[str, str]) -> list[str]:
    """Concrete argv of `op` for seed class `cls`."""
    out = []
    for a in op.argv:
        if a.startswith("{in:"):
            a = paths[a[4:-1]]
        elif a.startswith("{seed:"):
            a = str(int(a[6:-1]) + cls)
        elif a == "{threads}":
            a = str(threads)
        out.append(a)
    return out
