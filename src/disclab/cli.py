"""Command line front end.

    disclab <gen|lift|compute|oracle|scan|verify> [flags]

All floating-point output is printed with 17 significant digits and every
random quantity is driven by an explicit or default seed, so identical
invocations produce byte-identical output. DISCLAB_THREADS caps the worker
threads of Monte Carlo sampling (`oracle --threads` overrides it), of the
closed-form pair sums and of the exact d = 1 L_p integrand, never above the
CPU count; results do not depend on the cap. `compute` and `scan` take their evaluator from
`lp_oracle.estimate`; the diaphony is defined at p = 2 only. Exit codes: 0
success, 1 domain error (a request too large to allocate included), 2 usage
error, 3 a verification verdict failed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Sequence

from .errors import DisclabError, MonteCarloRequired
from .experiments import (
    fit_log_exponent,
    growth_scan,
    inequality_suite,
    prefix_transference_verify,
    vdc_exponent_report,
    vdc_star_constant,
)
from .lp_oracle import KINDS, MC_KINDS, McConfig, estimate, mc_lp
from .pointsets import Estimate, PointSet, read_points, write_points
from .rng import DEFAULT_SEED
from .sequences import MAX_INDEX, Halton, VanDerCorput, lift, prefix

DOMAIN_ERROR = 1
VERDICT_FAILED = 3

_MAX_NS = 1 << 20  # steps of one --ns range schedule


def _fmt(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, float):
        if math.isinf(x):
            return '"inf"'
        return f"{x:.17g}"
    if isinstance(x, int):
        return str(x)
    return json.dumps(x)


def _estimate_fields(est: Estimate) -> dict:
    """The flat estimate schema, in output order."""
    return {
        "kind": est.kind,
        "p": float(est.p),
        "method": est.method,
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "n": est.n,
        "d": est.d,
    }


def _estimate_json(est: Estimate) -> str:
    body = ", ".join(f'"{k}": {_fmt(v)}' for k, v in _estimate_fields(est).items())
    return "{" + body + "}"


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_generator(args) -> Halton:
    """The sequence that `_add_sequence_args`'s flags name."""
    if args.family == "vdc":
        return VanDerCorput(base=args.base)
    return Halton(tuple(int(b) for b in args.bases.split(",")))


def _parse_ns(text: str) -> list[int]:
    """Grammar: 'a..b:geometric[:factor]' (factor default 2),
    'a..b:linear[:step]', or a comma list of integers. A range lies in
    [1, 2^53) and spans at most _MAX_NS steps."""
    if ".." in text:
        rng, _, sched = text.partition(":")
        a_s, _, b_s = rng.partition("..")
        try:
            a, b = int(a_s), int(b_s)
        except ValueError:
            raise DisclabError(f"bad range in --ns: {text!r}") from None
        if a < 1 or b >= MAX_INDEX:
            raise DisclabError(f"--ns range must lie in [1, 2^53): {text!r}")
        name, _, par = sched.partition(":")
        if name in ("", "geometric"):
            try:
                factor = float(par) if par else 2.0
            except ValueError:
                raise DisclabError(f"bad geometric factor in --ns: {text!r}") from None
            if not 1.0 < factor < math.inf:
                raise DisclabError("geometric factor must be finite and > 1")
            # the loop below stops once x passes b + 1/2
            if math.log((b + 0.5) / a) > _MAX_NS * math.log(factor):
                raise DisclabError(f"--ns schedule takes more than {_MAX_NS} steps")
            out, x = [], float(a)
            while round(x) <= b:
                out.append(int(round(x)))
                x *= factor
            return sorted(set(out))
        if name == "linear":
            try:
                step = int(par) if par else max(1, (b - a) // 32)
            except ValueError:
                raise DisclabError(f"bad linear step in --ns: {text!r}") from None
            if step < 1:
                raise DisclabError("linear step must be >= 1")
            if (b - a) // step >= _MAX_NS:
                raise DisclabError(f"--ns schedule takes more than {_MAX_NS} steps")
            return list(range(a, b + 1, step))
        raise DisclabError(f"unknown schedule {name!r} in --ns")
    try:
        return sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise DisclabError(f"bad --ns list: {text!r}") from None


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise DisclabError(f"bad --p value {text!r}") from None
    if not p >= 1.0:  # also rejects nan
        raise DisclabError("p must satisfy p >= 1")
    return p


def _load_points(args) -> PointSet:
    pts = read_points(args.infile)
    pts.require_nonempty()
    return pts


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_points(args) -> int:
    """gen and lift: `args.build` is `prefix` or `lift`."""
    buf = io.StringIO()
    write_points(args.build(_make_generator(args), args.n), buf)
    _write(buf.getvalue(), args.out)
    return 0


def _cmd_compute(args) -> int:
    pts = _load_points(args)
    est = estimate(pts, args.kind, _parse_p(args.p))
    if args.format == "json":
        _write(_estimate_json(est) + "\n", args.out)
    else:
        fields = _estimate_fields(est)
        row = ",".join(_fmt(v).strip('"') for v in fields.values())
        _write(",".join(fields) + "\n" + row + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    pts = _load_points(args)
    p = _parse_p(args.p)
    if math.isinf(p):
        raise DisclabError("the Monte Carlo oracle requires finite p; use compute for p=inf")
    est = mc_lp(pts, McConfig(args.samples, args.seed, args.threads), args.kind, p)
    _write(_estimate_json(est) + "\n", args.out)
    return 0


def _cmd_scan(args) -> int:
    gen = _make_generator(args)
    ns = _parse_ns(args.ns)
    p = _parse_p(args.p)
    mc = McConfig(args.samples, args.seed) if args.samples else None
    try:
        result = growth_scan(gen, args.kind, p, ns, mc)
    except MonteCarloRequired:
        raise DisclabError(
            f"no exact evaluator for {args.kind} at p={args.p} in d={gen.d}; "
            "pass --samples N to scan by Monte Carlo"
        ) from None
    if args.format == "json":
        payload = result.to_dict()
        if len(result.rows) >= 3 and min(r.n for r in result.rows) >= 3:
            alpha, c, rms = fit_log_exponent(result.rows)
            payload["fit"] = {"alpha": alpha, "c": c, "rms": rms}
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["N,value,rate,ratio"]
        for r in result.rows:
            lines.append(f"{r.n},{r.value:.17g},{r.rate:.17g},{r.ratio:.17g}")
        _write("\n".join(lines) + "\n", args.out)
    if args.plot_data:
        d = gen.d
        lines = ["N,log_n_pow_d_half,log_n,sqrt_log_n"]
        for r in result.rows:
            ln = math.log(r.n)
            lines.append(f"{r.n},{ln ** (d / 2.0):.17g},{ln:.17g},{math.sqrt(ln):.17g}")
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "inequalities":
        report = inequality_suite(
            trials=args.trials,
            dims=tuple(int(x) for x in args.dims.split(",")),
            n=args.n,
            seed=args.seed,
        ).to_dict()
    elif args.suite == "lemma1":
        report = prefix_transference_verify(_make_generator(args), args.n).to_dict()
    elif args.suite == "vdc-constant":
        report = vdc_star_constant(args.max_n).to_dict()
    else:  # growth; argparse restricts the choices
        report = vdc_exponent_report(max_n=args.max_n)
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    passed = report["passed"] if "passed" in report else all(report["checks"].values())
    return 0 if passed else VERDICT_FAILED


# --------------------------------------------------------------------------


def _add_sequence_args(parser: argparse.ArgumentParser, flag: str) -> None:
    """The sequence family flag (`--kind` or `--seq`) and its bases."""
    parser.add_argument(flag, dest="family", choices=("vdc", "halton"), default="vdc")
    parser.add_argument("--base", type=int, default=2, help="radical-inverse base (vdc)")
    parser.add_argument("--bases", default="2,3", help="comma separated coprime bases (halton)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="disclab",
        description="Star, extreme and periodic L_p discrepancies and diaphony "
        "of point sets in the unit cube, plus growth experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, build, text in (
        ("gen", prefix, "emit a sequence prefix as CSV points"),
        ("lift", lift, "emit the lifted (d+1)-dim prefix as CSV"),
    ):
        g = sub.add_parser(name, help=text)
        _add_sequence_args(g, "--kind")
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--out", default=None)
        g.set_defaults(fn=_cmd_points, build=build)

    c = sub.add_parser("compute", help="exact discrepancy of a CSV point set")
    c.add_argument("--kind", required=True, choices=KINDS)
    c.add_argument("--p", default="2", help="p in [1, inf]; 'inf' for the supremum")
    c.add_argument("--in", dest="infile", required=True, help="CSV point file")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_compute)

    o = sub.add_parser("oracle", help="Monte Carlo discrepancy estimate")
    o.add_argument("--kind", required=True, choices=MC_KINDS)
    o.add_argument("--p", default="2")
    o.add_argument("--samples", type=int, default=100000)
    o.add_argument("--seed", type=int, default=DEFAULT_SEED)
    o.add_argument("--threads", type=int, default=0,
                   help="worker cap; 0 takes DISCLAB_THREADS, else 8; at most the cpu count")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--out", default=None)
    o.set_defaults(fn=_cmd_oracle)

    s = sub.add_parser("scan", help="growth scan against (log n)^{d/2}")
    _add_sequence_args(s, "--seq")
    s.add_argument("--kind", default="extreme", choices=KINDS)
    s.add_argument("--p", default="2")
    s.add_argument("--ns", required=True,
                   help="'16..65536:geometric[:factor]', 'a..b:linear[:step]' or '2,4,8'")
    s.add_argument("--samples", type=int, default=0,
                   help="Monte Carlo samples for p != 2 in d >= 2")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--plot-data", default=None,
                   help="also write reference-rate curves to this CSV")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_scan)

    v = sub.add_parser("verify", help="run a verification suite; exit 3 on failure")
    v.add_argument("--suite", required=True,
                   choices=("inequalities", "lemma1", "vdc-constant", "growth"))
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--dims", default="1,2")
    v.add_argument("--n", type=int, default=32,
                   help="points per trial (inequalities) or max prefix (lemma1)")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--max-n", dest="max_n", type=int, default=1 << 14)
    _add_sequence_args(v, "--seq")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DisclabError, ValueError, OSError, MemoryError) as exc:
        print(f"disclab: error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
