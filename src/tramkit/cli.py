"""Command-line entry point.

Subcommands: gen, sweep, pareto, tram, analytic. Every command emits
plot-ready CSV (header always present), writes a JSON run manifest next to
its primary output (even on a runtime error; a usage error exits inside
argparse before any is written), and is deterministic given its full flag
set including --seed. Exit codes: 0 success, 1 runtime error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import AnalyticParams, analytic_curves
from .core import Dataset
from .data import (
    SyntheticSpec,
    _write_table,
    gen_synthetic,
    load_csv,
    save_csv,
    save_mixture_meta,
    save_twin,
    split_validation,
)
from .solver import SolverConfig
from .tradeoff import (
    PROCEDURES,
    Lambda,
    SweepGrid,
    pareto_data_time,
    pareto_risk_time,
    run_sweep,
)
from .tram import TramParams, run_tram


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer: {text!r}")
    return values


def _range_spec(text: str) -> list[float]:
    """Either 'lo:hi:count' (log-spaced) or a comma-separated list, of
    positive finite values."""
    if ":" in text:
        try:
            lo, hi, count = text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected lo:hi:count: {text!r}")
        # written so that NaN fails it
        if not (0 < lo <= hi < math.inf and count >= 1):
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        return np.geomspace(lo, hi, count).tolist()
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number: {text!r}")
    if not all(0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError(f"expected positive finite numbers: {text!r}")
    return values


# --header choices as load_csv's has_header; None decides from the first row
_HAS_HEADER = {"auto": None, "yes": True, "no": False}


def _sibling(path: str, suffix: str) -> str:
    """The file next to `path` named by its stem plus `suffix`."""
    out = Path(path)
    return str(out.with_name(out.stem + suffix))


def _config(cls, args, **given):
    """A `cls` config from `given`, every other field from the parsed flag
    of the same name (a field without a flag raises AttributeError)."""
    flagged = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    return cls(**flagged, **given)


def _write_manifest(path: str, record: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_gen(args, outputs: list[str]) -> None:
    result = gen_synthetic(_config(SyntheticSpec, args, box=(args.box_low, args.box_high)))
    outputs.extend([args.out, save_twin(result.data, args.out)])
    meta = args.meta_out or _sibling(args.out, "_meta.csv")
    save_mixture_meta(result, meta)
    outputs.append(meta)


def cmd_sweep(args, outputs: list[str]) -> None:
    # the configs first, so a flag out of range fails before the input is read
    grid = _config(SweepGrid, args, solver=_config(SolverConfig, args))
    data = load_csv(args.input, has_header=_HAS_HEADER[args.header])
    lam = run_sweep(data, grid)
    lam.to_csv(args.out)
    outputs.append(args.out)


def cmd_pareto(args, outputs: list[str]) -> None:
    rows = []
    for path in args.lam:
        lam = Lambda.from_csv(path)
        for proc in sorted({r.procedure for r in lam.records}):
            sub = Lambda(tuple(r for r in lam.records if r.procedure == proc))
            if args.eps is not None:
                frontier = pareto_data_time(sub, args.eps)
            else:
                frontier = pareto_risk_time(sub, args.n)
            rows.extend((float(x), float(t), proc) for x, t in frontier)
    if not rows:
        print("warning: no feasible records; frontier is empty", file=sys.stderr)
    _write_table(args.out, ["n_or_eps", "time_s", "source"], rows)
    outputs.append(args.out)


def cmd_tram(args, outputs: list[str]) -> None:
    # the configs first, so a flag out of range fails before the input is read
    params = _config(TramParams, args, eps_total=args.eps, B=args.ball_radius)
    solver = _config(SolverConfig, args)
    # the parsed points go once the split has copied them, so navigation
    # holds one copy of the data
    train, validation = split_validation(
        load_csv(args.input, has_header=_HAS_HEADER[args.header]),
        args.val_fraction,
        seed=args.seed,
    )
    trace = run_tram(train, validation, params, solver)
    trace.to_csv(args.trace_out)
    outputs.append(args.trace_out)
    centers_out = args.centers_out or _sibling(args.trace_out, "_centers.csv")
    save_csv(Dataset(trace.final_centers.centers), centers_out)
    outputs.append(centers_out)
    if trace.exhausted:
        if trace.rows[-1].stopped:
            print(
                "warning: validation pool smaller than the prescribed budget",
                file=sys.stderr,
            )
        else:
            print("warning: run exhausted; emitted best-so-far centers", file=sys.stderr)


def cmd_analytic(args, outputs: list[str]) -> None:
    params = _config(AnalyticParams, args, eps_total=args.eps, use_sigma=not args.no_sigma)
    mode = args.mode.replace("-", "_")
    if args.range is not None:
        xs = args.range
    elif mode == "data_time":
        xs = np.geomspace(100, 1e6, 61)
    else:
        xs = np.geomspace(50, 1000, 61)
    if mode == "data_time":
        xs = np.unique(np.ceil(xs).astype(np.int64))
    points = analytic_curves(params, mode, xs, fixed_n=args.n)
    # an infeasible optimum has t, m and s of None, written as empty cells
    _write_table(
        args.out,
        ["x", "t_subs", "t_core", "m_star_subs", "m_star_core", "s_star_core", "regime"],
        (
            [pt.x, pt.subsampler.t, pt.coreset.t, pt.subsampler.m, pt.coreset.m,
             pt.coreset.s, pt.regime]
            for pt in points
        ),
    )
    outputs.append(args.out)


def _add_input_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="dataset CSV")
    sub.add_argument(
        "--header",
        choices=list(_HAS_HEADER),
        default="auto",
        help="whether the input CSV has a header row (default auto: the first "
        "row is a header when one of its non-blank fields is not a number)",
    )


def _add_solver_flags(sub) -> None:
    sub.add_argument("--k", type=int, required=True, help="number of centers to fit")
    sub.add_argument("--restarts", type=int, default=2)
    sub.add_argument("--max-iters", type=int, default=100)
    sub.add_argument("--rel-tol", type=float, default=1e-4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tramkit",
        description="Coreset summarization, tradeoff sweeps and navigation for k-means.",
    )
    parser.add_argument("--version", action="version", version=f"tramkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate synthetic mixture data as CSV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=100)
    gen.add_argument("--k-true", type=int, default=100)
    gen.add_argument("--box-low", type=float, default=0.0)
    gen.add_argument("--box-high", type=float, default=100.0)
    gen.add_argument("--sigma2", type=float, default=5.0)
    gen.add_argument("--dirichlet-alpha", type=float, default=1.0 / 20.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--meta-out", default=None, help="ground-truth sidecar CSV")
    gen.set_defaults(func=cmd_gen)

    sweep = subs.add_parser("sweep", help="measure a (n, s) grid into a Lambda CSV")
    _add_input_flags(sweep)
    sweep.add_argument("--procedure", choices=PROCEDURES, required=True)
    sweep.add_argument("--n-values", type=_int_list, required=True)
    sweep.add_argument("--s-values", type=_int_list, required=True)
    sweep.add_argument("--repeats", type=int, default=50)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True)
    _add_solver_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    pareto = subs.add_parser("pareto", help="extract Pareto frontiers from Lambda CSVs")
    pareto.add_argument(
        "--lambda",
        dest="lam",
        action="append",
        required=True,
        metavar="CSV",
        help="Lambda CSV (repeatable)",
    )
    mode = pareto.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eps", type=float, help="data-time frontier at this risk")
    mode.add_argument("--n", type=int, help="risk-time frontier at this data size")
    pareto.add_argument("--out", required=True)
    pareto.set_defaults(func=cmd_pareto)

    tram = subs.add_parser("tram", help="run the tradeoff navigation loop")
    _add_input_flags(tram)
    tram.add_argument("--eps", type=float, required=True, help="target risk")
    tram.add_argument("--delta", type=float, default=0.1)
    tram.add_argument("--val-fraction", type=float, default=0.2)
    tram.add_argument("--ball-radius", type=float, default=None, help="support radius B")
    tram.add_argument("--beta", type=float, default=1.0 / math.log2(1.5))
    tram.add_argument("--m0", type=int, default=None)
    tram.add_argument("--s0", type=int, default=None)
    tram.add_argument("--gamma-m", type=float, default=2.0)
    tram.add_argument("--gamma-s", type=float, default=None)
    tram.add_argument("--seed", type=int, default=0)
    tram.add_argument("--trace-out", required=True)
    tram.add_argument("--centers-out", default=None)
    _add_solver_flags(tram)
    tram.set_defaults(func=cmd_tram)

    analytic = subs.add_parser("analytic", help="simulate the analytic tradeoff bounds")
    analytic.add_argument("--mode", choices=["data-time", "risk-time"], required=True)
    analytic.add_argument(
        "--range",
        type=_range_spec,
        default=None,
        help="lo:hi:count (log-spaced) or comma list; n for data-time, eps for risk-time",
    )
    analytic.add_argument("--d", type=int, default=20)
    analytic.add_argument("--k", type=int, default=20)
    analytic.add_argument("--sigma-bar", type=float, default=192.0)
    analytic.add_argument("--alpha-init", type=float, default=100.0)
    analytic.add_argument("--alpha-samp", type=float, default=100.0)
    analytic.add_argument("--beta", type=float, default=3.0)
    analytic.add_argument("--A", type=float, default=5.0)
    analytic.add_argument("--B", type=float, default=1.0)
    analytic.add_argument("--eps", type=float, default=300.0)
    analytic.add_argument("--n", type=int, default=2000, help="data size for risk-time")
    analytic.add_argument(
        "--no-sigma",
        action="store_true",
        help="drop sigma_bar from the estimation error (literal printed program)",
    )
    analytic.add_argument("--out", required=True)
    analytic.set_defaults(func=cmd_analytic)

    return parser


def _primary_out(args) -> str:
    return getattr(args, "out", None) or args.trace_out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tram" and not 0.0 < args.delta < 0.2:
        parser.error("--delta must lie in (0, 1/5)")
    if args.command == "tram" and not 0.0 < args.val_fraction < 1.0:
        parser.error("--val-fraction must lie in (0, 1)")
    # inf keeps its meaning (every record is feasible); NaN fails the check
    if args.command == "pareto" and args.eps is not None and not args.eps >= 0.0:
        parser.error("--eps must be >= 0")
    if args.command == "pareto" and args.n is not None and args.n < 1:
        parser.error("--n must be >= 1")

    started = _utcnow()
    t0 = time.perf_counter()
    outputs: list[str] = []
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if not callable(v)},
        "seed": getattr(args, "seed", None),
        "started": started,
        "tool_version": __version__,
    }
    try:
        args.func(args, outputs)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported via exit code + manifest
        error = f"{type(exc).__name__}: {exc}"
    manifest.update(
        {
            "finished": _utcnow(),
            "elapsed_s": time.perf_counter() - t0,
            "outputs": outputs,
            "error": error,
        }
    )
    _write_manifest(_sibling(_primary_out(args), ".manifest.json"), manifest)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
