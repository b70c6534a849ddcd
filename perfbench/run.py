"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload {sweep,tram,cli} [--seed N]
                             [--seconds S] [--trace {0,1}]

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. With --trace 0 the result holds the
end-to-end metrics, times in calibrated seconds (see calibrate.py); with
--trace 1, the per-layer metrics of a traced run.
The full record (environment, digests, problems, detail) goes to the line
before it and to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# Fixed BLAS thread count, set before numpy is first imported. It must be
# the same on both sides of a comparison; 1 keeps every workload on one core.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# workload and metric names, units and directions
SPEC = ROOT / "BENCHMARK.json"


def fingerprint(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (default 1, the fixture's grid seed); the data "
        "seed is always the fixture's 27",
    )
    parser.add_argument("--seconds", type=float, default=40.0, help="run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not SPEC.is_file():
        print(f"error: no {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "tramkit" / "__init__.py").is_file():
        print(f"error: no tramkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(SRC))

    import numpy as np

    import calibrate
    import spans
    import workloads

    cal = calibrate.Calibrator()
    tk, data, setup_measured, setup_s = workloads.set_up(cal)
    if not Path(tk.__file__).resolve().is_relative_to(SRC):
        print(f"error: tramkit imported from {tk.__file__}", file=sys.stderr)
        return 2
    untraced, traced = workloads.WORKLOADS[args.workload]
    if args.trace:
        out = traced(tk, data, args.seed, args.seconds)
    else:
        with cal:
            out = untraced(tk, data, args.seed, args.seconds)
    if not out.walls:
        print(f"error: no operation completed: {out.problems}", file=sys.stderr)
        return 1
    if len(out.digests) > 1:
        out.problem(f"risk digests differ between runs of the same work: {sorted(out.digests)}")

    if args.trace:
        layers = spans.layer_metrics(out.tracer, out.layers)
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in spec["per_layer"]}
    else:
        factors = [cal.factor(start, end) for start, end in out.windows]
        out.detail["measured"] = {
            "setup_s": setup_measured,
            "op_p50_s": statistics.median(out.walls),
            "op_mean_s": statistics.fmean(out.walls),
        }
        out.detail["calibration"] = {
            "units": len(cal.times),
            "unit_median_s": statistics.median(cal.times),
            "factor_median": statistics.median(factors),
        }
        e2e = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_s": statistics.median(w * f for w, f in zip(out.walls, factors)),
        }
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": fingerprint(np),
        "operations": len(out.walls),
        "error_rate": out.failed / out.attempted,
        "digests": sorted(out.digests),
        "problems": out.problems,
        "detail": out.detail,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    (workloads.OUT_DIR / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        out.tracer.write_csv(workloads.OUT_DIR / f"spans_{label}.csv")
    print(json.dumps({k: record[k] for k in record if k != "metrics"}))
    print(
        json.dumps(
            {
                "correct": not out.problems,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
