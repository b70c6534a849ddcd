"""The benchmark's workloads: `sweep`, `tram` and `cli`.

Each workload has an untraced form, which times its operations and gives
the end-to-end metrics, and a traced form, which runs a fixed slice of the
same work once untraced and once under `spans.Tracer` and gives the
per-layer metrics. Every operation's outputs are checked; an operation that
raises or fails a check counts as failed. All data is the acceptance
fixture's (60k points, d=10, seed 27); the workload seed picks the streams.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import math
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from calibrate import REF_UNIT_S, Calibrator, clock

# the acceptance fixture's grid and data
SWEEP_N = (300, 1000, 2500, 5000, 10000, 25000, 50000)
SWEEP_S = (50, 100, 200, 400, 700, 1000, 1400, 2000)
DATA_SEED = 27
# 1.1 x the fixture's full-data reference risk (47.31), as in criterion 3
PARETO_EPS = 52.0
# stop threshold 1.5 x 32 = 48, about 1.5% above that reference risk, so
# navigations grow into the large prefixes (J between 1 and 11)
TRAM_EPS = 32.0
# the cli chain's small grid: a sub-grid of the fixture's
CLI_N = "1000,5000,25000,50000"
CLI_S = "100,400,1000"
CLI_REPEATS = "2"
# the chain's tram step uses the CLI's default seed, so its J is the same
# in every run
CLI_TRAM_SEED = "0"
# navigations per second of run length. The panel is fixed, so the panel
# and not the clock sets how long a tram run takes: a run of 52 at 40 s,
# set-up and calibration included, takes 17-27 s on a 2-vCPU x86-64 VM,
# which leaves room for a slower commit.
TRAM_PER_SECOND = 1.3
# set-ups per run; setup_s is their median
SETUP_ROUNDS = 5
MAX_PROBLEMS = 20

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: list = field(default_factory=list)  # completed operations, seconds
    windows: list = field(default_factory=list)  # their (start, end) perf_counter
    digests: set = field(default_factory=set)
    detail: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # per-layer values beside the spans
    tracer: spans.Tracer | None = None

    def done(self, wall: float, start: float) -> None:
        """Record a completed operation: its time and when it ran."""
        self.walls.append(wall)
        self.windows.append((start, time.perf_counter()))

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def attempt(self, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.problem(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    def judge(self, problems: list) -> None:
        """Count a completed operation that failed its output checks."""
        if problems:
            self.failed += 1
            for text in problems:
                self.problem(text)


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def import_tramkit():
    """Import tramkit afresh, with every module the workloads call."""
    for name in [n for n in sys.modules if n == "tramkit" or n.startswith("tramkit.")]:
        del sys.modules[name]
    tk = importlib.import_module("tramkit")
    importlib.import_module("tramkit.cli")
    return tk


def fixture_data(tk):
    spec = tk.data.SyntheticSpec(
        n=60_000, d=10, k_true=10, box=(0, 100), sigma2=5.0,
        dirichlet_alpha=1 / 20, seed=DATA_SEED,
    )
    return tk.data.gen_synthetic(spec).data


def warm_up(tk, data) -> None:
    part = data.prefix(5000)
    summary = tk.coreset.build_coreset(part, tk.coreset.CoresetParams(k=10, size=200, seed=0))
    result = tk.solver.solve(summary, tk.solver.SolverConfig(k=10, restarts=1, seed=0))
    tk.core.empirical_risk(part, result.centers)


def set_up(cal: Calibrator):
    """Import, generate the fixture data and warm up, SETUP_ROUNDS times,
    with a calibration unit after each round.

    Returns the package and data of the last round and the median set-up
    time, measured and calibrated by the units beside it.
    """
    times, units = [], []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        tk = import_tramkit()
        data = fixture_data(tk)
        warm_up(tk, data)
        times.append(time.perf_counter() - t0)
        units.append(cal.unit())
    measured = statistics.median(times)
    return tk, data, measured, measured * REF_UNIT_S / statistics.median(units)


@contextlib.contextmanager
def traced(out: Outcome, tk):
    """Trace the block; a run's first traced block also traces one set-up."""
    first = out.tracer is None
    if first:
        out.tracer = spans.Tracer()
    with out.tracer as tracer:
        if first:
            out.layers["trace.sites"] = tracer.sites
            tracer.op = "setup"
            with tracer.span("bench.setup"):
                warm_up(tk, fixture_data(tk))
        yield tracer


def keep_going(t_start: float, seconds: float, out: Outcome) -> bool:
    elapsed = time.perf_counter() - t_start
    if not out.walls:
        return elapsed < seconds and out.attempted < 3
    return elapsed + statistics.median(out.walls) <= seconds


def sweep_solver(tk):
    return tk.solver.SolverConfig(k=10, restarts=5, seed=0, rel_tol=0.0)


# ---------------------------------------------------------------- sweep


def sweep_experiment(tk, data, seed: int):
    """The fixture's experiment: the reference solve on the full data (3
    restarts to max_iters=100), then one repeat of the grid for the uniform,
    then the coreset procedure.

    Returns the time of each part, the reference risk and the Lambda tables.
    """
    times, lams = {}, {}
    t0 = clock()
    ref = tk.solver.solve(
        tk.core.uniform_weighted(data),
        tk.solver.SolverConfig(k=10, restarts=3, seed=0, rel_tol=0.0),
    )
    times["ref_solve"] = clock() - t0
    for proc in ("uniform", "coreset"):
        grid = tk.tradeoff.SweepGrid(
            SWEEP_N, SWEEP_S, proc, sweep_solver(tk), repeats=1, seed=seed
        )
        t0 = clock()
        lams[proc] = tk.tradeoff.run_sweep(data, grid)
        times[proc] = clock() - t0
    return times, tk.core.empirical_risk(data, ref.centers), lams


def check_sweep(tk, lams) -> list:
    problems = []
    want = {(n, s) for n in SWEEP_N for s in SWEEP_S}
    for proc, lam in lams.items():
        if sorted((r.n, r.s) for r in lam.records) != sorted(want):
            problems.append(f"sweep {proc}: cells missing or repeated")
        if not all(math.isfinite(r.mean_risk) for r in lam.records):
            problems.append(f"sweep {proc}: non-finite risk")
        ts = [t for _, t in tk.tradeoff.pareto_data_time(lam, PARETO_EPS)]
        if any(b > a for a, b in zip(ts, ts[1:])):
            problems.append(f"sweep {proc}: data-time frontier increases")
    return problems


def sweep_digest(ref_risk: float, lams) -> str:
    return digest(
        [ref_risk]
        + [
            (r.procedure, r.n, r.s, r.mean_risk, r.std_risk)
            for proc in ("uniform", "coreset")
            for r in lams[proc].records
        ]
    )


def _sweep_once(out: Outcome, tk, data, seed: int, part_times: dict):
    start = time.perf_counter()
    res = out.attempt(sweep_experiment, tk, data, seed)
    if res is None:
        return None
    times, ref_risk, lams = res
    out.done(sum(times.values()), start)
    out.judge(check_sweep(tk, lams))
    out.digests.add(sweep_digest(ref_risk, lams))
    for part, t in times.items():
        part_times.setdefault(part, []).append(t)
    return res


def run_sweep(tk, data, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    part_times: dict = {}
    t_start = time.perf_counter()
    while True:
        _sweep_once(out, tk, data, seed, part_times)
        if not keep_going(t_start, seconds, out):
            break
    out.detail = {f"{part}_s": statistics.median(ts) for part, ts in part_times.items()}
    return out


def trace_sweep(tk, data, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    part_times: dict = {}
    # the untraced and traced experiments run back to back, so that a drift
    # in the machine's speed moves both alike
    plain = _sweep_once(out, tk, data, seed, part_times)
    with traced(out, tk) as tracer:
        tracer.op = "experiment"
        with tracer.span("bench.experiment"):
            traced_res = _sweep_once(out, tk, data, seed, part_times)
    if plain is None or traced_res is None:
        return out
    times, ref_risk, lams = plain
    out.layers.update(
        {
            "trace.overhead": out.walls[1] / out.walls[0] - 1.0,
            "sweep.ref_solve_s": times["ref_solve"],
            "sweep.uniform_grid_s": times["uniform"],
            "sweep.coreset_grid_s": times["coreset"],
            "quality.uniform_risk_rel": statistics.fmean(
                r.mean_risk for r in lams["uniform"].records
            ) / ref_risk,
            "quality.coreset_risk_rel": statistics.fmean(
                r.mean_risk for r in lams["coreset"].records
            ) / ref_risk,
        }
    )
    return out


# ---------------------------------------------------------------- tram


def navigate(tk, data, r: int):
    """One navigation: split, then run_tram, timed from outside (pilot included)."""
    t0 = clock()
    train, pool = tk.data.split_validation(data, 0.2, seed=r)
    trace = tk.tram.run_tram(
        train,
        pool,
        tk.tram.TramParams(eps_total=TRAM_EPS, delta=0.1, k=10, seed=r),
        sweep_solver(tk),
    )
    return clock() - t0, trace, train.n


def check_trace(tk, r: int, trace, n_train: int) -> list:
    p = trace.params
    problems = []
    if trace.exhausted:
        problems.append(f"tram seed {r}: exhausted")
    for row in trace.rows:
        if row.m != tk.tram.truncation_at(row.i, p.m0, p.gamma_m, n_train):
            problems.append(f"tram seed {r} row {row.i}: m off schedule")
        if row.s != tk.tram.summary_at(row.i, p.s0, p.gamma_s):
            problems.append(f"tram seed {r} row {row.i}: s off schedule")
        if row.a != tk.tram.validation_size(row.i + 1, p):
            problems.append(f"tram seed {r} row {row.i}: a off schedule")
        if row.stopped and not row.validation_risk <= 1.5 * p.eps_total:
            problems.append(f"tram seed {r} row {row.i}: stopped above threshold")
    return problems


def tram_digest(traces: dict) -> str:
    return digest(
        (r, t.J, t.exhausted, tuple(row.validation_risk for row in t.rows), t.final_validation_risk)
        for r, t in sorted(traces.items())
    )


def panel_size(seconds: float) -> int:
    return max(4, round(TRAM_PER_SECOND * seconds))


def _navigate_once(out: Outcome, tk, data, r: int, traces: dict):
    start = time.perf_counter()
    res = out.attempt(navigate, tk, data, r)
    if res is None:
        return None
    wall, trace, n_train = res
    out.done(wall, start)
    out.judge(check_trace(tk, r, trace, n_train))
    traces[r] = trace
    return wall


def run_tram(tk, data, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    # The panel of navigation seeds is the same in every run: a navigation's
    # time depends on its seed through J, and a panel drawn per workload seed
    # moves p50 and the mean by about 10% between seeds. The seed sets the
    # order the panel runs in.
    order = list(range(panel_size(seconds)))
    random.Random(seed).shuffle(order)
    traces: dict = {}
    for r in order:
        _navigate_once(out, tk, data, r, traces)
    out.digests.add(tram_digest(traces))
    if len(out.walls) >= 2:
        js = [t.J for t in traces.values()]
        out.detail = {
            "navigations": len(out.walls),
            "tram_wall_p50_s": statistics.median(out.walls),
            "tram_wall_p90_s": statistics.quantiles(out.walls, n=10)[8],
            "J_min": min(js),
            "J_max": max(js),
            "J_sum": sum(js),
        }
    return out


def trace_tram(tk, data, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    pairs, traces_u, traces_t = [], {}, {}
    # each navigation runs untraced, then traced, so that a drift in the
    # machine's speed moves both alike
    for r in range(panel_size(seconds) // 2):
        wall_u = _navigate_once(out, tk, data, r, traces_u)
        with traced(out, tk) as tracer:
            tracer.op = f"nav{r}"
            with tracer.span("bench.navigation"):
                wall_t = _navigate_once(out, tk, data, r, traces_t)
        if wall_u is not None and wall_t is not None:
            pairs.append((wall_u, wall_t))
    out.digests.update({tram_digest(traces_u), tram_digest(traces_t)})
    if pairs:
        out.layers["trace.overhead"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0
    if traces_t:
        out.layers["quality.tram_final_risk"] = statistics.fmean(
            tk.core.empirical_risk(data, t.final_centers) for t in traces_t.values()
        )
    return out


# ---------------------------------------------------------------- cli

CLI_HEADERS = {
    "data.csv": {f"x{j}" for j in range(10)},
    "lambda_uniform.csv": {"procedure", "n", "s", "repeats", "mean_time_s", "mean_risk"},
    "lambda_coreset.csv": {"procedure", "n", "s", "repeats", "mean_time_s", "mean_risk"},
    "frontier.csv": {"n_or_eps", "time_s", "source"},
    "trace.csv": {"i", "m", "s", "a", "val_risk", "stopped"},
    "analytic_data_time.csv": {"x", "t_subs", "t_core"},
    "analytic_risk_time.csv": {"x", "t_subs", "t_core"},
}


def cli_steps(work: Path, seed: int) -> list:
    w = lambda name: str(work / name)  # noqa: E731
    sweep = [
        "--n-values", CLI_N, "--s-values", CLI_S, "--repeats", CLI_REPEATS,
        "--k", "10", "--seed", str(seed),
    ]
    return [
        ["gen", "--n", "60000", "--d", "10", "--k-true", "10", "--seed", str(DATA_SEED),
         "--out", w("data.csv")],
        ["sweep", "--input", w("data.csv"), "--procedure", "uniform", *sweep,
         "--out", w("lambda_uniform.csv")],
        ["sweep", "--input", w("data.csv"), "--procedure", "coreset", *sweep,
         "--out", w("lambda_coreset.csv")],
        ["pareto", "--lambda", w("lambda_uniform.csv"), "--lambda", w("lambda_coreset.csv"),
         "--eps", str(PARETO_EPS), "--out", w("frontier.csv")],
        ["tram", "--input", w("data.csv"), "--eps", str(TRAM_EPS), "--k", "10",
         "--seed", CLI_TRAM_SEED, "--trace-out", w("trace.csv")],
        ["analytic", "--mode", "data-time", "--out", w("analytic_data_time.csv")],
        ["analytic", "--mode", "risk-time", "--n", "2000", "--out", w("analytic_risk_time.csv")],
    ]


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cli_chain(tk, work: Path, seed: int):
    """The user-typed chain through tramkit.cli.main.

    Returns the chain's wall time, the time per command (summed over the
    two sweeps and the two analytic modes) and the exit codes.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    per_command, codes = {}, []
    t_start = clock()
    for argv in cli_steps(work, seed):
        t0 = clock()
        codes.append(tk.cli.main(argv))
        per_command[argv[0]] = per_command.get(argv[0], 0.0) + clock() - t0
    return clock() - t_start, per_command, codes


def check_cli(work: Path, codes: list) -> list:
    import json

    problems = [f"cli step {i}: exit code {c}" for i, c in enumerate(codes) if c != 0]
    for manifest in sorted(work.glob("*.manifest.json")):
        if json.loads(manifest.read_text()).get("error") is not None:
            problems.append(f"cli {manifest.name}: error recorded")
    for name, want in CLI_HEADERS.items():
        path = work / name
        if not path.is_file():
            problems.append(f"cli {name}: missing")
            continue
        with open(path, newline="") as fh:
            header = set(next(csv.reader(fh), []))
        if not want <= header:
            problems.append(f"cli {name}: header lacks {sorted(want - header)}")
    return problems


def cli_digest(work: Path) -> str:
    rows = []
    for name in ("lambda_uniform.csv", "lambda_coreset.csv"):
        rows += [(name, r["n"], r["s"], r["mean_risk"], r["std_risk"]) for r in _read_rows(work / name)]
    rows += [("trace.csv", r["i"], r["val_risk"]) for r in _read_rows(work / "trace.csv")]
    return digest(rows)


def _cli_once(out: Outcome, tk, work: Path, seed: int, step_times: dict):
    start = time.perf_counter()
    res = out.attempt(cli_chain, tk, work, seed)
    if res is None:
        return None
    wall, per_command, codes = res
    out.done(wall, start)
    problems = check_cli(work, codes)
    out.judge(problems)
    if not problems:
        out.digests.add(cli_digest(work))
    for name, t in per_command.items():
        step_times.setdefault(name, []).append(t)
    return wall


def run_cli(tk, data, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    work = OUT_DIR / "cli"
    step_times: dict = {}
    t_start = time.perf_counter()
    try:
        while True:
            _cli_once(out, tk, work, seed, step_times)
            if not keep_going(t_start, seconds, out):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.detail = {
        f"cli_{name}_s": statistics.median(ts) for name, ts in step_times.items()
    }
    return out


def trace_cli(tk, data, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    work = OUT_DIR / "cli"
    pairs, step_times = [], {}
    try:
        for i in range(2):
            wall_u = _cli_once(out, tk, work, seed, step_times)
            with traced(out, tk) as tracer:
                tracer.op = f"chain{i}"
                with tracer.span("bench.chain"):
                    wall_t = _cli_once(out, tk, work, seed, step_times)
            if wall_u is not None and wall_t is not None:
                pairs.append((wall_u, wall_t))
        centers = tk.data.load_csv(work / "trace_centers.csv", has_header=True)
        out.layers["quality.tram_final_risk"] = tk.core.empirical_risk(
            data, tk.core.Centers(centers.points)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if pairs:
        out.layers["trace.overhead"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0
    return out


WORKLOADS = {
    "sweep": (run_sweep, trace_sweep),
    "tram": (run_tram, trace_tram),
    "cli": (run_cli, trace_cli),
}
