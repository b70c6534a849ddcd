import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tramkit import (
    Dataset,
    Lambda,
    LambdaRecord,
    SolverConfig,
    SweepGrid,
    empirical_risk,
    pareto_data_time,
    pareto_risk_time,
    run_sweep,
    solve,
    uniform_weighted,
)
import tramkit.tradeoff as tradeoff
from tramkit.rng import derive_rng, stable_seed


def rec(n, t, risk, proc="uniform", s=1):
    return LambdaRecord(
        procedure=proc,
        n=n,
        s=s,
        repeats=1,
        mean_time_s=t,
        median_time_s=t,
        mean_risk=risk,
        std_risk=0.0,
        seed=0,
    )


HAND_LAMBDA = Lambda((rec(10, 5.0, 1.0), rec(20, 3.0, 1.0), rec(20, 1.0, 9.0)))


def test_pareto_data_time_hand_enumeration():
    assert pareto_data_time(HAND_LAMBDA, 2.0) == [(10, 5.0), (20, 3.0)]


def test_pareto_data_time_infeasible_eps():
    assert pareto_data_time(HAND_LAMBDA, 0.5) == []


def test_pareto_data_time_relaxed_eps():
    # every record feasible: per-n global minimum over records with n' <= n
    front = pareto_data_time(HAND_LAMBDA, 100.0)
    assert front == [(10, 5.0), (20, 1.0)]
    times = [t for _, t in front]
    assert all(b <= a for a, b in zip(times, times[1:]))


def test_pareto_data_time_never_increases_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    record = st.builds(
        rec,
        st.integers(1, 50),
        st.floats(0.0, 10.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from(["uniform", "coreset"]),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(record, min_size=1, max_size=20), st.floats(0.0, 12.0, allow_nan=False))
    def never_increases(records, eps):
        front = pareto_data_time(Lambda(tuple(records)), eps)
        ns = [n for n, _ in front]
        times = [t for _, t in front]
        assert ns == sorted(set(ns))
        assert all(b <= a for a, b in zip(times, times[1:]))

    never_increases()


def test_pareto_risk_time_hand_enumeration():
    assert pareto_risk_time(HAND_LAMBDA, 20) == [(1.0, 3.0), (9.0, 1.0)]


def test_pareto_risk_time_single_record():
    lam = Lambda((rec(10, 5.0, 1.0),))
    assert pareto_risk_time(lam, 10) == [(1.0, 5.0)]


def test_pareto_risk_time_monotone_on_random_lambdas():
    rng = np.random.default_rng(0)
    for trial in range(20):
        records = tuple(
            rec(int(rng.integers(1, 50)), float(rng.uniform(0.1, 9)), float(rng.uniform(0, 5)))
            for _ in range(15)
        )
        front = pareto_risk_time(Lambda(records), 50)
        times = [t for _, t in front]
        assert all(b <= a for a, b in zip(times, times[1:]))
        eps = [e for e, _ in front]
        assert eps == sorted(eps)


def two_cluster_line(n, seed, rare_share=0.05):
    # 1-D data, rare cluster at 10 holding `rare_share` of the mass
    rng = np.random.default_rng(seed)
    lab = rng.random(n) < rare_share
    pts = np.where(lab, 10.0, 0.0) + rng.normal(0, 0.1, n)
    return Dataset(pts.reshape(-1, 1))


def small_grid(procedure, repeats=8, seed=7):
    return SweepGrid(
        n_values=(60, 120),
        s_values=(4, 200),
        procedure=procedure,
        solver=SolverConfig(k=2, restarts=2, seed=seed),
        repeats=repeats,
        seed=seed,
    )


def test_sweep_shapes_and_determinism():
    data = two_cluster_line(200, seed=1)
    lam1 = run_sweep(data, small_grid("uniform", repeats=2))
    lam2 = run_sweep(data, small_grid("uniform", repeats=2))
    assert len(lam1.records) == 4
    assert [r.mean_risk for r in lam1.records] == [r.mean_risk for r in lam2.records]
    assert [r.std_risk for r in lam1.records] == [r.std_risk for r in lam2.records]
    assert lam1.n_grid() == (60, 120)


def test_degenerate_cells_match_across_procedures():
    # s >= n cells degrade both procedures to the full sample; shared
    # substreams make the risks identical, not merely close
    data = two_cluster_line(200, seed=2)
    lam_u = run_sweep(data, small_grid("uniform"))
    lam_c = run_sweep(data, small_grid("coreset"))
    for ru, rc in zip(lam_u.records, lam_c.records):
        if ru.s >= ru.n:
            assert rc.mean_risk == ru.mean_risk


def test_coreset_covers_rare_cluster_better():
    # k=2, tiny summaries: uniform sampling often misses the 5% cluster,
    # sensitivity sampling rarely does
    data = two_cluster_line(400, seed=3)
    grid_u = SweepGrid(
        n_values=(400,),
        s_values=(4,),
        procedure="uniform",
        solver=SolverConfig(k=2, restarts=2, seed=11),
        repeats=40,
        seed=11,
    )
    grid_c = SweepGrid(
        n_values=(400,),
        s_values=(4,),
        procedure="coreset",
        solver=SolverConfig(k=2, restarts=2, seed=11),
        repeats=40,
        seed=11,
    )
    ru = run_sweep(data, grid_u).records[0]
    rc = run_sweep(data, grid_c).records[0]
    se = np.hypot(ru.std_risk / np.sqrt(ru.repeats), rc.std_risk / np.sqrt(rc.repeats))
    assert rc.mean_risk <= ru.mean_risk + 2.0 * se


def test_uniform_risks_equal_sampling_then_summarizing_the_sample():
    # a uniform cell gathers its summary straight from the reference; the
    # rows are those of its sample's subset, so the risks keep their bits
    data = two_cluster_line(200, seed=8)
    grid = SweepGrid(
        n_values=(60, 120),
        s_values=(4, 60, 200),
        procedure="uniform",
        solver=SolverConfig(k=2, restarts=2, seed=9),
        repeats=3,
        seed=9,
    )
    lam = run_sweep(data, grid)
    for record, (ni, sj) in zip(lam.records, [(i, j) for i in range(2) for j in range(3)]):
        n, s = grid.n_values[ni], grid.s_values[sj]
        risks = []
        for rep in range(grid.repeats):
            sample = data.subset(derive_rng(9, "sample", ni, sj, rep).choice(data.n, size=n, replace=False))
            if s < n:
                sample = sample.subset(derive_rng(9, "summarize", ni, sj, rep).choice(n, size=s, replace=False))
            solver = replace(grid.solver, seed=stable_seed(9, "solve", ni, sj, rep))
            risks.append(empirical_risk(data, solve(uniform_weighted(sample), solver).centers))
        assert (record.n, record.s) == (n, s)
        assert record.mean_risk == statistics.fmean(risks)
        assert record.std_risk == statistics.pstdev(risks)


def test_sweep_rejects_oversized_grid():
    data = two_cluster_line(100, seed=4)
    with pytest.raises(ValueError):
        run_sweep(data, small_grid("uniform"))  # grid needs 120 > 100 points


def test_cell_clock_leaves_the_reference_risk_out(monkeypatch):
    # each reference risk moves the sweep's clock on by an hour, which a
    # cell's time would show if its clock wrapped the risk; a real sleep
    # would race the machine's own stalls
    data = two_cluster_line(200, seed=5)
    plain = run_sweep(data, small_grid("coreset", repeats=2))
    skew = [0.0]

    def risk_taking_an_hour(*args):
        skew[0] += 3600.0
        return empirical_risk(*args)

    clock = SimpleNamespace(perf_counter=lambda: time.perf_counter() + skew[0])
    monkeypatch.setattr(tradeoff, "time", clock)
    monkeypatch.setattr(tradeoff, "empirical_risk", risk_taking_an_hour)
    slow = run_sweep(data, small_grid("coreset", repeats=2))
    assert skew[0] == 3600.0 * 4 * 2
    assert all(r.mean_time_s < 3600.0 for r in slow.records)
    assert [r.mean_risk for r in slow.records] == [r.mean_risk for r in plain.records]


def test_lambda_csv_round_trip(tmp_path):
    data = two_cluster_line(200, seed=6)
    lam = run_sweep(data, small_grid("coreset", repeats=2))
    path = tmp_path / "lambda.csv"
    lam.to_csv(path)
    back = Lambda.from_csv(path)
    assert back == lam


def test_lambda_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        Lambda.from_csv(path)


def test_grid_validation():
    cfg = SolverConfig(k=2)
    with pytest.raises(ValueError):
        SweepGrid(n_values=(10, 10), s_values=(1,), procedure="uniform", solver=cfg)
    with pytest.raises(ValueError):
        SweepGrid(n_values=(10,), s_values=(5, 2), procedure="uniform", solver=cfg)
    with pytest.raises(ValueError):
        SweepGrid(n_values=(10,), s_values=(2,), procedure="median", solver=cfg)
    with pytest.raises(ValueError, match="n_values must be non-empty and strictly ascending"):
        SweepGrid(n_values=(20, 10), s_values=(1,), procedure="uniform", solver=cfg)
    with pytest.raises(ValueError, match="s_values must be non-empty and strictly ascending"):
        SweepGrid(n_values=(10,), s_values=(), procedure="uniform", solver=cfg)
    with pytest.raises(ValueError, match="s_values must be positive"):
        SweepGrid(n_values=(10,), s_values=(0, 2), procedure="uniform", solver=cfg)
    with pytest.raises(ValueError, match="repeats must be >= 1"):
        SweepGrid(n_values=(10,), s_values=(2,), procedure="uniform", solver=cfg, repeats=0)
