import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tramkit import (
    Dataset,
    SolverConfig,
    TramParams,
    empirical_risk,
    run_tram,
    stopping_test,
    validation_size,
)
import tramkit.tram as tram_module
from tramkit.cli import main
from tramkit.data import save_csv
from tramkit.tram import default_start_sizes, summary_at, truncation_at


def blob_data(n, mix_seed, sample_seed, k_true=3, spread=0.5, sep=4.0, d=2):
    """A sample from a fixed mixture: means come from mix_seed, points from
    sample_seed, so several datasets can share one distribution."""
    mus = np.random.default_rng(mix_seed).uniform(0, sep, (k_true, d))
    rng = np.random.default_rng(sample_seed)
    lab = rng.integers(0, k_true, n)
    return Dataset(mus[lab] + rng.normal(0, spread, (n, d)))


def test_validation_size_examples():
    # delta = 1/e makes ln(1/delta) = 1; TramParams itself would reject it
    # (the risk guarantee needs delta < 1/5), so exercise the formula
    # through a bare parameter carrier
    from types import SimpleNamespace

    p = SimpleNamespace(b=2.0, delta=math.exp(-1.0), eps_total=0.5)
    assert validation_size(1, p) == 32
    assert validation_size(2, p) == 64
    with pytest.raises(ValueError):
        validation_size(0, p)
    q = TramParams(eps_total=0.5, delta=0.1, k=1, B=1.0)
    assert validation_size(1, q) == math.ceil(4 * 2 * math.log(10.0) / 0.25)


def test_delta_precondition():
    with pytest.raises(ValueError):
        TramParams(eps_total=1.0, delta=0.2, k=1, B=1.0)
    with pytest.raises(ValueError):
        TramParams(eps_total=1.0, delta=1.0 - 1e-9, k=1, B=1.0)
    TramParams(eps_total=1.0, delta=0.19, k=1, B=1.0)  # boundary inside


@pytest.mark.parametrize(
    "change, message",
    [
        ({"eps_total": 0.0}, "eps_total must be positive and finite"),
        ({"eps_total": math.inf}, "eps_total must be positive and finite"),
        ({"beta": 1.0}, "beta must exceed 1 and be finite"),
        ({"beta": math.inf, "gamma_s": 1.5}, "beta must exceed 1 and be finite"),
        ({"k": 0}, "k must be >= 1"),
        ({"B": 0.0}, "B must be positive and finite"),
        ({"B": math.inf}, "B must be positive and finite"),
        ({"gamma_m": 1.0}, "growth factors must exceed 1 and be finite"),
        ({"gamma_m": math.inf}, "growth factors must exceed 1 and be finite"),
        ({"gamma_s": 1.0}, "growth factors must exceed 1 and be finite"),
        ({"gamma_s": math.inf}, "growth factors must exceed 1 and be finite"),
        ({"m0": 0}, "m0 must be >= 1"),
        ({"s0": 0}, "s0 must be >= 1"),
    ],
    ids=["eps_total", "eps_total-inf", "beta", "beta-inf", "k", "B", "B-inf", "gamma_m",
         "gamma_m-inf", "gamma_s", "gamma_s-inf", "m0", "s0"],
)
def test_params_range_checks(change, message):
    with pytest.raises(ValueError, match=message):
        TramParams(**{"eps_total": 1.0, "delta": 0.1, "k": 1, "B": 1.0, **change})


def test_unset_support_radius_has_no_b():
    with pytest.raises(ValueError, match="support radius B is unset"):
        TramParams(eps_total=1.0, delta=0.1, k=1).b


def test_train_and_validation_dimensions_must_match():
    train, pool = blob_data(50, 11, 1), blob_data(50, 11, 2, d=3)
    p = TramParams(eps_total=1.0, delta=0.1, k=2, B=10.0)
    with pytest.raises(ValueError, match="train and validation dimensions differ"):
        run_tram(train, pool, p, SolverConfig(k=2))


def test_run_tram_rejects_two_ks_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("run_tram worked before checking k")

    monkeypatch.setattr(tram_module, "solve", no_work)
    monkeypatch.setattr(Dataset, "bound_radius", no_work)
    data = blob_data(50, 11, 1)
    p = TramParams(eps_total=1.0, delta=0.1, k=3)
    with pytest.raises(ValueError, match="TramParams.k = 3 differs from SolverConfig.k = 5"):
        run_tram(data, data, p, SolverConfig(k=5))


def test_stopping_threshold_boundary():
    p = TramParams(eps_total=2.0, delta=0.1, k=1, B=1.0)
    assert stopping_test(3.0, p)  # exactly 1.5 * eps
    assert not stopping_test(3.0 + 1e-12, p)
    assert stopping_test(0.0, p)


def test_truncation_saturates():
    seq = [truncation_at(i, 100, 2.0, 350) for i in range(5)]
    assert seq == [100, 200, 350, 350, 350]


def test_schedules_match_closed_form():
    gamma_s = 2.0 ** (1.0 / 3.0)
    for i in range(12):
        assert summary_at(i, 7, gamma_s) == math.ceil(gamma_s**i * 7)
        assert truncation_at(i, 13, 2.0, 10**9) == 13 * 2**i


def test_easy_target_stops_immediately():
    train = blob_data(400, 1, 1)
    pool = blob_data(400, 1, 2)
    p = TramParams(eps_total=1e6, delta=0.1, k=3, m0=50, s0=10, seed=0)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=0))
    assert trace.J == 1
    assert trace.rows[0].i == 0
    assert trace.rows[0].m == 50
    assert trace.rows[0].s == 10
    assert trace.rows[0].stopped
    assert not trace.exhausted


def test_trace_schedule_and_validation_columns():
    train = blob_data(350, 3, 1)
    pool = blob_data(30000, 3, 2)
    p = TramParams(eps_total=0.42, delta=0.1, k=3, m0=20, s0=5, seed=1)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=1))
    assert trace.J >= 2
    for row in trace.rows:
        assert row.m == min(math.ceil(p.gamma_m**row.i * p.m0), train.n)
        assert row.s == math.ceil(p.gamma_s**row.i * p.s0)
        assert row.a == validation_size(row.i + 1, trace.params)
    a_seq = [r.a for r in trace.rows]
    assert all(b > a for a, b in zip(a_seq, a_seq[1:]))
    s_seq = [r.s for r in trace.rows]
    assert all(b > a for a, b in zip(s_seq, s_seq[1:]))
    # exactly the last row stopped
    assert [r.stopped for r in trace.rows] == [False] * (trace.J - 1) + [True]


def test_solver_clock_leaves_the_validation_risk_out(monkeypatch):
    # each validation risk moves TRAM's clock on by an hour, which must
    # land in elapsed_validation and never in elapsed_solver
    skew = [0.0]

    def risk_taking_an_hour(*args):
        skew[0] += 3600.0
        return empirical_risk(*args)

    clock = SimpleNamespace(perf_counter=lambda: time.perf_counter() + skew[0])
    monkeypatch.setattr(tram_module, "time", clock)
    monkeypatch.setattr(tram_module, "empirical_risk", risk_taking_an_hour)
    train = blob_data(350, 3, 1)
    pool = blob_data(30000, 3, 2)
    p = TramParams(eps_total=0.42, delta=0.1, k=3, m0=20, s0=5, seed=1)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=1))
    assert trace.J >= 2 and skew[0] == 3600.0 * trace.J
    assert all(r.elapsed_solver < 3600.0 for r in trace.rows)
    assert all(r.elapsed_validation >= 3600.0 for r in trace.rows)


def test_determinism():
    train = blob_data(300, 5, 1)
    pool = blob_data(20000, 5, 2)
    p = TramParams(eps_total=0.6, delta=0.1, k=3, m0=20, s0=5, seed=9)
    cfg = SolverConfig(k=3, seed=9)
    t1 = run_tram(train, pool, p, cfg)
    t2 = run_tram(train, pool, p, cfg)
    assert [r.validation_risk for r in t1.rows] == [r.validation_risk for r in t2.rows]
    assert np.array_equal(t1.final_centers.centers, t2.final_centers.centers)


def test_exhausted_on_impossible_target():
    train = blob_data(120, 7, 1)
    pool = blob_data(30000, 7, 2)
    p = TramParams(eps_total=1e-9, delta=0.1, k=3, m0=30, s0=5, seed=2)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=2))
    assert trace.exhausted
    assert not trace.rows[-1].stopped
    assert trace.final_validation_risk == min(r.validation_risk for r in trace.rows)
    # returned centers are usable best-so-far
    assert trace.final_centers.k == 3


def test_exhausted_on_short_pool():
    train = blob_data(200, 9, 1)
    pool = blob_data(5, 9, 2)  # far below any a[i]
    p = TramParams(eps_total=1e-9, delta=0.1, k=3, m0=20, s0=5, seed=3)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=3))
    assert trace.exhausted
    assert trace.J == 1


def test_pass_on_a_short_pool_is_exhausted(tmp_path, capsys):
    # B = 1e4 puts a[0] far above the pool, and eps = 100 passes at once
    train = blob_data(400, 15, 1)
    pool = blob_data(100, 15, 2)
    p = TramParams(eps_total=100.0, delta=0.1, k=3, B=1e4, m0=50, s0=10, seed=5)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=5))
    assert trace.J == 1
    assert trace.rows[0].stopped and trace.rows[0].a > pool.n
    assert trace.exhausted
    assert trace.final_validation_risk == trace.rows[0].validation_risk
    data = tmp_path / "data.csv"
    save_csv(Dataset(np.vstack([train.points, pool.points])), data)
    argv = ["tram", "--input", str(data), "--eps", "100", "--ball-radius", "1e4",
            "--k", "3", "--m0", "50", "--s0", "10", "--seed", "5",
            "--trace-out", str(tmp_path / "trace.csv")]
    assert main(argv) == 0
    assert "validation pool smaller than the prescribed budget" in capsys.readouterr().err


def test_m0_larger_than_n_rejected():
    train = blob_data(50, 11, 1)
    pool = blob_data(50, 11, 2)
    p = TramParams(eps_total=1.0, delta=0.1, k=3, m0=51, s0=5)
    with pytest.raises(ValueError):
        run_tram(train, pool, p, SolverConfig(k=3))


def test_zero_derived_radius_asks_for_B():
    # every training point at the origin: the radius derived from the data
    # is 0, which is the data's doing, not a B the caller set
    train = Dataset(np.zeros((40, 2)))
    pool = blob_data(200, 11, 2)
    p = TramParams(eps_total=1.0, delta=0.1, k=2, seed=3)
    with pytest.raises(ValueError, match=r"derived from the training data is 0; pass TramParams\.B"):
        run_tram(train, pool, p, SolverConfig(k=2))
    # an explicit B runs
    assert run_tram(train, pool, replace(p, B=1.0), SolverConfig(k=2)).J >= 1


def test_pilot_start_sizes_scale_with_eps():
    train = blob_data(2000, 13, 1)
    solver = SolverConfig(k=3, seed=13)
    p_hard = TramParams(eps_total=0.1, delta=0.1, k=3, B=10.0, seed=13)
    p_easy = TramParams(eps_total=10.0, delta=0.1, k=3, B=10.0, seed=13)
    m_hard, s_hard = default_start_sizes(train, p_hard, solver)
    m_easy, s_easy = default_start_sizes(train, p_easy, solver)
    assert m_hard >= m_easy
    assert s_hard >= s_easy
    assert m_hard <= train.n


def test_gamma_s_defaults_from_beta():
    p = TramParams(eps_total=1.0, delta=0.1, k=1, B=1.0, beta=1.0 / math.log2(1.5))
    assert p.gamma_s == pytest.approx(1.5, rel=1e-12)
    p3 = TramParams(eps_total=1.0, delta=0.1, k=1, B=1.0, beta=3.0)
    assert p3.gamma_s == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_trace_csv_round_trip(tmp_path):
    train = blob_data(300, 14, 1)
    pool = blob_data(20000, 14, 2)
    p = TramParams(eps_total=0.6, delta=0.1, k=3, m0=20, s0=5, seed=4)
    trace = run_tram(train, pool, p, SolverConfig(k=3, seed=4))
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,m,s,a,val_risk,stopped,t_solver_ms,t_val_ms"
    assert len(lines) == trace.J + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert int(first[1]) == trace.rows[0].m
    assert float(first[4]) == trace.rows[0].validation_risk


def test_final_risk_hits_relaxed_target():
    # a sanity slice of the risk guarantee: with a comfortably feasible
    # target the returned centers achieve twice the target on held-out data
    fails = 0
    for seed in range(10):
        train = blob_data(1500, seed, 100)
        pool = blob_data(30000, seed, 200)
        probe = blob_data(4000, seed, 300)
        ref = empirical_risk(
            probe,
            run_tram(
                train,
                pool,
                TramParams(eps_total=1e9, delta=0.1, k=3, m0=1500, s0=1500, seed=seed),
                SolverConfig(k=3, restarts=3, seed=seed),
            ).final_centers,
        )
        eps = 1.3 * ref
        p = TramParams(eps_total=eps, delta=0.1, k=3, seed=seed)
        trace = run_tram(train, pool, p, SolverConfig(k=3, restarts=2, seed=seed))
        if empirical_risk(probe, trace.final_centers) > 2.0 * eps:
            fails += 1
    assert fails <= 1
