import dataclasses
import math

import numpy as np
import pytest

from tramkit import (
    AnalyticParams,
    analytic_curves,
    coreset_optimum,
    eps_est,
    eps_model,
    subsampler_optimum,
)
from tramkit.analytic import eta_simple


REFERENCE = AnalyticParams()  # d=20, k=20, sigma_bar=192, beta=3, A=5, eps=300


def grid_oracle(n, p, points=400):
    """Independent exhaustive 2-D log-grid search over (m, s)."""
    axis = np.unique(np.ceil(np.geomspace(1, n, points)))
    m = axis[None, :]
    s = axis[:, None]
    e_mod = p.B**2 * p.d / p.k ** (2.0 / p.d)
    coef = (p.sigma_bar if p.use_sigma else 1.0) * p.B**2 * math.sqrt(p.k * p.d)
    risk = (e_mod + coef / np.sqrt(m)) * (1.0 + 2.0 * p.A * math.sqrt(p.k) / np.sqrt(s))
    t = s**p.beta + p.alpha_init * m + p.alpha_samp * s
    feasible = (risk <= p.eps_total) & (s < m)
    best = np.inf if not feasible.any() else float(t[feasible].min())
    # the subsampler branch (back-off) in the same exhaustive style
    sub_risk = e_mod + coef / np.sqrt(axis)
    sub_ok = sub_risk <= p.eps_total
    if sub_ok.any():
        best = min(best, float((axis[sub_ok] ** p.beta).min()))
    return best


def test_eps_model_reference_value():
    # direct scalar evaluation: 20 / 20^0.1
    assert eps_model(REFERENCE) == pytest.approx(20.0 / 20.0**0.1, rel=1e-12)
    assert eps_model(REFERENCE) == pytest.approx(14.8226889821, rel=1e-9)


def test_eps_model_k1_and_B_scaling():
    p1 = AnalyticParams(d=7, k=1, B=1.0)
    assert eps_model(p1) == pytest.approx(7.0, rel=1e-12)
    p2 = AnalyticParams(d=7, k=1, B=2.0)
    assert eps_model(p2) == pytest.approx(4.0 * eps_model(p1), rel=1e-12)


def test_eps_est_values():
    assert eps_est(1, REFERENCE) == pytest.approx(3840.0, rel=1e-12)
    assert eps_est(4, REFERENCE) == pytest.approx(1920.0, rel=1e-12)
    # feasibility threshold of the reference set: just under eps - eps_model
    val = eps_est(182, REFERENCE)
    assert val == pytest.approx(3840.0 / math.sqrt(182.0), rel=1e-12)
    assert val < REFERENCE.eps_total - eps_model(REFERENCE)
    assert eps_est(181, REFERENCE) > REFERENCE.eps_total - eps_model(REFERENCE)


def test_subsampler_optimum_reference():
    for n in (182, 500, 10**6):
        opt = subsampler_optimum(n, REFERENCE)
        assert opt.feasible
        assert opt.m == 182
        assert opt.t == 182.0**3
    assert subsampler_optimum(100, REFERENCE).feasible is False
    assert subsampler_optimum(181, REFERENCE).feasible is False


def test_structural_infeasibility():
    p = dataclasses.replace(REFERENCE, eps_total=eps_model(REFERENCE))
    r = subsampler_optimum(10**9, p)
    assert not r.feasible and r.structurally_infeasible
    rc = coreset_optimum(10**9, p)
    assert not rc.feasible and rc.structurally_infeasible


def test_coreset_dominates_at_scale_and_flattens():
    ns = np.unique(np.geomspace(100, 10**6, 50).astype(np.int64))
    ts = []
    crossover = None
    for n in ns:
        r = coreset_optimum(int(n), REFERENCE)
        rs = subsampler_optimum(int(n), REFERENCE)
        if r.feasible:
            ts.append(r.t)
            if rs.feasible and r.t < rs.t and crossover is None:
                crossover = n
        if crossover is not None and rs.feasible:
            assert r.t < rs.t  # the gap persists beyond the crossover
    assert crossover is not None
    assert any(b < a for a, b in zip(ts, ts[1:]))  # strictly decreasing leg
    assert ts[-1] == ts[-2]  # flattened tail


def test_backoff_matches_subsampler_exactly():
    # enormous sampling cost makes summarization never cost-effective
    p = dataclasses.replace(REFERENCE, alpha_samp=1e12)
    for n in (200, 2000, 10**6):
        r = coreset_optimum(n, p)
        rs = subsampler_optimum(n, p)
        assert r.backed_off
        assert r.t == rs.t and r.m == rs.m


def test_backoff_near_feasibility_threshold():
    r = coreset_optimum(200, REFERENCE)
    rs = subsampler_optimum(200, REFERENCE)
    assert r.feasible and r.backed_off
    assert r.t == rs.t


def test_monotone_in_n_and_eps_on_random_parameter_sets():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        d = int(rng.integers(2, 50))
        k = int(rng.integers(2, 50))
        base = AnalyticParams(d=d, k=k)
        p = AnalyticParams(
            d=d,
            k=k,
            sigma_bar=float(rng.uniform(1, 300)),
            alpha_init=float(rng.uniform(0.01, 1000)),
            alpha_samp=float(rng.uniform(0.01, 1000)),
            beta=float(rng.uniform(1.2, 4.0)),
            A=float(rng.uniform(0.5, 20)),
            eps_total=eps_model(base) * float(rng.uniform(1.05, 30)),
        )
        prev_c, prev_s = np.inf, np.inf
        for n in np.unique(np.geomspace(1, 1e9, 25).astype(np.int64)):
            rc = coreset_optimum(int(n), p)
            rs = subsampler_optimum(int(n), p)
            if rs.feasible:
                assert rs.t <= prev_s
                prev_s = rs.t
            if rc.feasible:
                assert rc.t <= prev_c
                assert not rs.feasible or rc.t <= rs.t
                prev_c = rc.t
        prev_c, prev_s = np.inf, np.inf
        for f in np.geomspace(1.02, 50, 25):
            pe = dataclasses.replace(p, eps_total=eps_model(p) * float(f))
            rc = coreset_optimum(10**6, pe)
            rs = subsampler_optimum(10**6, pe)
            if rs.feasible:
                assert rs.t <= prev_s
                prev_s = rs.t
            if rc.feasible:
                assert rc.t <= prev_c
                prev_c = rc.t


def test_search_close_to_exhaustive_oracle():
    rng = np.random.default_rng(99)
    for trial in range(8):
        d = int(rng.integers(2, 30))
        k = int(rng.integers(2, 30))
        base = AnalyticParams(d=d, k=k)
        p = AnalyticParams(
            d=d,
            k=k,
            sigma_bar=float(rng.uniform(10, 250)),
            alpha_init=float(rng.uniform(0.1, 500)),
            alpha_samp=float(rng.uniform(0.1, 500)),
            beta=float(rng.uniform(1.5, 3.5)),
            A=float(rng.uniform(1, 10)),
            eps_total=eps_model(base) * float(rng.uniform(1.5, 10)),
        )
        for n in (10**4, 10**6):
            got = coreset_optimum(n, p)
            oracle = grid_oracle(n, p)
            if math.isinf(oracle):
                assert not got.feasible
            else:
                assert got.feasible
                assert got.t <= oracle * 1.01


def test_bound_set_shapes():
    ms = np.geomspace(1, 1e9, 30)
    assert np.all(np.diff(eps_est(ms, REFERENCE)) < 0)
    assert np.all(np.diff(eta_simple(ms, REFERENCE)) < 0)


def test_no_sigma_reproduces_literal_program():
    p = dataclasses.replace(REFERENCE, use_sigma=False)
    # without sigma_bar the constraint is loose: one sample suffices
    r = subsampler_optimum(10**6, p)
    assert r.feasible and r.m == 1 and r.t == 1.0
    assert eps_est(4, p) == pytest.approx(math.sqrt(400.0) / 2.0, rel=1e-12)


def test_curves_data_time_regimes():
    ns = np.unique(np.geomspace(100, 10**6, 40).astype(np.int64))
    pts = analytic_curves(REFERENCE, "data_time", ns)
    regimes = [pt.regime for pt in pts]
    assert regimes[0] == "data-bounded"
    assert "intermediate" in regimes
    assert regimes[-1] == "data-laden"
    # regimes appear in order
    order = {"data-bounded": 0, "intermediate": 1, "data-laden": 2}
    codes = [order[r] for r in regimes]
    assert codes == sorted(codes)


def test_curves_risk_time_non_increasing():
    eps_values = np.geomspace(80, 1000, 40)
    pts = analytic_curves(REFERENCE, "risk_time", eps_values, fixed_n=2000)
    for series in ("subsampler", "coreset"):
        ts = [getattr(pt, series).t for pt in pts if getattr(pt, series).feasible]
        assert ts, series
        assert all(b <= a for a, b in zip(ts, ts[1:]))


def test_curves_validation():
    with pytest.raises(ValueError):
        analytic_curves(REFERENCE, "nope", [10])
    with pytest.raises(ValueError):
        analytic_curves(REFERENCE, "data_time", [])


def test_optima_reject_an_empty_data_size():
    for optimum in (subsampler_optimum, coreset_optimum):
        with pytest.raises(ValueError, match="n must be >= 1"):
            optimum(0, REFERENCE)


def test_params_validation():
    with pytest.raises(ValueError):
        AnalyticParams(beta=1.0)
    with pytest.raises(ValueError):
        AnalyticParams(d=0)
    with pytest.raises(ValueError):
        AnalyticParams(sigma_bar=-1.0)
