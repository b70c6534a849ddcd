import argparse
import csv
import inspect
import json
import shutil
import weakref
from dataclasses import MISSING, fields

import numpy as np
import pytest

from tramkit import cli
from tramkit.analytic import AnalyticParams, analytic_curves
from tramkit.cli import main
from tramkit.data import gen_synthetic, SyntheticSpec, load_csv
from tramkit.solver import SolverConfig
from tramkit.tradeoff import SweepGrid
from tramkit.tram import TramParams

from oracles import csv_writer_bytes


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_lambda(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["procedure", "n", "s", "repeats", "mean_time_s", "median_time_s",
             "mean_risk", "std_risk", "seed"]
        )
        writer.writerows(rows)


def no_manifest_written(root):
    return not any(root.rglob("*.manifest.json"))


def write_blobs(path, n=300, seed=0):
    res = gen_synthetic(
        SyntheticSpec(n=n, d=2, k_true=3, box=(0, 8), sigma2=0.3, dirichlet_alpha=2.0, seed=seed)
    )
    path.write_bytes(csv_writer_bytes(res.data.points, header=False))
    return res


def test_gen_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "data.csv"
    rc = main(
        ["gen", "--n", "1000", "--d", "2", "--k-true", "3", "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x0,x1"
    assert len(rows) == 1001
    meta = tmp_path / "data_meta.csv"
    assert meta.exists()
    manifest = json.loads((tmp_path / "data.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["error"] is None
    assert str(out) in manifest["outputs"]
    assert manifest["seed"] == 7


def test_gen_non_finite_sigma2_writes_no_csv(tmp_path):
    out = tmp_path / "d.csv"
    argv = ["gen", "--n", "20", "--d", "2", "--k-true", "2", "--sigma2", "inf"]
    assert main([*argv, "--out", str(out)]) == 1
    manifest = json.loads((tmp_path / "d.manifest.json").read_text())
    assert manifest["error"] == "ValueError: sigma2 must be nonnegative and finite"
    assert manifest["outputs"] == []
    assert not out.exists() and not (tmp_path / "d.csv.npz").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--n", "20", "--d", "2", "--k-true", "2", "--dirichlet-alpha", "nan"],
         "dirichlet_alpha must be positive"),
        (["sweep", "--procedure", "uniform", "--n-values", "10", "--s-values", "5",
          "--k", "2", "--rel-tol", "nan"], "rel_tol must be >= 0"),
        (["tram", "--eps", "nan", "--k", "2"], "eps_total must be positive and finite"),
        (["tram", "--eps", "1", "--k", "2", "--ball-radius", "nan"],
         "B must be positive and finite"),
        (["tram", "--eps", "1", "--k", "2", "--gamma-m", "nan"],
         "growth factors must exceed 1 and be finite"),
        (["tram", "--eps", "1", "--k", "2", "--gamma-s", "nan"],
         "growth factors must exceed 1 and be finite"),
        (["analytic", "--mode", "data-time", "--beta", "nan"], "beta must exceed 1 and be finite"),
        (["analytic", "--mode", "data-time", "--B", "nan"],
         "all coefficients must be positive and finite"),
    ],
    ids=["gen-alpha", "sweep-rel-tol", "tram-eps", "tram-B", "tram-gamma-m", "tram-gamma-s",
         "analytic-beta", "analytic-B"],
)
def test_nan_flag_exits_1_and_writes_no_output(tmp_path, argv, message):
    # sweep and tram build their configs before reading the missing input
    out = tmp_path / "out.csv"
    if argv[0] in ("sweep", "tram"):
        argv = [*argv, "--input", str(tmp_path / "missing.csv")]
    out_flag = "--trace-out" if argv[0] == "tram" else "--out"
    assert main([*argv, out_flag, str(out)]) == 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["error"] == f"ValueError: {message}"
    assert manifest["outputs"] == []
    assert not out.exists() and not (tmp_path / "out.csv.npz").exists()


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen", "--n", "50", "--d", "3", "--k-true", "2", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_file_reloads_bit_for_bit(tmp_path):
    out = tmp_path / "data.csv"
    args = ["gen", "--n", "5000", "--d", "4", "--k-true", "6", "--seed", "9"]
    assert main(args + ["--out", str(out)]) == 0
    want = gen_synthetic(SyntheticSpec(n=5000, d=4, k_true=6, seed=9)).data.points
    got = load_csv(out, has_header=None).points
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# the columns that hold clock readings, which differ between any two runs
_TIME_COLUMNS = {"mean_time_s", "median_time_s", "t_solver_ms", "t_val_ms"}


def untimed_rows(path):
    return [{k: v for k, v in row.items() if k not in _TIME_COLUMNS} for row in read_rows(path)]


def test_sweep_and_tram_results_do_not_depend_on_the_twin(tmp_path):
    twin_dir, plain_dir = tmp_path / "twin", tmp_path / "plain"
    twin_dir.mkdir()
    plain_dir.mkdir()
    data = twin_dir / "data.csv"
    gen = ["gen", "--n", "3000", "--d", "3", "--k-true", "4", "--seed", "5", "--out", str(data)]
    assert main(gen) == 0
    manifest = json.loads((twin_dir / "data.manifest.json").read_text())
    assert manifest["outputs"] == [str(data), f"{data}.npz", str(twin_dir / "data_meta.csv")]
    shutil.copyfile(data, plain_dir / "data.csv")
    for work in (twin_dir, plain_dir):
        source = str(work / "data.csv")
        assert main(["sweep", "--input", source, "--procedure", "coreset",
                     "--n-values", "500,3000", "--s-values", "20,80", "--repeats", "2",
                     "--k", "4", "--seed", "3", "--out", str(work / "lam.csv")]) == 0
        assert main(["tram", "--input", source, "--eps", "20", "--k", "4", "--seed", "6",
                     "--trace-out", str(work / "trace.csv")]) == 0
    assert not (plain_dir / "data.csv.npz").exists()
    for name in ("lam.csv", "trace.csv"):
        assert untimed_rows(twin_dir / name) == untimed_rows(plain_dir / name)
    assert (twin_dir / "trace_centers.csv").read_bytes() == (
        plain_dir / "trace_centers.csv"
    ).read_bytes()


def test_tram_centers_file_is_csv_writer_rendering(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    write_blobs(data, n=400)
    real_run_tram = cli.run_tram
    traces = []

    def run_tram(*args, **kwargs):
        traces.append(real_run_tram(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "run_tram", run_tram)
    centers = tmp_path / "centers.csv"
    rc = main(
        [
            "tram",
            "--input", str(data),
            "--eps", "0.55",
            "--k", "3",
            "--seed", "4",
            "--trace-out", str(tmp_path / "trace.csv"),
            "--centers-out", str(centers),
        ]
    )
    assert rc == 0
    assert centers.read_bytes() == csv_writer_bytes(traces[0].final_centers.centers)


def test_tram_releases_the_parsed_points_before_navigating(tmp_path, monkeypatch):
    # the split copies the points, so navigation holds one copy of them
    data = tmp_path / "data.csv"
    write_blobs(data, n=400)
    real_load_csv, real_run_tram = cli.load_csv, cli.run_tram
    loaded, alive = [], []

    def load_csv(*args, **kwargs):
        dataset = real_load_csv(*args, **kwargs)
        loaded.append(weakref.ref(dataset))
        return dataset

    def run_tram(*args, **kwargs):
        alive.append(loaded[0]() is not None)
        return real_run_tram(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", load_csv)
    monkeypatch.setattr(cli, "run_tram", run_tram)
    rc = main(
        [
            "tram",
            "--input", str(data),
            "--eps", "0.55",
            "--k", "3",
            "--seed", "4",
            "--trace-out", str(tmp_path / "trace.csv"),
        ]
    )
    assert rc == 0
    assert alive == [False]


def test_tram_help_states_the_header_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tram", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "header when one of its non-blank fields is not a number" in out


def test_tram_header_yes_drops_a_numeric_first_row(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    res = write_blobs(data, n=400)
    real_run_tram = cli.run_tram
    parsed = []

    def run_tram(train, validation, *args, **kwargs):
        parsed.append(np.vstack([train.points, validation.points]))
        return real_run_tram(train, validation, *args, **kwargs)

    monkeypatch.setattr(cli, "run_tram", run_tram)
    rc = main(
        [
            "tram",
            "--input", str(data),
            "--header", "yes",
            "--eps", "0.55",
            "--k", "3",
            "--seed", "4",
            "--trace-out", str(tmp_path / "trace.csv"),
        ]
    )
    assert rc == 0
    assert parsed[0].shape == (399, 2)
    assert np.array_equal(np.unique(parsed[0], axis=0), np.unique(res.data.points[1:], axis=0))


def test_gen_missing_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert no_manifest_written(tmp_path)


def test_sweep_shape_and_determinism(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs(data)
    out1, out2 = tmp_path / "lam1.csv", tmp_path / "lam2.csv"
    base = [
        "sweep",
        "--input", str(data),
        "--procedure", "coreset",
        "--n-values", "100,200",
        "--s-values", "10,20",
        "--repeats", "2",
        "--k", "3",
        "--seed", "3",
    ]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    rows1, rows2 = read_rows(out1), read_rows(out2)
    assert len(rows1) == 4
    assert [r["mean_risk"] for r in rows1] == [r["mean_risk"] for r in rows2]
    assert rows1[0]["procedure"] == "coreset"


def test_sweep_auto_header_keeps_a_quoted_numeric_first_row(tmp_path):
    data = tmp_path / "quoted.csv"
    data.write_text('"1","2"\n3,4\n5,6\n')
    rc = main(
        [
            "sweep",
            "--input", str(data),
            "--procedure", "uniform",
            "--n-values", "3",
            "--s-values", "1",
            "--repeats", "1",
            "--k", "1",
            "--out", str(tmp_path / "lam.csv"),
        ]
    )
    assert rc == 0


def test_sweep_procedures_share_interface(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs(data)
    for proc in ("uniform", "coreset"):
        out = tmp_path / f"{proc}.csv"
        rc = main(
            [
                "sweep",
                "--input", str(data),
                "--procedure", proc,
                "--n-values", "80",
                "--s-values", "8",
                "--repeats", "1",
                "--k", "3",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert read_rows(out)[0]["procedure"] == proc


def test_pareto_hand_built(tmp_path):
    lam = tmp_path / "lam.csv"
    write_lambda(lam, [
        ["uniform", 10, 1, 1, 5.0, 5.0, 1.0, 0.0, 0],
        ["uniform", 20, 1, 1, 3.0, 3.0, 1.0, 0.0, 0],
        ["uniform", 20, 2, 1, 1.0, 1.0, 9.0, 0.0, 0],
    ])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--lambda", str(lam), "--eps", "2.0", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert [(float(r["n_or_eps"]), float(r["time_s"])) for r in rows] == [
        (10.0, 5.0),
        (20.0, 3.0),
    ]
    assert all(r["source"] == "uniform" for r in rows)
    assert out.read_bytes() == b"n_or_eps,time_s,source\r\n10.0,5.0,uniform\r\n20.0,3.0,uniform\r\n"


def test_pareto_empty_feasible_set(tmp_path, capsys):
    lam = tmp_path / "lam.csv"
    write_lambda(lam, [["uniform", 10, 1, 1, 5.0, 5.0, 1.0, 0.0, 0]])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--lambda", str(lam), "--eps", "0.5", "--out", str(out)])
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert lines == ["n_or_eps,time_s,source"]


def test_pareto_eps_inf_keeps_every_record_feasible(tmp_path):
    lam = tmp_path / "lam.csv"
    write_lambda(lam, [
        ["uniform", 10, 1, 1, 5.0, 5.0, 1e300, 0.0, 0],
        ["uniform", 20, 1, 1, 3.0, 3.0, 9.0, 0.0, 0],
    ])
    out = tmp_path / "front.csv"
    assert main(["pareto", "--lambda", str(lam), "--eps", "inf", "--out", str(out)]) == 0
    assert out.read_bytes() == b"n_or_eps,time_s,source\r\n10.0,5.0,uniform\r\n20.0,3.0,uniform\r\n"


def test_pareto_modes_mutually_exclusive(tmp_path):
    lam = tmp_path / "lam.csv"
    lam.write_text("x\n")
    with pytest.raises(SystemExit) as exc:
        main(["pareto", "--lambda", str(lam), "--eps", "1", "--n", "5",
              "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert no_manifest_written(tmp_path)


def test_tram_easy_target_single_row(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs(data, n=500)
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "tram",
            "--input", str(data),
            "--eps", "1e6",
            "--k", "3",
            "--m0", "50",
            "--s0", "10",
            "--seed", "2",
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    rows = read_rows(trace)
    assert len(rows) == 1
    assert rows[0]["stopped"] == "true"
    assert (tmp_path / "trace_centers.csv").exists()
    manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
    assert manifest["error"] is None
    assert len(manifest["outputs"]) == 2


def test_tram_schedule_columns(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs(data, n=400)
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "tram",
            "--input", str(data),
            "--eps", "0.55",
            "--k", "3",
            "--m0", "20",
            "--s0", "5",
            "--seed", "4",
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    rows = read_rows(trace)
    n_train = 400 - 80  # 1/5th held out for validation
    for row in rows:
        i = int(row["i"])
        assert int(row["m"]) == min(2**i * 20, n_train)


def test_tram_delta_bounds_are_usage_errors(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs(data, n=100)
    for bad in ("0.2", "0.5"):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "tram",
                    "--input", str(data),
                    "--eps", "1.0",
                    "--delta", bad,
                    "--k", "2",
                    "--trace-out", str(tmp_path / "t.csv"),
                ]
            )
        assert exc.value.code == 2
    assert no_manifest_written(tmp_path)


def test_tram_runtime_error_writes_manifest(tmp_path):
    data = tmp_path / "data.csv"
    write_blobs(data, n=100)
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "tram",
            "--input", str(data),
            "--eps", "1.0",
            "--k", "3",
            "--m0", "5000",  # exceeds the training split
            "--s0", "5",
            "--trace-out", str(trace),
        ]
    )
    assert rc == 1
    manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
    assert manifest["error"] is not None
    assert "m0" in manifest["error"]


def test_analytic_data_time_defaults(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["analytic", "--mode", "data-time", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    for row in rows:
        x = float(row["x"])
        if x < 182:
            assert row["t_subs"] == ""
            assert row["regime"] == "data-bounded"
        else:
            assert float(row["t_subs"]) == 182.0**3
            assert row["m_star_subs"] == "182"
    # infeasible optima and a backed-off coreset's s are empty cells
    lines = out.read_bytes().split(b"\r\n")
    assert lines[:2] == [
        b"x,t_subs,t_core,m_star_subs,m_star_core,s_star_core,regime",
        b"100.0,,,,,,data-bounded",
    ]
    assert b"1000.0,6028568.0,6028568.0,182,182,,intermediate" in lines
    assert lines[-2:] == [b"1000000.0,6028568.0,1710452.0,182,12281,78,data-laden", b""]


def test_analytic_risk_time_monotone(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["analytic", "--mode", "risk-time", "--n", "2000", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    for col in ("t_subs", "t_core"):
        vals = [float(r[col]) for r in rows if r[col] != ""]
        assert vals
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_analytic_no_sigma_literal_program(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(
        ["analytic", "--mode", "data-time", "--no-sigma", "--range", "100:1000:5",
         "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    # the literal printed constraint is vacuous at eps=300: one point suffices
    assert all(float(r["t_subs"]) == 1.0 for r in rows)
    assert all(r["m_star_subs"] == "1" for r in rows)


def test_analytic_bad_range_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--mode", "data-time", "--range", "10:5:3", "--out",
              str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert no_manifest_written(tmp_path)


@pytest.mark.parametrize("flag", ["--n-values", "--s-values"])
def test_sweep_empty_value_list_is_usage_error(tmp_path, capsys, flag):
    data = tmp_path / "data.csv"
    write_blobs(data, n=100)
    values = {"--n-values": "50", "--s-values": "10", flag: ","}
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "sweep",
                "--input", str(data),
                "--n-values", values["--n-values"],
                "--s-values", values["--s-values"],
                "--k", "2",
                "--out", str(tmp_path / "lam.csv"),
            ]
        )
    assert exc.value.code == 2
    assert f"argument {flag}: expected at least one integer" in capsys.readouterr().err
    assert no_manifest_written(tmp_path)


def test_analytic_empty_range_list_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--mode", "data-time", "--range", ",", "--out",
              str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "argument --range: expected at least one number" in capsys.readouterr().err
    assert no_manifest_written(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--procedure", "uniform", "--n-values", "10", "--s-values", "5", "--out"],
        ["tram", "--eps", "1", "--trace-out"],
    ],
    ids=["sweep", "tram"],
)
def test_config_range_error_comes_before_the_input_is_read(tmp_path, argv):
    # the input does not exist: a config built after reading it never fails
    out = tmp_path / "out.csv"
    missing = str(tmp_path / "missing.csv")
    assert main([argv[0], "--input", missing, "--k", "0", *argv[1:], str(out)]) == 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["error"] == "ValueError: k must be >= 1"
    assert manifest["outputs"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--procedure", "uniform", "--n-values", "50,x", "--s-values", "10",
          "--k", "2"], "argument --n-values: expected comma-separated integers: '50,x'"),
        (["sweep", "--procedure", "uniform", "--n-values", "50", "--s-values", "1.5",
          "--k", "2"], "argument --s-values: expected comma-separated integers: '1.5'"),
        (["analytic", "--mode", "data-time", "--range", "10:x:3"],
         "argument --range: expected lo:hi:count: '10:x:3'"),
        (["analytic", "--mode", "data-time", "--range", "10:100"],
         "argument --range: expected lo:hi:count: '10:100'"),
        (["analytic", "--mode", "risk-time", "--range", "100,abc"],
         "argument --range: expected numbers: '100,abc'"),
        (["tram", "--eps", "1", "--k", "2", "--val-fraction", "0"],
         "--val-fraction must lie in (0, 1)"),
        (["tram", "--eps", "1", "--k", "2", "--val-fraction", "1"],
         "--val-fraction must lie in (0, 1)"),
        (["analytic", "--mode", "data-time", "--range", "nan:1000:3"],
         "argument --range: bad range 'nan:1000:3'"),
        (["analytic", "--mode", "data-time", "--range", "10:inf:3"],
         "argument --range: bad range '10:inf:3'"),
        (["analytic", "--mode", "data-time", "--range", "inf,5"],
         "argument --range: expected positive finite numbers: 'inf,5'"),
        (["analytic", "--mode", "risk-time", "--range", "100,nan"],
         "argument --range: expected positive finite numbers: '100,nan'"),
        (["analytic", "--mode", "data-time", "--range=-5,10"],
         "argument --range: expected positive finite numbers: '-5,10'"),
        (["analytic", "--mode", "risk-time", "--range", "0,10"],
         "argument --range: expected positive finite numbers: '0,10'"),
        (["pareto", "--lambda", "lam.csv", "--eps", "nan"], "--eps must be >= 0"),
        (["pareto", "--lambda", "lam.csv", "--eps", "-1"], "--eps must be >= 0"),
        (["pareto", "--lambda", "lam.csv", "--n", "0"], "--n must be >= 1"),
        (["pareto", "--lambda", "lam.csv", "--n", "-4"], "--n must be >= 1"),
        (["sweep", "--procedure", "uniform", "--n-values", "50", "--s-values", "10",
          "--k", "2", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    ],
    ids=["int-list-token", "int-list-float", "range-token", "range-two-parts",
         "number-list-token", "val-fraction-0", "val-fraction-1", "range-nan-lo",
         "range-inf-hi", "range-list-inf", "range-list-nan", "range-list-negative",
         "range-list-zero", "pareto-eps-nan", "pareto-eps-negative", "pareto-n-0",
         "pareto-n-negative", "sweep-jobs-removed"],
)
def test_bad_flag_value_is_usage_error_without_manifest(tmp_path, capsys, argv, message):
    # the usage error comes before the input is read, so it need not exist
    out = str(tmp_path / "out.csv")
    if argv[0] in ("analytic", "pareto"):
        argv = argv + ["--out", out]
    else:
        argv = argv[:1] + ["--input", str(tmp_path / "data.csv")] + argv[1:]
        argv += ["--trace-out" if argv[0] == "tram" else "--out", out]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert no_manifest_written(tmp_path)


def test_pareto_n_writes_the_risk_time_frontier(tmp_path):
    lam = tmp_path / "lam.csv"
    write_lambda(lam, [
        ["uniform", 10, 1, 1, 5.0, 5.0, 4.0, 0.0, 0],
        ["uniform", 20, 1, 1, 3.0, 3.0, 2.0, 0.0, 0],
        ["uniform", 20, 2, 1, 1.0, 1.0, 9.0, 0.0, 0],
        ["coreset", 40, 1, 1, 0.5, 0.5, 1.0, 0.0, 0],
    ])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--lambda", str(lam), "--n", "20", "--out", str(out)])
    assert rc == 0
    # records with n <= 20 only, so the coreset procedure has no frontier
    assert out.read_bytes() == (
        b"n_or_eps,time_s,source\r\n"
        b"2.0,3.0,uniform\r\n4.0,3.0,uniform\r\n9.0,1.0,uniform\r\n"
    )
    manifest = json.loads((tmp_path / "front.manifest.json").read_text())
    assert manifest["parameters"]["n"] == 20 and manifest["parameters"]["eps"] is None


@pytest.mark.parametrize(
    "mode, text, xs",
    [
        ("data-time", "150.5,100,100", [100, 151]),
        ("risk-time", "500,250.5,", [500.0, 250.5]),
    ],
    ids=["data-time", "risk-time"],
)
def test_analytic_comma_range_is_the_list_of_x(tmp_path, mode, text, xs):
    out = tmp_path / "curve.csv"
    assert main(["analytic", "--mode", mode, "--range", text, "--out", str(out)]) == 0
    want = analytic_curves(AnalyticParams(), mode.replace("-", "_"), xs)
    rows = read_rows(out)
    assert [float(r["x"]) for r in rows] == [pt.x for pt in want] == [float(x) for x in xs]
    assert [r["t_core"] for r in rows] == [
        "" if pt.coreset.t is None else repr(pt.coreset.t) for pt in want
    ]
    assert [r["regime"] for r in rows] == [pt.regime for pt in want]
    manifest = json.loads((tmp_path / "curve.manifest.json").read_text())
    assert manifest["parameters"]["range"] == [float(v) for v in text.split(",") if v]


# minimal command lines: only the required flags
_MINIMAL_ARGV = {
    "gen": ["gen", "--n", "10", "--out", "x.csv"],
    "sweep": ["sweep", "--input", "x.csv", "--procedure", "uniform", "--n-values", "1",
              "--s-values", "1", "--k", "1", "--out", "y.csv"],
    "tram": ["tram", "--input", "x.csv", "--eps", "1", "--k", "1", "--trace-out", "y.csv"],
    "analytic": ["analytic", "--mode", "data-time", "--out", "y.csv"],
}


def test_flag_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    flags = {cmd: vars(parser.parse_args(argv)) for cmd, argv in _MINIMAL_ARGV.items()}
    # the fields the commands fill from flags of another name
    flags["gen"]["box"] = (flags["gen"]["box_low"], flags["gen"]["box_high"])
    flags["tram"].update(eps_total=flags["tram"]["eps"], B=flags["tram"]["ball_radius"])
    flags["analytic"].update(
        eps_total=flags["analytic"]["eps"], use_sigma=not flags["analytic"]["no_sigma"]
    )
    differ, checked = set(), 0
    for cmd, cls in [("gen", SyntheticSpec), ("sweep", SweepGrid), ("sweep", SolverConfig),
                     ("tram", TramParams), ("tram", SolverConfig), ("analytic", AnalyticParams)]:
        for f in fields(cls):
            if f.default is not MISSING:
                checked += 1
                if flags[cmd][f.name] != f.default:
                    differ.add((cmd, cls.__name__, f.name))
    assert checked == 33
    # stated on purpose by the CLI: two restarts against the library's one,
    # and a delta that TramParams leaves to its caller
    assert differ == {("sweep", "SolverConfig", "restarts"), ("tram", "SolverConfig", "restarts")}
    assert flags["sweep"]["restarts"] == flags["tram"]["restarts"] == 2
    assert next(f for f in fields(TramParams) if f.name == "delta").default is MISSING
    assert flags["tram"]["delta"] == 0.1
    fixed_n = inspect.signature(analytic_curves).parameters["fixed_n"].default
    assert flags["analytic"]["n"] == fixed_n


def test_every_float_flag_rejects_nan(tmp_path):
    # each command line exits 0 as it stands; with any one float flag (or
    # --range) set to NaN it must exit non-zero and write no output
    data = tmp_path / "data.csv"
    write_blobs(data, n=300)
    lam = tmp_path / "lam.csv"
    write_lambda(lam, [["uniform", 10, 1, 1, 5.0, 5.0, 1.0, 0.0, 0]])
    base = {
        "gen": ["gen", "--n", "20", "--d", "2", "--k-true", "2", "--out"],
        "sweep": ["sweep", "--input", str(data), "--procedure", "uniform", "--n-values", "50",
                  "--s-values", "10", "--repeats", "1", "--k", "2", "--out"],
        "pareto": ["pareto", "--lambda", str(lam), "--eps", "1e9", "--out"],
        "tram": ["tram", "--input", str(data), "--eps", "1e6", "--k", "3", "--m0", "50",
                 "--s0", "10", "--trace-out"],
        "analytic": ["analytic", "--mode", "risk-time", "--range", "300,500", "--out"],
    }

    def run(cmd, extra, name):
        # the exit code and the names of the files written
        work = tmp_path / name
        work.mkdir()
        try:
            code = main([*base[cmd], str(work / "out.csv"), *extra])
        except SystemExit as exc:
            code = exc.code
        return code, {p.name for p in work.iterdir()}

    for cmd in base:
        code, files = run(cmd, [], cmd)
        assert code == 0 and "out.csv" in files, cmd
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    walked = [
        (cmd, action.option_strings[0])
        for cmd, sub in subs.choices.items()
        for action in sub._actions
        if action.type in (float, cli._range_spec)
    ]
    assert len(walked) == 22
    for cmd, flag in walked:
        code, files = run(cmd, [flag, "nan"], f"{cmd}{flag}")
        assert code != 0 and files <= {"out.manifest.json"}, (cmd, flag, code, files)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_config_fills_every_other_field_from_its_flag():
    args = argparse.Namespace(k=3, max_iters=7, rel_tol=0.5, restarts=2, seed=9,
                              procedure="uniform")
    assert cli._config(SolverConfig, args, seed=1) == SolverConfig(
        k=3, max_iters=7, rel_tol=0.5, restarts=2, seed=1
    )
    # a field with no flag of its name is an error, not its default
    del args.max_iters
    with pytest.raises(AttributeError, match="max_iters"):
        cli._config(SolverConfig, args)
