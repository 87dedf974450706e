import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import subbandeq
from subbandeq.cli import (
    CONFIG_DEFAULTS, CSV_BLOCK_ROWS, _write_csv, load_config, main, solver_config,
)
from subbandeq.equilibrium import solve_equilibrium
from subbandeq.grid import Grid

MINIMAL = {"M_target": 1.0}

FAST = {
    "M_target": 0.5,
    "grid": {"ny1": 6, "ny2": 6, "nz": 16},
    "vext": {"kind": "zwell", "amplitude": 4.0},
    "fp_tol": 1e-9,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def reference_csv(header, rows):
    """CSV text formatted value by value: %.16e for floats, str for integers."""

    def fmt(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else "%.16e" % float(v)

    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def run_python(code):
    src = str(Path(subbandeq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)


def test_import_does_not_load_scipy():
    res = run_python("import sys, subbandeq.cli; print('scipy' in sys.modules)")
    assert res.stdout.strip() == "False"


def test_runtime_without_scipy(tmp_path):
    # None in sys.modules makes every "import scipy..." raise ImportError.
    cfg = write_config(tmp_path, {**FAST, "verify": {"n_pairs": 2, "n_perturbations": 2}})
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from subbandeq.cli import main\n"
        "runs = (['solve'], ['sweep', '--param', 'M', '--values', '0.5,1'], ['verify'])\n"
        f"runs = [argv + ['--config', {cfg!r}] for argv in runs] + [['validate']]\n"
        f"print([main(argv + ['--out', {out!r}]) for argv in runs])\n"
    )
    assert run_python(code).stdout.splitlines()[-1] == "[0, 0, 0, 0]"


def test_readme_config_reference_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Full reference:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == CONFIG_DEFAULTS


class TestWriteCsv:
    def test_blocks_and_edge_values_match_per_value_reference(self, tmp_path):
        # 2.5 blocks of rows; values repeat within and across blocks, and
        # 0.0 / -0.0 (equal values, different text) share every block
        rng = np.random.default_rng(5)
        shape = (8, 40, CSV_BLOCK_ROWS // 128)
        edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, 1e-300, -1e-300]
        pool = np.array(edges + list(rng.standard_normal(20)))
        a = np.linspace(-1.0, 1.0, shape[0])[:, None, None]
        b = rng.choice([0.0, -0.0, 0.5, -1e300], shape[1])[None, :, None]
        k = np.arange(shape[2]) - 3
        v = rng.choice(pool, shape)
        header = ["a", "b", "k", "v"]
        _write_csv(tmp_path / "t.csv", header, a, b, k, v)
        rows = [(a[i, 0, 0], b[0, j, 0], k[m], v[i, j, m]) for i, j, m in np.ndindex(shape)]
        assert len(rows) == 2.5 * CSV_BLOCK_ROWS
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, rows).encode()

    def test_zero_rows_writes_header_only(self, tmp_path):
        _write_csv(tmp_path / "t.csv", ["iter", "residual"], np.arange(1, 1), [])
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(["iter", "residual"], []).encode()

    def test_working_set_bounded_by_block(self, tmp_path):
        # fields.csv at 24x24x64 and 48x48x64, columns passed as the solve
        # passes them: the writer's peak is that of one block, not of the table
        rng = np.random.default_rng(0)
        U, rho = rng.standard_normal((2, 24, 24, 65))
        peaks = []
        for ny in (24, 48):
            g = Grid(ny, ny, 64)
            reps = (ny // 24, ny // 24, 1)
            columns = (g.y1_nodes()[:, None, None], g.y2_nodes()[None, :, None], g.z_nodes(),
                       np.tile(U, reps), np.tile(rho, reps))
            tracemalloc.start()
            try:
                _write_csv(tmp_path / "fields.csv", ["y1", "y2", "z", "U", "rho"], *columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestSolve:
    def test_minimal_config_writes_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {**MINIMAL, "grid": {"ny1": 6, "ny2": 6, "nz": 16}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for name in ("state.json", "fields.csv", "spectrum.csv", "trace.csv"):
            assert (out / name).exists(), name
        raw = (out / "state.json").read_text()
        state = json.loads(raw)
        assert state["converged"] is True
        assert state["mass"] == pytest.approx(1.0, rel=1e-8)
        assert state["residual"] <= 1e-8
        assert state["top_band_margin"] > 0.0
        assert state["theta_min_rises"] == 0
        assert state["anderson_rejections"] == 0
        assert json.dumps(state, sort_keys=True, indent=2) + "\n" == raw

    def test_converged_start_reports_its_residual(self, tmp_path):
        # the zero start already meets fp_tol at this tiny mass: no step is taken
        cfg = write_config(tmp_path, {"M_target": 1e-12, "grid": {"ny1": 6, "ny2": 6, "nz": 16}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["converged"] is True and state["iterations"] == 0
        assert isinstance(state["residual"], float) and state["residual"] <= 1e-8

    def test_theta_min_rises_noted_on_stderr(self, tmp_path, capsys, monkeypatch):
        import subbandeq.cli as cli

        real = cli.solve_equilibrium

        def solve_with_rises(cfg):
            state, trace = real(cfg)
            trace.theta_min_rises = 2
            return state, trace

        monkeypatch.setattr(cli, "solve_equilibrium", solve_with_rises)
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, FAST), "--out", str(out)]) == 0
        assert "2 step(s) accepted at theta_min" in capsys.readouterr().err
        assert json.loads((out / "state.json").read_text())["theta_min_rises"] == 2

    def test_anderson_rejections_written(self, tmp_path, monkeypatch):
        import subbandeq.cli as cli

        real = cli.solve_equilibrium

        def solve_with_rejections(cfg):
            state, trace = real(cfg)
            trace.anderson_rejections = 3
            return state, trace

        monkeypatch.setattr(cli, "solve_equilibrium", solve_with_rejections)
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, FAST), "--out", str(out)]) == 0
        assert json.loads((out / "state.json").read_text())["anderson_rejections"] == 3

    def test_csv_round_trip_doubles(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "y1,y2,z,U,rho"
        values = np.loadtxt(lines[1:], delimiter=",")
        state = json.loads((out / "state.json").read_text())
        # lossless: mass recomputed from the CSV density matches state.json
        g = FAST["grid"]
        hy = 1.0 / (g["ny1"] + 1)
        nz = g["nz"]
        rho = values[:, 4].reshape(g["ny1"], g["ny2"], nz + 1)
        wz = np.full(nz + 1, 1.0 / nz)
        wz[0] = wz[-1] = 0.5 / nz
        mass = np.sum(rho * wz) * hy * hy
        assert mass == pytest.approx(state["mass"], rel=1e-15)

    def test_csv_bytes_match_per_value_reference(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        solver_cfg = solver_config(load_config(cfg))
        state, trace = solve_equilibrium(solver_cfg)
        g = solver_cfg.grid
        y1, y2, z = g.y1_nodes(), g.y2_nodes(), g.z_nodes()
        U, rho, lam = state.U, state.rho, state.spectrum.lam
        lateral = [(i, k) for i in range(g.ny1) for k in range(g.ny2)]
        expected = {
            "fields.csv": reference_csv(
                ["y1", "y2", "z", "U", "rho"],
                [(y1[i], y2[k], z[m], U[i, k, m], rho[i, k, m])
                 for i, k in lateral for m in range(g.nz + 1)],
            ),
            "spectrum.csv": reference_csv(
                ["y1", "y2", "j", "lambda"],
                [(y1[i], y2[k], j + 1, lam[i, k, j])
                 for i, k in lateral for j in range(state.spectrum.J)],
            ),
            "trace.csv": reference_csv(
                ["iter", "residual", "mu", "F", "theta"],
                [(n + 1, *row) for n, row in enumerate(
                    zip(trace.residuals, trace.mus, trace.free_energies, trace.thetas))],
            ),
        }
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode(), name

    def test_entropy_power_near_one_converges(self, tmp_path):
        # q = 1/(p - 1) = 1000: the gap profiles must not form T^q or a^q
        cfg = write_config(tmp_path, {**FAST, "T": 0.2, "beta_p": 1.001})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["converged"] is True
        assert state["mass"] == pytest.approx(0.5, rel=1e-8)

    def test_nonconvergence_exit_2_with_trace(self, tmp_path):
        cfg = write_config(tmp_path, {**FAST, "max_outer": 1})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert len((out / "trace.csv").read_text().splitlines()) == 2  # header + 1 row

    def test_malformed_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "extra",
        [{"bogus": 2}, {"poisson_tol": 1e-10}, {"verify": {"unsorted_probe": False}},
         {"theta": 0.5}, {"j_margin": 2}],
        ids=["bogus", "poisson_tol", "unsorted_probe", "theta", "j_margin"],
    )
    def test_unknown_key_exit_1(self, tmp_path, extra):
        cfg = write_config(tmp_path, {"M_target": 1.0, **extra})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            {"fp_tol": float("inf")},
            {"fp_tol": float("nan")},
            {"M_target": float("inf")},
            {"T": float("inf")},
            {"beta_p": float("inf")},
            {"grid": {**FAST["grid"], "L1": float("inf")}},
            {"grid": {**FAST["grid"], "L2": float("inf")}},
        ],
        ids=["inf", "nan", "M_target", "T", "beta_p", "L1", "L2"],
    )
    def test_nonfinite_fp_tol_exit_1(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, {**FAST, **extra})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("solve", {"grid": {"ny1": 6, "ny2": 6, "nz": 16.9}}, "must be an integer"),
            ("solve", {"max_outer": 2.7}, "must be an integer"),
            ("verify", {"verify": {"n_pairs": 1.5}}, "must be an integer"),
            ("verify", {"verify": {"n_pairs": 0}},
             "config error: verify.n_pairs must be at least 1"),
            ("verify", {"verify": {"n_perturbations": 0}},
             "config error: verify.n_perturbations must be at least 1"),
        ],
        ids=["nz", "max_outer", "n_pairs", "n_pairs_0", "n_perturbations_0"],
    )
    def test_non_integral_key_exit_1(self, tmp_path, capsys, command, extra, message):
        cfg = write_config(tmp_path, {**FAST, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, extra, args",
        [
            ("verify", {"verify": {"n_pairs": 1, "n_perturbations": 1}}, ["--seed", "-1"]),
            ("sweep", {}, ["--param", "M", "--values", "10,-1"]),
            ("solve", {"init": {"kind": "random", "seed": -3}}, []),
            ("solve", {"vext": {"kind": "zwell", "amplitude": float("inf")}}, []),
        ],
        ids=["verify_seed", "sweep_value", "init_seed", "vext_amplitude"],
    )
    def test_invalid_input_rejected_before_any_work(self, tmp_path, capsys, command, extra, args):
        cfg = write_config(tmp_path, {**FAST, **extra})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert (
            main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == 1
        )


class TestVerify:
    VCFG = {**FAST, "verify": {"n_pairs": 2, "n_perturbations": 2}}

    def test_report_written_and_passes(self, tmp_path):
        cfg = write_config(tmp_path, self.VCFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "42"]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["seed"] == 42
        names = {c["name"] for c in report["checks"]}
        assert {"weighted_l1", "coercivity", "stability_gap", "uniqueness"} <= names
        assert all(c["pass"] for c in report["checks"])
        for c in report["checks"]:
            assert set(c) == {"name", "pass", "lhs", "rhs", "ratio", "details"}

    def test_nonconvergence_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**self.VCFG, "max_outer": 1})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "did not converge" in capsys.readouterr().err

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, self.VCFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        b1 = (out1 / "verify_report.json").read_bytes()
        b2 = (out2 / "verify_report.json").read_bytes()
        assert b1 == b2

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        cfg = write_config(tmp_path, self.VCFG)
        src = str(Path(subbandeq.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            subprocess.run(
                [sys.executable, "-m", "subbandeq.cli", "verify", "--config", cfg, "--out", str(out)],
                env=env,
                check=True,
                timeout=300,
            )
            reports.append((out / "verify_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_json_round_trip_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.VCFG)
        out = tmp_path / "out"
        main(["verify", "--config", cfg, "--out", str(out)])
        raw = (out / "verify_report.json").read_text()
        assert json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n" == raw


class TestValidate:
    def test_validate_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", "--out", str(out)]) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["pass"] is True
        assert report["eigensolver"]["max_relative_error"] <= 1e-12
        ratios = report["poisson_convergence"]["error_ratios"]
        assert all(3.5 <= r <= 4.5 for r in ratios)
        assert report["occupancy_profiles"]["max_abs_difference"] <= 1e-10


class TestSweep:
    def test_mass_sweep_monotone_mu(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "M",
             "--values", "0.25,0.5,1.0"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,mu,J_active,F_total,iterations"
        rows = np.loadtxt(lines[1:], delimiter=",")
        assert rows.shape[0] == 3
        assert np.all(np.diff(rows[:, 1]) >= 0.0)  # mu nondecreasing in M

    def test_monotonicity_judged_in_increasing_mass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "M",
             "--values", "1.0,0.25,0.5"]
        )
        assert code == 0
        assert "mu monotone nondecreasing in M: True" in capsys.readouterr().out
        rows = np.loadtxt((out / "sweep.csv").read_text().splitlines()[1:], delimiter=",")
        assert rows[:, 0].tolist() == [1.0, 0.25, 0.5]  # rows keep the given order

    def test_csv_bytes_match_per_value_reference(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "M",
             "--values", "0.25,0.5"]
        )
        assert code == 0
        rows = []
        for value in (0.25, 0.5):
            state, trace = solve_equilibrium(solver_config({**load_config(cfg), "M_target": value}))
            rows.append((value, state.mu, state.j_active, state.energy.total_direct, trace.iterations))
        expected = reference_csv(["value", "mu", "J_active", "F_total", "iterations"], rows)
        assert (out / "sweep.csv").read_bytes() == expected.encode()

    def test_empty_values_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST)
        assert (
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--param", "M", "--values", ""])
            == 1
        )
        assert capsys.readouterr().err.startswith("config error: ")

    def test_bad_param_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST)
        assert (
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--param", "Q", "--values", "1.0"])
            == 1
        )
        assert capsys.readouterr().err.startswith("config error: ")

    def test_temperature_sweep(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "T",
             "--values", "0.0,0.2"]
        )
        assert code == 0
        rows = np.loadtxt(
            (out / "sweep.csv").read_text().splitlines()[1:], delimiter=","
        )
        assert rows.shape == (2, 5)
        assert rows[0, 0] == 0.0 and rows[1, 0] == 0.2

    def test_single_value_matches_solve(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out_sweep = tmp_path / "sw"
        out_solve = tmp_path / "sv"
        main(["sweep", "--config", cfg, "--out", str(out_sweep), "--param", "M",
              "--values", "0.5"])
        main(["solve", "--config", cfg, "--out", str(out_solve)])
        row = (out_sweep / "sweep.csv").read_text().splitlines()[1].split(",")
        state = json.loads((out_solve / "state.json").read_text())
        assert float(row[1]) == state["mu"]
