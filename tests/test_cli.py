import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subbandeq.cli import (
    CONFIG_DEFAULTS, CSV_BLOCK_ROWS, _write_csv, load_config, main, solver_config,
)
from subbandeq.equilibrium import SolverConfig, solve_equilibrium
from subbandeq.grid import Grid
from subbandeq.verify import run_verification

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


def test_import_does_not_load_scipy(run_python):
    res = run_python("-c", "import sys, subbandeq.cli; print('scipy' in sys.modules)")
    assert res.stdout.strip() == "False"


def test_seeded_commands_load_no_rng_or_crypto_stack(tmp_path, run_python):
    # numpy.random imports secrets -> hmac -> hashlib -> _hashlib (OpenSSL)
    cfg = write_config(tmp_path, {**FAST, "init": {"kind": "random", "seed": 1},
                                  "verify": {"n_pairs": 2, "n_perturbations": 2}})
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from subbandeq.cli import main\n"
        "runs = (['sweep', '--param', 'M', '--values', '0.5,1'],\n"
        "        ['verify', '--seed', '99999999999999999999'])\n"
        f"rcs = [main(argv + ['--config', {cfg!r}, '--out', {out!r}]) for argv in runs]\n"
        "print(rcs, sorted({'numpy.random', 'secrets', 'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == "[0, 0] []"


def test_runtime_without_scipy(tmp_path, run_python):
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
    assert run_python("-c", code).stdout.splitlines()[-1] == "[0, 0, 0, 0]"


def test_config_defaults_match_the_library_defaults(tmp_path):
    # CONFIG_DEFAULTS and the defaults of SolverConfig and run_verification
    # are two homes of the same facts
    assert solver_config(load_config(write_config(tmp_path, {}))) == SolverConfig()
    params = inspect.signature(run_verification).parameters
    assert {key: params[key].default for key in CONFIG_DEFAULTS["verify"]} == CONFIG_DEFAULTS["verify"]


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

    def test_fuzz_matches_per_value_format(self, tmp_path):
        # seeded values of every class the fast path must get right or hand
        # back to FLOAT_FMT, compared one value at a time
        rng = np.random.default_rng(20)
        info = np.iinfo(np.int64)
        pow10 = 10.0 ** np.arange(-307, 309)
        limits = np.array([1e-6, 1e16, 1e17, 2.0**53, 2.0**56])
        odd = rng.integers(4 * 10**15, 9 * 10**15, 20_000) | 1
        classes = {
            "int64 bit patterns":
                rng.integers(info.min, info.max, 60_000, endpoint=True).view(np.float64),
            "normal * 10^[-12, 20)":
                rng.standard_normal(40_000) * 10.0 ** rng.integers(-12, 20, 40_000),
            # exact doubles (odd m) / 4 and (odd m) / 8 whose 18th significant digit is a final 5
            "18th-digit ties": np.concatenate([odd / 4.0, odd[odd < 8 * 10**15] / 8.0]),
            "10^k and neighbours":
                np.concatenate([np.nextafter(pow10, 0.0), pow10, np.nextafter(pow10, np.inf)]),
            "zeros, subnormals, inf, nan": np.concatenate([
                [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0**-1022, np.nextafter(2.0**-1022, 0.0)],
                rng.integers(1, 2**52, 10_000).view(np.float64)]),
            "3-digit exponents":
                rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-323, 308, 20_000),
            "fast-path limits": np.concatenate([
                limits + np.arange(-64, 65)[:, None] * np.spacing(limits),
                limits * (1.0 + rng.uniform(-1e-3, 1e-3, (2000, 1)))]).ravel(),
        }
        values = np.concatenate([np.concatenate([v, -v]) for v in classes.values()])
        assert values.size >= 200_000
        _write_csv(tmp_path / "t.csv", ["v"], values)
        got = (tmp_path / "t.csv").read_text().splitlines()[1:]
        want = ["%.16e" % v for v in values.tolist()]
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, bad[:5]

    def test_signed_zeros_stay_apart_in_a_mixed_block(self, tmp_path):
        v = np.array([0.0, -0.0, 1.5, -1.5, -0.0, 0.0, 2.5e-3, -2.5e-3])
        _write_csv(tmp_path / "t.csv", ["v", "k"], v, np.arange(v.size))
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[1:3] == ["0.0000000000000000e+00,0", "-0.0000000000000000e+00,1"]
        assert lines[5:7] == ["-0.0000000000000000e+00,4", "0.0000000000000000e+00,5"]
        expected = reference_csv(["v", "k"], zip(v, range(v.size)))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

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
        assert state["rejected_trials"] == 0
        assert json.dumps(state, sort_keys=True, indent=2) + "\n" == raw

    def test_converged_start_reports_its_residual(self, tmp_path):
        # the zero start already meets fp_tol at this small mass: no step is taken
        cfg = write_config(
            tmp_path, {"M_target": 1e-5, "fp_tol": 1e-3, "grid": {"ny1": 6, "ny2": 6, "nz": 16}}
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["converged"] is True and state["iterations"] == 0
        assert isinstance(state["residual"], float) and 0.0 < state["residual"] <= 1e-3
        assert abs(state["mass"] - 1e-5) <= 1e-8 * 1e-5

    @pytest.mark.parametrize(
        "extra",
        [{"M_target": 1e-300}, {"M_target": 1e-12},
         {"vext": {"kind": "zwell", "amplitude": 1e20}},
         {"vext": {"kind": "bump", "amplitude": 1e20}}],
        ids=["M_1e-300", "M_1e-12", "zwell_1e20", "bump_1e20"],
    )
    def test_unresolvable_mass_exit_1_without_state(self, tmp_path, capsys, extra):
        # the mass function cannot resolve M to 1e-8 relative near these mu:
        # no state that misses its mass is written
        cfg = write_config(tmp_path, {**extra, "grid": {"ny1": 4, "ny2": 4, "nz": 8}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "target mass M = " in err
        assert not (out / "state.json").exists()

    def test_rejected_trials_written(self, tmp_path, monkeypatch):
        import subbandeq.cli as cli

        real = cli.solve_equilibrium

        def solve_with_rejections(cfg):
            state, trace = real(cfg)
            trace.rejected_trials = 3
            trace.predicted_steps = 5
            return state, trace

        monkeypatch.setattr(cli, "solve_equilibrium", solve_with_rejections)
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, FAST), "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["rejected_trials"] == 3 and state["predicted_steps"] == 5

    @pytest.mark.parametrize("command", [["solve"], ["verify"], ["sweep", "--param", "M",
                                                                 "--values", "1e-300"]])
    def test_failed_solve_leaves_no_output_directory(self, tmp_path, capsys, command):
        # the output directory is created just before the first write
        cfg = write_config(tmp_path, {"M_target": 1e-300, "grid": {"ny1": 4, "ny2": 4, "nz": 8}})
        out = tmp_path / "out"
        assert main([command[0], "--config", cfg, "--out", str(out), *command[1:]]) == 1
        assert "target mass M = " in capsys.readouterr().err
        assert not out.exists()

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

    def test_csv_bytes_match_per_value_reference(self, tmp_path, monkeypatch):
        # the arrays and trace lists the solve returned to the CLI, formatted
        # value by value: pins the columns of every file as well as the writer
        import subbandeq.cli as cli

        returned = []

        def solve_and_keep(cfg):
            returned.append((cfg, *solve_equilibrium(cfg)))
            return returned[-1][1:]

        monkeypatch.setattr(cli, "solve_equilibrium", solve_and_keep)
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        (solver_cfg, state, trace), = returned
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
            # JSON true would pass as the number 1
            ("solve", {"M_target": True}, "config error: M_target must not be a boolean"),
            ("solve", {"max_outer": True}, "config error: max_outer must not be a boolean"),
            ("verify", {"verify": {"n_pairs": True}},
             "config error: verify.n_pairs must not be a boolean"),
            # a string stands only where the default is one, and no key takes null
            ("solve", {"M_target": "1"}, "config error: M_target must be a number"),
            ("solve", {"grid": {"nz": "8"}}, "config error: grid.nz must be an integer"),
            ("solve", {"vext": {"kind": 5}}, "config error: vext.kind must be a string"),
            ("solve", {"max_outer": None}, "config error: max_outer must be an integer"),
            # beyond the float range, so float() of it overflows
            ("solve", {"max_outer": 10**400}, "config error: max_outer must be an integer"),
            ("solve", {"grid": 5}, "config error: section 'grid' must be an object"),
            ("solve", {"max_outer": 0},
             "config error: invalid configuration: max_outer must be at least 1"),
        ],
        ids=["nz", "max_outer", "n_pairs", "n_pairs_0", "n_perturbations_0",
             "M_target_true", "max_outer_true", "n_pairs_true",
             "M_target_string", "nz_string", "vext_kind_number", "max_outer_null",
             "max_outer_400_digits", "grid_not_object", "max_outer_0"],
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
            # V_ext >= 0 underlies the mu bound, the subband bound and the stability gap
            ("verify", {"vext": {"kind": "zwell", "amplitude": -40.0}}, []),
        ],
        ids=["verify_seed", "sweep_value", "init_seed", "vext_amplitude",
             "vext_amplitude_negative"],
    )
    def test_invalid_input_rejected_before_any_work(self, tmp_path, capsys, command, extra, args):
        cfg = write_config(tmp_path, {**FAST, **extra})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_top_level_array_exit_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(tmp_path, []), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert (
            main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == 1
        )


class TestArguments:
    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--out", "o", "--param", "M", "--values", "abc"],
            ["verify", "--out", "o", "--seed", "x"],
            ["solve"],
        ],
        ids=["sweep_values", "verify_seed", "solve_without_out"],
    )
    def test_argument_error_exit_1(self, tmp_path, monkeypatch, capsys, args):
        # exit 2 means "did not converge"; an argument error is bad input
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FAST)
        assert main([*args, "--config", cfg]) == 1
        assert "error: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1
        assert "required: command" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--help"], ["sweep", "--help"]], ids=["main", "sweep"])
    def test_help_exit_0(self, capsys, args):
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("usage: subbandeq")


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

    def test_byte_identical_across_blas_thread_counts(self, tmp_path, run_python):
        cfg = write_config(tmp_path, self.VCFG)
        reports = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            run_python("-m", "subbandeq.cli", "verify", "--config", cfg, "--out", str(out),
                       threads=threads, timeout=300)
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

    def test_nonconvergence_exit_2_without_output(self, tmp_path, capsys):
        # the first value stops the sweep before any row is written
        cfg = write_config(tmp_path, {
            "grid": {"ny1": 6, "ny2": 6, "nz": 16}, "vext": {"kind": "zwell", "amplitude": 8.0},
            "init": {"kind": "random", "seed": 1}, "max_outer": 1,
        })
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--param", "M",
                     "--values", "10,160"]) == 2
        assert capsys.readouterr().err == "sweep value 10.0 did not converge\n"
        assert not out.exists()

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
