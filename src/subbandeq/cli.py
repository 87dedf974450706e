"""Command line: solve, verify, validate, sweep.

Configuration is a single JSON file; every key has a default, so the
minimal config is {"M_target": 1.0}.  All outputs are deterministic
functions of (config, seed): CSV columns are written in scientific
notation with 17 significant digits (lossless doubles) and JSON reports
re-serialize byte-identically.  The CSV writer takes numpy columns that
broadcast together (node axes are never expanded to the full grid) and
formats each distinct bit pattern once per block of rows; the bytes are
those of formatting every value in turn.  Exit codes: 0 on success, 1 on
bad input or a failed check, 2 when a solve does not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .equilibrium import NonConvergence, SolverConfig, solve_equilibrium
from .grid import Grid
from .occupancy import OccupancyModel
from .validation import run_validation
from .verify import run_verification

FLOAT_FMT = "%.16e"
# Rows per formatted block: bounds the transient text at a few hundred kB.
CSV_BLOCK_ROWS = 4096

CONFIG_DEFAULTS = {
    "M_target": 1.0,
    "T": 0.0,
    "beta_p": 2.0,
    "grid": {"ny1": 16, "ny2": 16, "nz": 32, "L1": 1.0, "L2": 1.0},
    "vext": {"kind": "zero", "amplitude": 8.0},
    "fp_tol": 1e-8,
    "max_outer": 300,
    "init": {"kind": "zero", "seed": 0},
    "verify": {"n_pairs": 10, "n_perturbations": 12},
}


class ConfigError(ValueError):
    pass


def _not_boolean(value, key: str):
    """The value, unless it is a boolean: no key takes one, and JSON true would pass as 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must not be a boolean, got {json.dumps(value)}")
    return value


def _merge_section(name: str, user: dict) -> dict:
    merged = dict(CONFIG_DEFAULTS[name])
    for key, val in user.items():
        if key not in merged:
            raise ConfigError(f"unknown key {name}.{key!r}")
        merged[key] = _not_boolean(val, f"{name}.{key}")
    return merged


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    merged = {}
    for key, default in CONFIG_DEFAULTS.items():
        if isinstance(default, dict):
            user = raw.get(key, {})
            if not isinstance(user, dict):
                raise ConfigError(f"section {key!r} must be an object")
            merged[key] = _merge_section(key, user)
        else:
            merged[key] = _not_boolean(raw.get(key, default), key)
    unknown = set(raw) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return merged


def _integer(value, key: str) -> int:
    """An integral config value as int; anything else is a ConfigError, never truncated."""
    try:
        if int(value) == float(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def solver_config(cfg: dict) -> SolverConfig:
    g = cfg["grid"]
    try:
        return SolverConfig(
            M_target=float(cfg["M_target"]),
            model=OccupancyModel(T=float(cfg["T"]), p=float(cfg["beta_p"])),
            grid=Grid(
                ny1=_integer(g["ny1"], "grid.ny1"),
                ny2=_integer(g["ny2"], "grid.ny2"),
                nz=_integer(g["nz"], "grid.nz"),
                L1=float(g["L1"]),
                L2=float(g["L2"]),
            ),
            vext_kind=str(cfg["vext"]["kind"]),
            vext_amplitude=float(cfg["vext"]["amplitude"]),
            fp_tol=float(cfg["fp_tol"]),
            max_outer=_integer(cfg["max_outer"], "max_outer"),
            init_kind=str(cfg["init"]["kind"]),
            init_seed=_integer(cfg["init"]["seed"], "init.seed"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """One row per element of the columns broadcast together, in C order.

    Float columns are written with FLOAT_FMT and integer columns with %d.
    Rows go out in blocks of CSV_BLOCK_ROWS, gathered from the broadcast
    views, so no column is copied at full size.  Within a block each
    distinct bit pattern of a column is formatted once (bits, not values:
    -0.0 and 0.0 compare equal but print differently) and its text is
    gathered into the rows.
    """
    cols = np.broadcast_arrays(*columns)
    fmts = ["%d" if c.dtype.kind in "iu" else FLOAT_FMT for c in cols]
    shape, size = cols[0].shape, cols[0].size
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, size, CSV_BLOCK_ROWS):
            rows = np.unravel_index(np.arange(start, min(start + CSV_BLOCK_ROWS, size)), shape)
            texts = []
            for c, fmt in zip(cols, fmts):
                block = c[rows]
                _, first, inverse = np.unique(
                    block.view(f"u{block.itemsize}"), return_index=True, return_inverse=True
                )
                distinct = np.array([fmt % v for v in block[first].tolist()], dtype=object)
                texts.append(distinct[inverse].tolist())
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _write_solution(state, trace, cfg: SolverConfig, out: Path) -> None:
    grid = cfg.grid
    _dump_json(
        {
            "mu": state.mu,
            "J_active": state.j_active,
            "free_energy": state.energy.as_dict(),
            "residual": trace.final_residual,
            "iterations": trace.iterations,
            "converged": trace.converged,
            "mass": state.mass(grid),
            "top_band_margin": state.top_band_margin,
            "rejected_trials": trace.rejected_trials,
        },
        out / "state.json",
    )
    # the lateral node axes broadcast against the trailing z or band axis
    y1, y2 = grid.y1_nodes()[:, None, None], grid.y2_nodes()[None, :, None]
    _write_csv(
        out / "fields.csv",
        ["y1", "y2", "z", "U", "rho"],
        y1,
        y2,
        grid.z_nodes(),
        state.U,
        state.rho,
    )
    _write_csv(
        out / "spectrum.csv",
        ["y1", "y2", "j", "lambda"],
        y1,
        y2,
        np.arange(1, state.spectrum.J + 1),
        state.spectrum.lam,
    )
    _write_csv(
        out / "trace.csv",
        ["iter", "residual", "mu", "F", "theta"],
        np.arange(1, trace.iterations + 1),
        trace.residuals,
        trace.mus,
        trace.free_energies,
        trace.thetas,
    )


def cmd_solve(args) -> int:
    cfg_dict = load_config(args.config)
    cfg = solver_config(cfg_dict)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state, trace = solve_equilibrium(cfg)
    _write_solution(state, trace, cfg, out)
    return 0 if trace.converged else 2


def cmd_verify(args) -> int:
    cfg_dict = load_config(args.config)
    cfg = solver_config(cfg_dict)
    counts = {key: _integer(val, f"verify.{key}") for key, val in cfg_dict["verify"].items()}
    for key, n in counts.items():
        if n < 1:
            raise ConfigError(f"verify.{key} must be at least 1, got {n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = run_verification(cfg, seed=args.seed, **counts)
    _dump_json(
        {"seed": args.seed, "checks": [r.as_dict() for r in reports]},
        out / "verify_report.json",
    )
    return 0 if all(r.passed for r in reports) else 1


def cmd_validate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run_validation()
    _dump_json(report, out / "validate_report.json")
    return 0 if report["pass"] else 1


def cmd_sweep(args) -> int:
    if not args.values:
        raise ConfigError("sweep needs a non-empty --values list")
    if args.param not in ("M", "T"):
        raise ConfigError(f"unknown sweep parameter {args.param!r}")
    cfg_dict = load_config(args.config)
    key = "M_target" if args.param == "M" else "T"
    cfgs = [solver_config({**cfg_dict, key: value}) for value in args.values]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, cfg in zip(args.values, cfgs):
        state, trace = solve_equilibrium(cfg)
        if not trace.converged:
            print(f"sweep value {value} did not converge", file=sys.stderr)
            return 2
        rows.append((value, state.mu, state.j_active, state.energy.total_direct, trace.iterations))
    values, mus, j_active, F_total, iterations = map(np.array, zip(*rows))
    _write_csv(
        out / "sweep.csv",
        ["value", "mu", "J_active", "F_total", "iterations"],
        values, mus, j_active, F_total, iterations,
    )
    if args.param == "M":
        monotone = bool(np.all(np.diff(mus[np.argsort(values, kind="stable")]) >= 0.0))
        print(f"mu monotone nondecreasing in M: {monotone}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subbandeq",
        description="Self-consistent subband equilibria: solve, verify, validate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")

    p_solve = sub.add_parser("solve", help="run one equilibrium solve")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="solve and run every structural check")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=42, help="randomized-check seed")
    p_verify.set_defaults(func=cmd_verify)

    p_validate = sub.add_parser("validate", help="run the discretization studies")
    add_common(p_validate, config=False)
    p_validate.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="solve across a parameter range")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="M or T")
    p_sweep.add_argument(
        "--values",
        required=True,
        type=lambda s: [float(v) for v in s.split(",") if v != ""],
        help="comma-separated list of parameter values",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver/check failures surface with exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
