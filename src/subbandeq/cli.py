"""Command line: solve, verify, validate, sweep.

Configuration is a single JSON file; every key has a default, so the
minimal config is {"M_target": 1.0}.  All outputs are deterministic
functions of (config, seed): CSV columns are written in scientific
notation with 17 significant digits (lossless doubles) and JSON reports
re-serialize byte-identically.  The CSV writer takes numpy columns that
broadcast together (node axes are never expanded to the full grid) and
formats a block of rows with numpy arithmetic; the bytes are those of
formatting every value in turn.  Exit codes: 0 on success, 1 on bad input
(argument errors too) or a failed check, 2 when a solve does not converge.
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


def _typed(value, default, key: str):
    """value checked against the type of its default, a section key by key.

    A section is an object of known keys; a missing key takes its default.
    No key takes a boolean (JSON true would pass as 1), a string stands only
    where the default is one, and an integral key takes an integral number
    only, never truncated.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be an object" if key else
                              "config must be a JSON object")
        unknown = sorted(value.keys() - default.keys())
        if unknown:
            raise ConfigError(f"unknown key {key}.{unknown[0]!r}" if key else
                              f"unknown config keys: {unknown}")
        prefix = f"{key}." if key else ""
        return {k: _typed(value.get(k, d), d, prefix + k) for k, d in default.items()}
    if isinstance(value, bool):
        raise ConfigError(f"{key} must not be a boolean, got {json.dumps(value)}")
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        raise ConfigError(f"{key} must be a string, got {value!r}")
    try:
        number = float(value) if isinstance(value, (int, float)) else None
    except OverflowError:  # an integer beyond the float range
        number = None
    if isinstance(default, int):
        if number is not None and number.is_integer() and number == value:
            return int(value)
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if number is None:
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return number


def load_config(path) -> dict:
    """The JSON config at path over CONFIG_DEFAULTS, each value of its default's type."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _typed(raw, CONFIG_DEFAULTS, "")


def solver_config(cfg: dict) -> SolverConfig:
    try:
        return SolverConfig(
            M_target=cfg["M_target"],
            model=OccupancyModel(T=cfg["T"], p=cfg["beta_p"]),
            grid=Grid(**cfg["grid"]),
            vext_kind=cfg["vext"]["kind"],
            vext_amplitude=cfg["vext"]["amplitude"],
            fp_tol=cfg["fp_tol"],
            max_outer=cfg["max_outer"],
            init_kind=cfg["init"]["kind"],
            init_seed=cfg["init"]["seed"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# A field is one value's text in 24 NUL-padded bytes (the longest FLOAT_FMT or
# int64 text), as 6 uint32 words: NUL, sign, lead digit, "."; 4 x 4 digits; "e±XX".
def _words(*byte_columns) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*byte_columns), -1).astype(np.uint8).view(np.uint32)[..., 0]


_DIGITS4 = _words(*(48 + np.indices((10,) * 4, dtype=np.uint8))).ravel()  # "0000" .. "9999"
_HEAD = _words(0, np.c_[[0, ord("-")]], 48 + np.arange(10), ord(".")).ravel()  # [10 * sign + lead]
_E = np.arange(-7, 18)  # the exponents e of _EXP[e + 7]
_EXP = _words(ord("e"), np.where(_E < 0, ord("-"), ord("+")), 48 + abs(_E) // 10, 48 + abs(_E) % 10)
# 10^(16 - e) at index 17 - e: exact for -6 <= e <= 16, 0 (no fast path) for e = -7, 17
_POW10 = np.r_[0.0, 10.0 ** np.arange(23), 0.0]


def _text_fields(values: np.ndarray, fmt: str = FLOAT_FMT) -> np.ndarray:
    return np.array([fmt % v for v in values.tolist()], "S24").view(np.uint32).reshape(-1, 6)


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The fields of FLOAT_FMT % v for the values v of x, as (x.size, 6) words.

    For |v| in [1e-6, 1e17), Dekker's two-product gives hi + lo = |v| 10^(16 - e)
    exactly, with e = floor(log10 |v|).  If that is in [1e16, 1e17), hi > 2^53 is
    even and hi + rint(lo) is the significand rounded half to even, as FLOAT_FMT
    rounds.  FLOAT_FMT itself formats the other values, zeros excepted.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    fast = (np.abs(x) >= 1e-6) & (np.abs(x) < 1e17)
    a = np.where(fast, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)  # -7 <= e <= 17
    b = _POW10[17 - e]
    hi, ca, cb = a * b, 134217729.0 * a, 134217729.0 * b  # Veltkamp splits by 2^27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    lo = ((ah * bh - hi) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)
    # hi < 1e17 leaves hi + lo <= 1e17 - 8, so the rounding never carries
    exact = fast & (hi < 1e17) & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0.0)))
    n = np.where(exact, hi.astype(np.int64) + np.rint(lo).astype(np.int64), 0)
    lead, top = n // 10**16, n // 10**8  # numpy divides by a constant fast; % is slow
    high, low = top - lead * 10**8, n - top * 10**8
    hq, lq = high // 10**4, low // 10**4
    fields = np.stack([_HEAD[10 * np.signbit(x) + lead], _DIGITS4[hq], _DIGITS4[high - hq * 10**4],
                       _DIGITS4[lq], _DIGITS4[low - lq * 10**4], _EXP[e + 7]], axis=-1)
    slow = ~(exact | (x == 0.0))
    fields[slow] = _text_fields(x[slow])
    return fields


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """One row per element of the columns broadcast together, in C order.

    Float columns are written with FLOAT_FMT and integer columns with %d, in
    blocks of CSV_BLOCK_ROWS rows, so no column is copied at full size.  A block
    is an array of fields and separator words whose NUL padding is stripped.
    """
    full = np.broadcast(*columns)  # the shape and size of the table, never expanded
    sources = [_field_source(np.asarray(c), full.shape) for c in columns]
    separators = _words([ord(",")] * (len(columns) - 1) + [ord("\n")], 0, 0, 0)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, full.size, CSV_BLOCK_ROWS):
            rows = np.unravel_index(np.arange(i, min(i + CSV_BLOCK_ROWS, full.size)), full.shape)
            fields = np.empty((rows[0].size, len(columns), 7), np.uint32)
            for k, source in enumerate(sources):
                fields[:, k, :6] = source(rows)
            fields[:, :, 6] = separators
            fh.write(fields.tobytes().translate(None, b"\0"))


def _field_source(c: np.ndarray, shape: tuple):
    """Rows (index arrays into shape) -> fields of c; a small c is formatted once."""
    fmt = (lambda v: _text_fields(v, "%d")) if c.dtype.kind in "iu" else _float_fields
    if c.size > CSV_BLOCK_ROWS:
        return lambda rows: fmt(np.broadcast_to(c, shape)[rows])
    texts, index = fmt(c.ravel()), np.broadcast_to(np.arange(c.size).reshape(c.shape), shape)
    return lambda rows: np.take(texts, index[rows], axis=0)


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
            "predicted_steps": trace.predicted_steps,
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
    state, trace = solve_equilibrium(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_solution(state, trace, cfg, out)
    return 0 if trace.converged else 2


def cmd_verify(args) -> int:
    cfg_dict = load_config(args.config)
    cfg = solver_config(cfg_dict)
    counts = cfg_dict["verify"]
    for key, n in counts.items():
        if n < 1:
            raise ConfigError(f"verify.{key} must be at least 1, got {n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    reports = run_verification(cfg, seed=args.seed, **counts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(
        {"seed": args.seed, "checks": [r.as_dict() for r in reports]},
        out / "verify_report.json",
    )
    return 0 if all(r.passed for r in reports) else 1


def cmd_validate(args) -> int:
    report = run_validation()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    rows = []
    for value, cfg in zip(args.values, cfgs):
        state, trace = solve_equilibrium(cfg)
        if not trace.converged:
            print(f"sweep value {value} did not converge", file=sys.stderr)
            return 2
        rows.append((value, state.mu, state.j_active, state.energy.total_direct, trace.iterations))
    values, mus, j_active, F_total, iterations = map(np.array, zip(*rows))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on an argument error
        return 1 if exc.code else 0
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
