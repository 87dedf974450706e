"""Benchmark harness for subbandeq.

    python3 perfbench/run.py --workload accept24 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the solver is imported from
`src/`, nothing needs installing.  Every CLI call of a workload runs
`subbandeq.cli.main` in a fresh single-threaded process (child.py), the way
a CLI user pays for imports and per-process caches; calls run one at a time.
The workload repeats for about `--seconds` (at least once; no iteration
starts late enough to end more than half an iteration past it).

`--trace 0` reports the end-to-end metrics: set-up time, CLI wall time per
workload iteration, peak RSS and the share of CLI calls that pass the
correctness gate.  `--trace 1` alternates untraced and traced iterations
and reports the per-layer metrics of spans.py from the traced ones, plus
the tracing overhead.  `--smoke` runs every workload once on a tiny grid,
checks that every metric named in BENCHMARK.json is emitted and that the
gate rejects a wrong chemical-potential reference; it sets no timing bounds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The seed reaches the
program only as `verify --seed` and as sweep_wide's `init.seed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((HERE / "spec.json").read_text())

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2
# No new iteration starts after this many seconds, so a run ends well
# inside three minutes even on a slow machine.
LAST_START_S = 100.0
RUN_DEADLINE_S = 170.0

# Invariants every converged equilibrium satisfies (see the solver's own
# EquilibriumState.validate and verify.check_energy_agreement).
MASS_REL_TOL = 1e-8
ENERGY_REL_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload."""

    label: str
    command: str
    config: dict
    args: tuple
    refs: tuple  # mu_reference key of each equilibrium solve the call runs


ZWELL = {"kind": "zwell", "amplitude": 8.0}


def _grid(ny1, ny2, nz):
    return {"ny1": ny1, "ny2": ny2, "nz": nz}


def accept24(seed: int, tiny: bool) -> list[Op]:
    """The acceptance solve at T = 0 and T = 0.2; the seed is not used."""
    g = _grid(5, 5, 16) if tiny else _grid(24, 24, 64)
    return [
        Op(f"solve_T{T}", "solve", {"M_target": 1.0, "T": T, "grid": g, "vext": ZWELL}, (),
           (f"accept24.T{T}",))
        for T in (0.0, 0.2)
    ]


def sweep_wide(seed: int, tiny: bool) -> list[Op]:
    """Mass sweep from a seeded random start on a wide, thin grid."""
    g = _grid(6, 6, 8) if tiny else _grid(32, 32, 16)
    cfg = {"T": 0.0, "grid": g, "vext": ZWELL, "init": {"kind": "random", "seed": seed}}
    return [Op("sweep_M", "sweep", cfg, ("--param", "M", "--values", "10,160"),
               ("sweep_wide.M10", "sweep_wide.M160"))]


def verify_tall(seed: int, tiny: bool) -> list[Op]:
    """Every structural check on a z-refined grid: main solve + 3 uniqueness solves."""
    g = _grid(4, 4, 24) if tiny else _grid(6, 6, 96)
    cfg = {"M_target": 1.0, "T": 0.2, "grid": g, "vext": ZWELL}
    return [Op("verify", "verify", cfg, ("--seed", str(seed)), ("verify_tall",) * 4)]


WORKLOADS = {"accept24": accept24, "sweep_wide": sweep_wide, "verify_tall": verify_tall}


# ---- running ----------------------------------------------------------------------


class Runner:
    """Spawns the child processes of one benchmark run, one at a time."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.n = 0
        self.env = dict(os.environ, **THREAD_ENV)
        self.env.pop("PYTHONPATH", None)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, op: Op, *, setup_only=False, traced=False) -> dict:
        """Run one child; returns its result, or {"error": ...} if it produced none."""
        self.n += 1
        tag = f"{self.n:03d}-{op.label}"
        config = self.run_dir / f"{tag}.config.json"
        config.write_text(json.dumps(op.config))
        out = self.run_dir / f"{tag}.out"
        argv = [op.command, "--config", str(config), "--out", str(out), *op.args]
        req = {
            "src": str(SRC),
            "config": str(config),
            "argv": argv,
            "trace": traced,
            "setup_only": setup_only,
            "result": str(self.run_dir / f"{tag}.result.json"),
        }
        req_path = self.run_dir / f"{tag}.request.json"
        req_path.write_text(json.dumps(req))
        timeout = max(5.0, RUN_DEADLINE_S - self.elapsed())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(req_path), repr(t0)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s", "elapsed_s": time.monotonic() - t0}
        elapsed = time.monotonic() - t0
        try:
            res = json.loads(Path(req["result"]).read_text())
        except (OSError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}", "elapsed_s": elapsed}
        res["stdout"] = proc.stdout
        res["out"] = str(out)
        return res


def run_iteration(runner: Runner, ops: list[Op], traced: bool) -> dict:
    calls = [(op, runner.child(op, traced=traced)) for op in ops]
    done = [res for _, res in calls if "error" not in res]
    return {
        "traced": traced,
        "calls": calls,
        "wall_s": sum(res.get("wall_s", res.get("elapsed_s", 0.0)) for _, res in calls),
        "peak_rss_mb": max((res["peak_rss_mb"] for res in done), default=0.0),
        "setup_s": [res["setup_s"] for res in done],
    }


# ---- correctness gate --------------------------------------------------------------


def gate(op: Op, res: dict, refs: dict | None, rtol: float) -> list[str]:
    """Reasons the CLI call failed; empty when it passed.

    refs None skips the comparison with the recorded chemical potentials.
    """
    if "error" in res:
        return [res["error"]]
    problems = []
    if res["rc"] != 0:
        problems.append(f"exit code {res['rc']}")
    solves = res["solves"]
    if len(solves) != len(op.refs):
        problems.append(f"{len(solves)} equilibrium solves, expected {len(op.refs)}")
    for s, key in zip(solves, op.refs):
        if not s["converged"]:
            problems.append(f"{key}: not converged")
        if abs(s["mass"] - s["M"]) > MASS_REL_TOL * s["M"]:
            problems.append(f"{key}: mass {s['mass']!r} misses {s['M']!r}")
        if abs(s["F_primal"] - s["F_direct"]) > ENERGY_REL_TOL * (1.0 + abs(s["F_direct"])):
            problems.append(f"{key}: free-energy routes disagree")
        if refs is not None and abs(s["mu"] - refs[key]) > rtol * abs(refs[key]):
            problems.append(f"{key}: mu {s['mu']!r} differs from reference {refs[key]!r}")
    if not problems:
        try:
            problems += OUTPUT_CHECKS[op.command](Path(res["out"]), res, op)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable {op.command} output: {exc!r}")
    return problems


def _check_solve(out: Path, res: dict, op: Op) -> list[str]:
    state = json.loads((out / "state.json").read_text())
    s = res["solves"][0]
    problems = []
    if state["converged"] is not True or state["mu"] != s["mu"] or state["mass"] != s["mass"]:
        problems.append("state.json disagrees with the solve")
    if state["iterations"] != s["iterations"]:
        problems.append("state.json iteration count disagrees with the solve")
    with (out / "trace.csv").open() as fh:
        if sum(1 for _ in fh) != s["iterations"] + 1:
            problems.append("trace.csv does not hold one row per iteration")
    g = op.config["grid"]
    with (out / "fields.csv").open() as fh:
        if sum(1 for _ in fh) != g["ny1"] * g["ny2"] * (g["nz"] + 1) + 1:
            problems.append("fields.csv does not hold one row per node")
    return problems


def _check_sweep(out: Path, res: dict, op: Op) -> list[str]:
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    mus = [float(line.split(",")[1]) for line in lines]
    problems = []
    if mus != [s["mu"] for s in res["solves"]]:
        problems.append("sweep.csv disagrees with the solves")
    if any(b < a for a, b in zip(mus, mus[1:])):
        problems.append("mu decreases with M")
    if "mu monotone nondecreasing in M: True" not in res["stdout"]:
        problems.append("sweep did not report mu monotone in M")
    return problems


def _check_verify(out: Path, res: dict, op: Op) -> list[str]:
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    failed = [c["name"] for c in checks if not c["pass"]]
    problems = [f"verify checks failed: {failed}"] if failed else []
    if len(checks) != 9:
        problems.append(f"verify reported {len(checks)} checks, expected 9")
    return problems


OUTPUT_CHECKS = {"solve": _check_solve, "sweep": _check_sweep, "verify": _check_verify}


def gate_all(iterations: list[dict], refs: dict | None, rtol: float) -> list[list[str]]:
    return [gate(op, res, refs, rtol) for it in iterations for op, res in it["calls"]]


# ---- metrics -------------------------------------------------------------------------


def end_to_end(iterations: list[dict], setup: list[float], failures: list[list[str]]) -> dict:
    ok = sum(1 for f in failures if not f)
    return {
        "wall_s": {"value": statistics.median(it["wall_s"] for it in iterations), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(it["peak_rss_mb"] for it in iterations),
            "unit": "MB",
        },
        "ok_frac": {"value": ok / len(failures), "unit": "fraction"},
    }


LAYER_UNITS = {
    "time_s": "s", "solve_s": "s", "self_s": "s", "base_s": "s", "uniqueness_s": "s",
    "overhead_s": "s", "share": "fraction", "accept_ratio": "fraction",
    "us_per_slice": "us", "ms_per_solve": "ms",
}


def per_layer(iterations: list[dict]) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced iterations, and tracer problems."""
    problems = []
    rows = []
    for it in iterations:
        if not it["traced"]:
            continue
        dumps = [res["trace"] for _, res in it["calls"] if "trace" in res]
        if len(dumps) != len(it["calls"]):
            problems.append("a traced call left no trace")
            continue
        for d in dumps:
            problems += spans.check_tree(d["spans"])
        row = spans.layer_metrics(dumps)
        # Self times of all layers must account for the root span exactly.
        gap = abs(sum(row.pop("_layer_self_s").values()) - row["_root_s"])
        if gap > 1e-9 * max(1.0, row["_root_s"]):
            problems.append(f"layer self times miss the root span by {gap:g} s")
        rows.append(row)
    if not rows:
        return {}, problems + ["no traced iteration"]
    for name in spans.COUNT_METRICS:
        if len({row[name] for row in rows}) != 1:
            problems.append(f"count {name} differs between traced iterations")
    walls = {t: [it["wall_s"] for it in iterations if it["traced"] is t] for t in (False, True)}
    metrics = {}
    for name in rows[0]:
        if name.startswith("_"):
            continue
        unit = LAYER_UNITS.get(name.split(".", 1)[1], "count")
        value = rows[0][name] if name in spans.COUNT_METRICS else statistics.median(
            row[name] for row in rows
        )
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, problems


# ---- environment -------------------------------------------------------------------


def environment(probe_env: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "subbandeq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **probe_env,
        "threads": {k: THREAD_ENV[k] for k in sorted(THREAD_ENV)},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---- entry points -----------------------------------------------------------------


def benchmark(workload: str, seed: int, seconds: float, traced: bool, runner: Runner) -> dict:
    ops = WORKLOADS[workload](seed, tiny=False)
    setup = []
    probe_env = {}
    for _ in range(SETUP_PROBES):
        res = runner.child(ops[0], setup_only=True)
        if "error" in res:
            raise SystemExit(f"the program does not start: {res['error']}")
        setup.append(res["setup_s"])
        probe_env = res["env"]
    print("env " + json.dumps(environment(probe_env), sort_keys=True), flush=True)

    iterations = []
    kinds = [False, True] if traced else [False]
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        it = run_iteration(runner, ops, traced=kinds[len(iterations) % len(kinds)])
        iterations.append(it)
        setup += it["setup_s"]
        print(f"{workload} iteration {len(iterations)} traced={it['traced']} "
              f"wall_s={it['wall_s']:.3f}", file=sys.stderr, flush=True)
        # Stop once the next iteration would end more than half of it past
        # the measuring time, so a run lasts about --seconds.
        last = time.monotonic() - started
        if len(iterations) >= len(kinds) and (
            time.monotonic() - t0 + 0.5 * last > seconds or runner.elapsed() > LAST_START_S
        ):
            break

    failures = gate_all(iterations, SPEC["mu_reference"], SPEC["mu_rtol"])
    for f in failures:
        if f:
            print("FAILED: " + "; ".join(f), file=sys.stderr)
    problems = []
    if traced:
        metrics, problems = per_layer(iterations)
        for p in problems:
            print("TRACE: " + p, file=sys.stderr)
        _save_spans(workload, seed, iterations)
    else:
        metrics = end_to_end(iterations, setup, failures)
    n_failed = sum(1 for f in failures if f)
    return {
        "correct": n_failed == 0 and not problems,
        "attempted": len(failures),
        "failed": n_failed,
        "metrics": metrics,
    }


def _save_spans(workload: str, seed: int, iterations: list[dict]) -> None:
    traced = [it for it in iterations if it["traced"]]
    dump = [{"op": op.label, **res["trace"]} for op, res in traced[-1]["calls"] if "trace" in res]
    (WORK / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(dump))


def smoke(runner: Runner) -> list[str]:
    """Tiny grids, one untraced and one traced iteration per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rtol = SPEC["mu_rtol"]
    problems = []
    for workload, make in WORKLOADS.items():
        ops = make(7, tiny=True)
        setup = [runner.child(ops[0], setup_only=True).get("setup_s", 0.0)]
        iterations = [run_iteration(runner, ops, traced=t) for t in (False, True)]
        failures = gate_all(iterations, None, rtol)
        problems += [f"{workload}: {'; '.join(f)}" for f in failures if f]
        layer, trace_problems = per_layer(iterations)
        problems += [f"{workload}: {p}" for p in trace_problems]
        for got, want in ((end_to_end(iterations, setup, failures), want_e2e), (layer, want_layer)):
            units = {name: m["unit"] for name, m in got.items()}
            if units != want:
                problems.append(f"{workload}: metrics {units} differ from BENCHMARK.json {want}")
        observed = {}
        for op, res in iterations[0]["calls"]:
            for s, key in zip(res.get("solves", []), op.refs):
                observed[key] = s["mu"]
        if any(gate_all(iterations, observed, rtol)):
            problems.append(f"{workload}: gate rejects the observed mu as reference")
        wrong = {k: v * (1.0 + 10.0 * rtol) for k, v in observed.items()}
        if not all(gate_all(iterations, wrong, rtol)):
            problems.append(f"{workload}: gate accepts a wrong mu reference")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-grid self-test of the harness")
    args = parser.parse_args()
    if not (SRC / "subbandeq" / "cli.py").is_file():
        print(f"no subbandeq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(run_dir)
        if args.smoke:
            problems = smoke(runner)
            for p in problems:
                print("SMOKE: " + p, file=sys.stderr)
            print("smoke " + ("failed" if problems else "ok"))
            return 1 if problems else 0
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
