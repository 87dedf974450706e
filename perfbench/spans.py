"""Outside-in tracing of the subbandeq layers, and the per-layer numbers.

Recording happens in the CLI child process (see child.py): the public
functions of each layer are wrapped where the calling module binds them, so
`src/` stays untouched.  A wrapped call becomes a span (name, start, end,
parent); the innermost, hottest calls are only counted.  Spans stay in
memory and are written out once the CLI call has returned.

Analysis happens in the harness (run.py): a layer's self time is the
duration of its spans minus the part their child spans cover, so the self
times of all layers add up exactly to the duration of the `cli.main` root.
"""

from __future__ import annotations

import functools
import importlib
import time

ROOT_SPAN = "cli.main"

# (calling module, attribute it binds, span name); the layer is the prefix.
SPANNED = (
    ("subbandeq.cli", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("subbandeq.cli", "run_verification", "verify.run_verification"),
    ("subbandeq.verify", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("subbandeq.verify", "grid_consistent_base", "verify.grid_consistent_base"),
    ("subbandeq.verify", "check_uniqueness", "verify.check_uniqueness"),
    ("subbandeq.verify", "solve_slices", "schrodinger.solve_slices"),
    ("subbandeq.verify", "solve_poisson", "poisson.solve_poisson"),
    ("subbandeq.verify", "pair_free_energy", "rearrange.pair_free_energy"),
    ("subbandeq.equilibrium", "solve_slices", "schrodinger.solve_slices"),
    ("subbandeq.equilibrium", "solve_mu", "occupancy.solve_mu"),
    ("subbandeq.equilibrium", "solve_poisson", "poisson.solve_poisson"),
    ("subbandeq.rearrange", "solve_poisson", "poisson.solve_poisson"),
)

# Called thousands of times per solve: counted, never spanned.
COUNTED = (
    ("subbandeq.schrodinger", "solve_slice", "schrodinger.solve_slice"),
    ("subbandeq.poisson", "apply_operator", "poisson.apply_operator"),
    ("subbandeq.occupancy", "subband_mass", "occupancy.subband_mass"),
)

LAYERS = ("cli", "equilibrium", "schrodinger", "occupancy", "poisson", "rearrange", "verify")

# Spans that own the map evaluations (solve_slices spans) nested in them.
EVAL_SCOPES = ("equilibrium.solve_equilibrium", "verify.grid_consistent_base")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
            }
            self.spans.append(rec)
            self._open.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
            if name == "equilibrium.solve_equilibrium":
                rec["iterations"] = out[1].iterations  # rows of its trace.csv
            return out

        return wrapper

    def counted(self, name: str, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANNED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.spanned(name, getattr(mod, attr)))
        for module, attr, name in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counted(name, getattr(mod, attr)))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---- analysis (harness side) -------------------------------------------------


def check_tree(spans: list[dict]) -> list[str]:
    """Problems with a span list: one root, children nested in their parents."""
    problems = []
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != ROOT_SPAN:
        problems.append(f"expected one {ROOT_SPAN} root span, got {[s['name'] for s in roots]}")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if s["start"] < p["start"] or s["end"] > p["end"]:
                problems.append(f"span {s['id']} {s['name']} leaks out of its parent")
    return problems


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The process is single-threaded, so children never overlap and their
    summed duration is the part of the parent they cover.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _scope(spans: list[dict], s: dict) -> str | None:
    p = s["parent"]
    while p is not None:
        if spans[p]["name"] in EVAL_SCOPES:
            return spans[p]["name"]
        p = spans[p]["parent"]
    return None


def layer_metrics(calls: list[dict]) -> dict:
    """Per-layer numbers for one workload iteration.

    calls: one {"spans", "counts"} dump per CLI call of the iteration.
    Returns the metric values plus "_layer_self_s" (self time per layer)
    and "_root_s" (summed root span duration) for the accounting check.
    """
    total = {f"{layer}.self": 0.0 for layer in LAYERS}
    incl: dict[str, float] = {}
    n: dict[str, int] = {}
    counts: dict[str, int] = {}
    evals = {scope: 0 for scope in EVAL_SCOPES}
    iterations = 0
    root = 0.0
    for call in calls:
        spans = call["spans"]
        for s, own in zip(spans, self_times(spans)):
            dur = s["end"] - s["start"]
            total[s["name"].split(".")[0] + ".self"] += own
            incl[s["name"]] = incl.get(s["name"], 0.0) + dur
            n[s["name"]] = n.get(s["name"], 0) + 1
            if s["name"] == ROOT_SPAN:
                root += dur
            elif s["name"] == "schrodinger.solve_slices":
                scope = _scope(spans, s)
                if scope is not None:
                    evals[scope] += 1
            elif s["name"] == "equilibrium.solve_equilibrium":
                iterations += s.get("iterations", 0)  # absent if the solve raised
        for name, c in call["counts"].items():
            counts[name] = counts.get(name, 0) + c

    def ratio(a, b):
        return a / b if b else 0.0

    slices = counts.get("schrodinger.solve_slice", 0)
    p_solves = n.get("poisson.solve_poisson", 0)
    mu_solves = n.get("occupancy.solve_mu", 0)
    solves = n.get("equilibrium.solve_equilibrium", 0)
    map_evals = evals["equilibrium.solve_equilibrium"]
    rejected = map_evals - solves - iterations
    return {
        "schrodinger.time_s": total["schrodinger.self"],
        "schrodinger.share": ratio(total["schrodinger.self"], root),
        "schrodinger.slice_solves": slices,
        "schrodinger.us_per_slice": 1e6 * ratio(total["schrodinger.self"], slices),
        "poisson.time_s": total["poisson.self"],
        "poisson.share": ratio(total["poisson.self"], root),
        "poisson.solves": p_solves,
        "poisson.ms_per_solve": 1e3 * ratio(total["poisson.self"], p_solves),
        "poisson.cg_iters_per_solve": ratio(counts.get("poisson.apply_operator", 0), p_solves),
        "equilibrium.solve_s": incl.get("equilibrium.solve_equilibrium", 0.0),
        "equilibrium.self_s": total["equilibrium.self"],
        "equilibrium.map_evals": map_evals,
        "equilibrium.iterations": iterations,
        "equilibrium.rejected_trials": rejected,
        "equilibrium.accept_ratio": ratio(iterations, iterations + rejected),
        "occupancy.time_s": total["occupancy.self"],
        "occupancy.mu_solves": mu_solves,
        "occupancy.mass_evals_per_mu": ratio(counts.get("occupancy.subband_mass", 0), mu_solves),
        "rearrange.time_s": total["rearrange.self"],
        "rearrange.pair_energy_calls": n.get("rearrange.pair_free_energy", 0),
        "verify.base_s": incl.get("verify.grid_consistent_base", 0.0),
        "verify.base_map_evals": evals["verify.grid_consistent_base"],
        "verify.uniqueness_s": incl.get("verify.check_uniqueness", 0.0),
        "verify.self_s": total["verify.self"],
        "cli.self_s": total["cli.self"],
        "_layer_self_s": {layer: total[f"{layer}.self"] for layer in LAYERS},
        "_root_s": root,
    }


# Metrics that count work: they must repeat exactly between iterations.
COUNT_METRICS = (
    "schrodinger.slice_solves",
    "poisson.solves",
    "poisson.cg_iters_per_solve",
    "equilibrium.map_evals",
    "equilibrium.iterations",
    "equilibrium.rejected_trials",
    "occupancy.mu_solves",
    "occupancy.mass_evals_per_mu",
    "rearrange.pair_energy_calls",
    "verify.base_map_evals",
)
