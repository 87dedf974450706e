"""One subbandeq CLI call in a fresh process, as a CLI user would run it.

Usage: python3 child.py <request.json> <spawn time>

The harness writes the request and passes the `time.monotonic()` value it
read just before starting this process, so set-up time covers interpreter
start, the package imports and the config load.  The result (set-up time,
CLI wall time, exit code, peak RSS, every equilibrium solve's key numbers
and, when traced, the spans) is written as JSON to the path the request
names.  The request may also ask for set-up only.
"""

import json
import resource
import sys
import time


def main() -> None:
    req_path, spawn = sys.argv[1], float(sys.argv[2])
    with open(req_path) as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])

    from subbandeq import cli

    cli.solver_config(cli.load_config(req["config"]))
    setup_s = time.monotonic() - spawn
    result = {"setup_s": setup_s}
    if req["setup_only"]:
        result["env"] = _versions()
    else:
        result.update(_run_cli(cli, req["argv"], req["trace"]))
    with open(req["result"], "w") as fh:
        json.dump(result, fh)


def _run_cli(cli, argv, traced: bool) -> dict:
    from subbandeq import verify

    solves = []
    for mod in (cli, verify):
        mod.solve_equilibrium = _capturing(mod.solve_equilibrium, solves)
    main = cli.main
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        main = tracer.spanned(spans.ROOT_SPAN, main)
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - t0
    out = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solves": solves,
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


def _capturing(solve, solves: list):
    """Record what the correctness gate needs from every equilibrium solve."""

    def wrapper(cfg, *args, **kwargs):
        state, trace = solve(cfg, *args, **kwargs)
        solves.append(
            {
                "mu": state.mu,
                "mass": state.mass(cfg.grid),
                "M": cfg.M_target,
                "F_primal": state.energy.total_primal,
                "F_direct": state.energy.total_direct,
                "converged": bool(trace.converged),
                "iterations": trace.iterations,
            }
        )
        return state, trace

    return wrapper


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    main()
