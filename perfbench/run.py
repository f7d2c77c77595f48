"""ym2d benchmark: one workload per process, whole rounds for --seconds.

    python3 perfbench/run.py --workload rk4-su2-n64 --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.  The last
line of stdout is one JSON object {correct, attempted, failed, metrics}: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics.  Snapshots, CSV files and span dumps go to .bench_out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one process, single-threaded BLAS/OpenMP (numpy's FFT is single-threaded)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program():
    src = ROOT / "src"
    if not (src / "ym2d" / "__init__.py").is_file():
        raise SystemExit(f"ym2d sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import ym2d
    import ym2d.cli  # noqa: F401  (every module, compiled once before timing)

    if Path(ym2d.__file__).resolve().parent != (src / "ym2d").resolve():
        raise SystemExit(f"imported ym2d from {ym2d.__file__}, expected {src}")


def _is_program(name: str) -> bool:
    return name == "ym2d" or name.startswith("ym2d.")


def _fresh_import() -> dict:
    """Import the whole program anew, as a process starting ``ym2d`` does
    (``ym2d.cli`` loads every module; numpy and scipy stay loaded), then put
    back the modules the benchmark runs on.  Returns the new modules, so the
    caller decides when they become garbage."""
    own = {k: m for k, m in sys.modules.items() if _is_program(k)}
    for k in own:
        del sys.modules[k]
    try:
        importlib.import_module("ym2d.cli")
    finally:
        fresh = {k: m for k, m in sys.modules.items() if _is_program(k)}
        for k in fresh:
            del sys.modules[k]
        sys.modules.update(own)
    return fresh


SETUP_REPEAT_S = 0.5

RATES = {  # per-layer throughput metric -> op kind counted by the rounds
    "evolve.rk4_steps_per_s": "rk4_steps",
    "evolve.exprk2_steps_per_s": "exprk2_steps",
    "evolve.picard_sweeps_per_s": "picard_sweeps",
    "identities.seeds_per_s": "identity_seeds",
    "estimates.symbol_samples_per_s": "symbol_samples",
    "estimates.conic_points_per_s": "conic_points",
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.trace import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    outdir = ROOT / ".bench_out" / workload
    outdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](seed, outdir)
    tracer = Tracer() if trace else None

    # Each timed call ends by collecting the cyclic garbage it left, inside
    # its timed region, so that cost counts and every call starts alike.
    # What exists before the first call (interpreter, libraries, workload) is
    # frozen, so a collection traverses only what the program made since.
    gc.collect()
    gc.freeze()

    def timed(fn, *args, traced=False):
        if not traced:
            t0 = time.perf_counter()
            out = fn(*args)
            gc.collect()
            return out, time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            out = tracer.call(f"run.{fn.__name__}", fn, *args)
            gc.collect()
            return out, time.perf_counter() - t0
        finally:
            tracer.uninstall()

    # set-up imports the program anew and builds the workload's inputs; it
    # is repeated after every round (results discarded) until SETUP_REPEAT_S
    # has been spent on it, and setup_s is the median of all set-ups
    def setup():
        discarded.append(_fresh_import())
        return wl.setup()

    def setup_once():
        out, dt = timed(setup, traced=trace)
        # the discarded modules are garbage of the benchmark's own making:
        # freed after the clock stops
        discarded.clear()
        gc.collect()
        setup_s.append(dt)
        return out

    discarded, setup_s = [], []
    ctx = setup_once()

    def repeat_setup():
        spent = 0.0
        while spent < SETUP_REPEAT_S:
            setup_once()
            spent += setup_s[-1]

    errors = []
    attempted = failed = 0
    plain_s, traced_s = [], []
    op_totals = {}  # op kind -> [count, seconds], untraced rounds only
    units = {"steps": 0, "exprk2_steps": 0, "picard_sweeps": 0, "rounds": 0,
             "snapshot_bytes": 0, "identity_seeds": 0}
    t_start = t_iter = time.perf_counter()
    iter_s = 0.0  # the last round with its set-up and checks
    r = 0
    ev = None
    # trace mode alternates plain and traced rounds on the same round inputs,
    # for the overhead figure; another round starts only while it can end
    # within --seconds
    while r < (2 if trace else 1) or time.perf_counter() - t_start + iter_s <= seconds:
        traced = trace and r % 2 == 1
        out, dt = timed(wl.round, ctx, r // 2 if trace else r, traced=traced)
        repeat_setup()
        a, f = wl.ops(out)
        attempted += a
        failed += f
        if traced:
            traced_s.append(dt)
            units["rounds"] += 1
            for k, v in wl.units(out).items():
                units[k] += v
        else:
            plain_s.append(dt)
            for k, (n, s) in out["op_times"].items():
                tot = op_totals.setdefault(k, [0, 0.0])
                tot[0] += n
                tot[1] += s
        ev = wl.evidence(out)
        errors += wl.verify(ev)
        r += 1
        now = time.perf_counter()
        iter_s, t_iter = now - t_iter, now

    # self-check: every check must reject evidence perturbed to violate it
    for target, bad in wl.perturb(ev):
        hits = wl.verify(bad)
        if not any(e.startswith(target + ":") for e in hits):
            errors.append(f"self-check: perturbed '{target}' evidence not rejected")

    if trace:
        tracer.dump(ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json")
        metrics = layer_metrics(tracer, units)
        metrics["ym.data_seeds_left_out"] = wl.seeds_left_out
        for name, kind in RATES.items():
            n, s = op_totals.get(kind, (0, 0.0))
            metrics[name] = n / s if s else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (min(traced_s) / min(plain_s) - 1.0)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "round_s": statistics.median(plain_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print("round_s: " + " ".join(f"{t:.4f}" for t in plain_s), file=sys.stderr)
    print(f"setup_s: {len(setup_s)} set-ups, min {min(setup_s):.5f} "
          f"median {statistics.median(setup_s):.5f}", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ {m['name'] for m in declared})}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
