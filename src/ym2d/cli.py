"""Command-line entry points: reproducible experiments and artifact I/O.

Every command resolves its configuration (an optional JSON config file plus
flag overrides), validates all of it, writes a manifest echoing the fully
resolved config next to its main artifact, runs the pipeline, and exits with:

    0  all checks PASS / run completed,
    2  configuration or schema violation,
    3  numerical abort (NaN, divergence), with the last diagnostics printed.

Artifacts are plain CSV (`t,energy,lorenz,gauss,compat,twinDiff`), JSON-lines
bound reports, and "YMF2" binary snapshots; byte-identical for identical
(config, seed) on a fixed platform.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import AlgebraSpec, so, su
from .estimates import (
    ESTIMATE_IDS,
    SampleConfig,
    delta_integral_ellipse,
    elliptic_i_limit,
    elliptic_i_sweep,
    empirical_bilinear_constant,
    run_symbol_suite,
)
from .evolve import (
    EvolveConfig,
    analytic_potential,
    evolve_and_monitor,
    picard_iterate,
    records_to_csv,
    spatial_errors,
    temporal_order,
)
from .identities import run_identity_suite
from .spectral import TorusGrid, write_snapshot
from .ym import project_gauss_data, state_from_potential

IDENTITY_TOL = 1e-10

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _algebra(name: str, n: int) -> AlgebraSpec:
    if name == "su":
        return su(n)
    if name == "so":
        return so(n)
    raise ConfigError(f"unknown algebra kind {name!r} (su or so)")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = fh.read()
        cfg = json.loads(raw) if raw.strip() else None
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or not cfg:
        raise ConfigError(f"config {path} must be a nonempty JSON object")
    return cfg


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """Precedence: explicit flag > config-file value > built-in default."""
    file_cfg = _load_config(getattr(args, "config", None))
    defaults = args.defaults
    unknown = set(file_cfg) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for k in keys:
        flag = getattr(args, k)
        if flag is not None:
            resolved[k] = flag
        elif k in file_cfg:
            val = file_cfg[k]
            want = type(defaults[k])
            if want is float and isinstance(val, int):
                val = float(val)
            if not isinstance(val, want) or isinstance(val, bool) is not (want is bool):
                raise ConfigError(
                    f"config key {k!r} must be {want.__name__}, got {val!r}"
                )
            resolved[k] = val
        else:
            resolved[k] = defaults[k]
    return resolved


def _write_manifest(out_path: str, command: str, resolved: dict):
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
    }
    p = Path(out_path)
    mpath = p.with_name(p.stem + ".manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_reports(reports, out_path):
    all_pass = True
    lines = []
    for rep in reports:
        d = rep.to_dict()
        lines.append(json.dumps(d, sort_keys=True))
        status = "PASS" if d["pass"] else "FAIL"
        print(f"{status} {d['name']}: supRatio={d['supRatio']:.6g} "
              f"threshold={d['threshold']}")
        all_pass &= d["pass"]
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return all_pass


@contextmanager
def _validating():
    """Report a ValueError raised while building the config as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


# --- commands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    keys = ["algebra", "n", "grid", "dt", "t_end", "scale", "seed",
            "stepper", "monitor_every", "out", "snapshot_every", "project"]
    cfg = _resolve(args, keys)
    with _validating():
        spec = _algebra(cfg["algebra"], cfg["n"])
        grid = TorusGrid(cfg["grid"])
        evolve_cfg = EvolveConfig(
            dt=cfg["dt"], t_end=cfg["t_end"], stepper=cfg["stepper"],
            monitor_every=cfg["monitor_every"],
        )
    # scale is an amplitude
    _require(cfg["seed"] >= 0 and cfg["scale"] >= 0,
             "seed and scale must be nonnegative")
    _require(cfg["snapshot_every"] >= 0, "snapshot_every must be nonnegative")
    _write_manifest(cfg["out"], "simulate", cfg)
    a, a_dot = analytic_potential(spec, grid, cfg["seed"], cfg["scale"])
    if cfg["project"]:
        state = project_gauss_data(a, a_dot, tol=1e-10)
    else:
        state = state_from_potential(a, a_dot)

    snap_every = cfg["snapshot_every"]

    def snap(step, state):
        if not snap_every or step % snap_every:
            return
        p = Path(cfg["out"])
        path = p.with_name(f"{p.stem}.step{step:06d}.ymf2")
        comps = list(state.A) + list(state.F)
        with open(path, "wb") as fh:
            write_snapshot(fh, [c.value for c in comps])

    records = evolve_and_monitor(state, evolve_cfg, on_record=snap)
    records_to_csv(records, cfg["out"])
    print(f"wrote {cfg['out']} ({len(records)} records)")
    return EXIT_OK


def cmd_check_identities(args) -> int:
    keys = ["algebra", "n", "seeds", "scale", "modes", "out"]
    cfg = _resolve(args, keys)
    with _validating():
        spec = _algebra(cfg["algebra"], cfg["n"])
    _require(cfg["seeds"] >= 1 and cfg["modes"] >= 1,
             "seeds and modes must be at least 1")
    # scale is an amplitude; random_element refuses a negative one
    _require(cfg["scale"] >= 0, "scale must be nonnegative")
    _write_manifest(cfg["out"], "check-identities", cfg)
    results = run_identity_suite(
        spec, seeds=range(cfg["seeds"]), scale=cfg["scale"], modes=cfg["modes"]
    )
    all_pass = True
    lines = []
    for name, resid in results.items():
        ok = resid <= IDENTITY_TOL
        all_pass &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: residual={resid:.3e}")
        lines.append(json.dumps(
            {"name": name, "residual": resid, "pass": ok}, sort_keys=True
        ))
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def cmd_check_symbols(args) -> int:
    keys = ["count", "seed", "r_exponent", "radius_min", "radius_max", "out"]
    cfg = _resolve(args, keys)
    with _validating():
        sample_cfg = SampleConfig(
            count=cfg["count"],
            radius_range=(cfg["radius_min"], cfg["radius_max"]),
            rng_seed=cfg["seed"],
            r_exponent=cfg["r_exponent"],
        )
    _require(cfg["seed"] >= 0, "seed must be nonnegative")
    _write_manifest(cfg["out"], "check-symbols", cfg)
    reports = run_symbol_suite(sample_cfg)
    return EXIT_OK if _emit_reports(reports, cfg["out"]) else EXIT_NUMERICAL


def cmd_check_estimates(args) -> int:
    keys = ["seed", "r_exponent", "grid", "estimate_ids", "s", "l",
            "trials", "sweep_count", "out"]
    cfg = _resolve(args, keys)
    with _validating():
        ids = [int(x) for x in str(cfg["estimate_ids"]).split(",") if x]
        sample_cfg = SampleConfig(rng_seed=cfg["seed"], r_exponent=cfg["r_exponent"])
        TorusGrid(cfg["grid"])
    _require(cfg["seed"] >= 0, "seed must be nonnegative")
    bad = [i for i in ids if i not in ESTIMATE_IDS]
    _require(bool(ids), "no estimate ids")
    _require(not bad, f"unknown estimate ids {bad}; valid: {list(ESTIMATE_IDS)}")
    _require(cfg["trials"] >= 1 and cfg["sweep_count"] >= 1,
             "trials and sweep_count must be at least 1")
    _write_manifest(cfg["out"], "check-estimates", cfg)
    reports = []
    for i in ids:
        reports.append(
            empirical_bilinear_constant(
                i, cfg["grid"], sample_cfg, s=cfg["s"], l=cfg["l"],
                trials=cfg["trials"],
            )
        )
    ok = _emit_reports(reports, cfg["out"])
    # delta-integral layer: circle closed form and the elliptic I sweep
    circle = delta_integral_ellipse(2.0, (0.0, 0.0), 0.0, 0.0)
    circle_ok = abs(circle - np.pi) <= 1e-8
    print(f"{'PASS' if circle_ok else 'FAIL'} deltaIntegralCircle: "
          f"value={circle!r} target=pi")
    sup, arg, _ = elliptic_i_sweep(cfg["sweep_count"], 1.1, cfg["seed"])
    sweep_ok = sup <= 4.0
    print(f"{'PASS' if sweep_ok else 'FAIL'} ellipticISweep: sup={sup:.4f} "
          f"threshold=4 argmax={arg} endpointLimit={elliptic_i_limit(1.1):.2f}")
    return EXIT_OK if (ok and circle_ok and sweep_ok) else EXIT_NUMERICAL


def cmd_convergence(args) -> int:
    keys = ["algebra", "n", "grid", "dt", "t_end", "scale", "seed", "out"]
    cfg = _resolve(args, keys)
    with _validating():
        spec = _algebra(cfg["algebra"], cfg["n"])
        grid = TorusGrid(cfg["grid"])
        TorusGrid(cfg["grid"] // 2)  # the coarsest grid of the spatial study
        EvolveConfig(dt=cfg["dt"], t_end=cfg["t_end"])
    _require(cfg["seed"] >= 0, "seed must be nonnegative")
    _require(round(cfg["t_end"] / cfg["dt"]) >= 1, "t_end must span one step")
    _write_manifest(cfg["out"], "convergence", cfg)
    a, a_dot = analytic_potential(spec, grid, cfg["seed"], cfg["scale"])
    state = state_from_potential(a, a_dot)
    order = temporal_order(spec, grid, state, cfg["dt"], cfg["t_end"])
    errs = spatial_errors(
        spec, cfg["seed"], cfg["scale"], (cfg["grid"] // 2, cfg["grid"],
        2 * cfg["grid"]), cfg["dt"], cfg["t_end"],
    )
    ratio = errs[0] / errs[1] if errs[1] > 0 else np.inf
    result = {
        "temporalOrder": order,
        "spatialErrors": errs,
        "spatialRatio": ratio,
    }
    order_ok = order >= 3.5
    ratio_ok = ratio >= 10.0 or errs[1] <= 1e-11
    print(f"{'PASS' if order_ok else 'FAIL'} temporalOrder: {order:.3f} (>= 3.5)")
    print(f"{'PASS' if ratio_ok else 'FAIL'} spatialRatio: {ratio:.3f} (>= 10)")
    with open(cfg["out"], "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK if (order_ok and ratio_ok) else EXIT_NUMERICAL


def cmd_picard(args) -> int:
    keys = ["algebra", "n", "grid", "dt", "t_end", "scale", "seed",
            "iterations", "s", "r_exponent", "out"]
    cfg = _resolve(args, keys)
    with _validating():
        spec = _algebra(cfg["algebra"], cfg["n"])
        grid = TorusGrid(cfg["grid"])
        EvolveConfig(dt=cfg["dt"], t_end=cfg["t_end"])
    _require(cfg["seed"] >= 0, "seed must be nonnegative")
    _require(round(cfg["t_end"] / cfg["dt"]) >= 1, "t_end must span one step")
    # a contraction ratio needs two successive differences
    _require(cfg["iterations"] >= 2, "iterations must be at least 2")
    _require(1.0 < cfg["r_exponent"] <= 2.0, "r exponent must lie in (1, 2]")
    _write_manifest(cfg["out"], "picard", cfg)
    a, a_dot = analytic_potential(spec, grid, cfg["seed"], cfg["scale"])
    state = state_from_potential(a, a_dot)
    diffs, ratios = picard_iterate(
        state, cfg["iterations"], cfg["t_end"], cfg["dt"],
        s=cfg["s"], r=cfg["r_exponent"],
    )
    contracting = all(r <= 0.5 for r in ratios)
    monotone = all(b <= a for a, b in zip(diffs, diffs[1:]))
    print(f"{'PASS' if contracting and monotone else 'FAIL'} picard: "
          f"ratios={[round(r, 4) for r in ratios]}")
    with open(cfg["out"], "w") as fh:
        json.dump({"diffs": diffs, "ratios": ratios}, fh, indent=2)
        fh.write("\n")
    return EXIT_OK if contracting and monotone else EXIT_NUMERICAL


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ym2d",
        description="Verification-grade numerics for the reformulated "
                    "(2+1)D Yang-Mills system in Lorenz gauge.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its keys")
        defaults = {}
        for flag, kwargs in flags.items():
            kwargs = dict(kwargs)
            key = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
            defaults[key] = kwargs.pop("default")
            p.add_argument(flag, default=None, **kwargs)
        p.set_defaults(fn=fn, defaults=defaults)
        return p

    common_algebra = {
        "--algebra": dict(default="su", choices=["su", "so"]),
        "--n": dict(type=int, default=2, help="matrix size of the algebra"),
    }

    add("simulate", cmd_simulate, {
        **common_algebra,
        "--grid": dict(type=int, default=64),
        "--dt": dict(type=float, default=1e-3),
        "--t-end": dict(type=float, default=0.1, dest="t_end"),
        "--scale": dict(type=float, default=1e-2),
        "--seed": dict(type=int, default=0),
        "--stepper": dict(default="RK4", choices=["RK4", "ExpEuler", "ExpRK2"]),
        "--monitor-every": dict(type=int, default=10, dest="monitor_every"),
        "--out": dict(default="diagnostics.csv"),
        "--snapshot-every": dict(type=int, default=0, dest="snapshot_every"),
        "--no-project": dict(action="store_false", default=True, dest="project",
                             help="skip projecting the data onto the Gauss "
                                  "constraint"),
    })
    add("check-identities", cmd_check_identities, {
        **common_algebra,
        "--seeds": dict(type=int, default=20),
        "--scale": dict(type=float, default=0.3),
        "--modes": dict(type=int, default=4),
        "--out": dict(default="identities.jsonl"),
    })
    add("check-symbols", cmd_check_symbols, {
        "--count": dict(type=int, default=10**6),
        "--seed": dict(type=int, default=0),
        "--r-exponent": dict(type=float, default=2.0, dest="r_exponent"),
        "--radius-min": dict(type=float, default=1e-2, dest="radius_min"),
        "--radius-max": dict(type=float, default=1e3, dest="radius_max"),
        "--out": dict(default="symbols.jsonl"),
    })
    add("check-estimates", cmd_check_estimates, {
        "--seed": dict(type=int, default=0),
        "--r-exponent": dict(type=float, default=2.0, dest="r_exponent"),
        "--grid": dict(type=int, default=32),
        "--estimate-ids": dict(default="21,24,25,35", dest="estimate_ids"),
        "--s": dict(type=float, default=0.8),
        "--l": dict(type=float, default=-0.2),
        "--trials": dict(type=int, default=6),
        "--sweep-count": dict(type=int, default=10**4, dest="sweep_count"),
        "--out": dict(default="estimates.jsonl"),
    })
    add("convergence", cmd_convergence, {
        **common_algebra,
        "--grid": dict(type=int, default=64),
        "--dt": dict(type=float, default=4e-3),
        "--t-end": dict(type=float, default=0.05, dest="t_end"),
        "--scale": dict(type=float, default=1e-2),
        "--seed": dict(type=int, default=0),
        "--out": dict(default="convergence.json"),
    })
    add("picard", cmd_picard, {
        **common_algebra,
        "--grid": dict(type=int, default=64),
        "--dt": dict(type=float, default=2.5e-3),
        "--t-end": dict(type=float, default=0.25, dest="t_end"),
        "--scale": dict(type=float, default=1e-2),
        "--seed": dict(type=int, default=0),
        "--iterations": dict(type=int, default=4),
        "--s": dict(type=float, default=0.8),
        "--r-exponent": dict(type=float, default=2.0, dest="r_exponent"),
        "--out": dict(default="picard.json"),
    })
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
