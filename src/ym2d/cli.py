"""Command-line entry points: reproducible experiments and artifact I/O.

Every command resolves its configuration (an optional JSON config file plus
flag overrides), validates all of it, writes a manifest echoing the fully
resolved config next to its main artifact, runs the pipeline, prints one
`PASS|FAIL name: detail` line per check, and exits with:

    0  every check passes (`simulate` has none: its run completed),
    2  configuration or schema violation: an unknown key, a value of the
       wrong type, a non-finite float, a value out of range, or an --out
       that is a directory or next to which the manifest cannot be written;
       nothing is written,
    3  a check fails, or a numerical abort (NaN, divergence), reported as one
       `numerical abort: <reason>` line on stderr; the diagnostics recorded
       before the abort are not printed.

Artifacts are plain CSV (`t,energy,lorenz,gauss,compat,twinDiff`), JSON-lines
bound reports, and "YMF2" binary snapshots; byte-identical for identical
(config, seed) on a fixed platform.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import so, su
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

ALGEBRAS = {"su": su, "so": so}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = fh.read()
        cfg = json.loads(raw) if raw.strip() else None
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or not cfg:
        raise ValueError(f"config {path} must be a nonempty JSON object")
    return cfg


def _resolve(args: argparse.Namespace) -> dict:
    """Precedence: explicit flag > config-file value > built-in default.

    The keys are the command's flags.  Every float must be finite, and every
    value must pass the check declared with its flag.
    """
    file_cfg = _load_config(args.config)
    unknown = set(file_cfg) - set(args.defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for k, default in args.defaults.items():
        val = getattr(args, k)
        if val is None and k in file_cfg:
            val = file_cfg[k]
            want = type(default)
            if want is float and type(val) is int:
                val = float(val)
            if not isinstance(val, want) or isinstance(val, bool) is not (want is bool):
                raise ValueError(
                    f"config key {k!r} must be {want.__name__}, got {val!r}"
                )
        elif val is None:
            val = default
        if isinstance(val, float) and not np.isfinite(val):
            raise ValueError(f"{k} must be finite, got {val!r}")
        ok, requirement = args.checks.get(k, (None, None))
        if ok is not None and not ok(val):
            raise ValueError(f"{k} {requirement}, got {val!r}")
        resolved[k] = val
    return resolved


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_path: str, command: str, resolved: dict):
    p = Path(out_path)
    if p.is_dir():  # the run could not write its artifact there
        raise IsADirectoryError(f"--out {out_path} is a directory")
    _write_json(p.with_name(p.stem + ".manifest.json"),
                {"command": command, "version": __version__, "config": resolved})


def _write_jsonl(path: str, rows):
    with open(path, "w") as fh:
        fh.write("\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n")


def _print_verdicts(checks) -> int:
    """Print each (name, ok, detail) as one PASS/FAIL line; 0 iff all pass."""
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_NUMERICAL


def _report_checks(reports, out_path):
    rows = [rep.to_dict() for rep in reports]
    _write_jsonl(out_path, rows)
    return [(d["name"], d["pass"],
             f"supRatio={d['supRatio']:.6g} threshold={d['threshold']}")
            for d in rows]


def _check_steps(cfg):
    EvolveConfig(dt=cfg["dt"], t_end=cfg["t_end"])
    if round(cfg["t_end"] / cfg["dt"]) < 1:
        raise ValueError("t_end must span one step")


# --- commands -------------------------------------------------------------
# Each command builds its objects from the resolved config, raising
# ValueError for a config it cannot run, and returns the run, which returns
# its checks as (name, ok, detail).

def cmd_simulate(cfg):
    spec = ALGEBRAS[cfg["algebra"]](cfg["n"])
    grid = TorusGrid(cfg["grid"])
    evolve_cfg = EvolveConfig(
        dt=cfg["dt"], t_end=cfg["t_end"], stepper=cfg["stepper"],
        monitor_every=cfg["monitor_every"],
    )
    snap_every = cfg["snapshot_every"]

    def snap(step, state):
        if not snap_every or step % snap_every:
            return
        p = Path(cfg["out"])
        path = p.with_name(f"{p.stem}.step{step:06d}.ymf2")
        comps = list(state.A) + list(state.F)
        with open(path, "wb") as fh:
            write_snapshot(fh, [c.value for c in comps])

    def run():
        a, a_dot = analytic_potential(spec, grid, cfg["seed"], cfg["scale"])
        if cfg["project"]:
            state = project_gauss_data(a, a_dot, tol=1e-10)
        else:
            state = state_from_potential(a, a_dot)
        records = evolve_and_monitor(state, evolve_cfg, on_record=snap)
        records_to_csv(records, cfg["out"])
        print(f"wrote {cfg['out']} ({len(records)} records)")
        return []

    return run


def cmd_check_identities(cfg):
    spec = ALGEBRAS[cfg["algebra"]](cfg["n"])

    def run():
        results = run_identity_suite(
            spec, seeds=range(cfg["seeds"]), scale=cfg["scale"], modes=cfg["modes"]
        )
        rows = [{"name": name, "residual": resid, "pass": resid <= IDENTITY_TOL}
                for name, resid in results.items()]
        _write_jsonl(cfg["out"], rows)
        return [(d["name"], d["pass"], f"residual={d['residual']:.3e}") for d in rows]

    return run


def cmd_check_symbols(cfg):
    sample_cfg = SampleConfig(
        count=cfg["count"],
        radius_range=(cfg["radius_min"], cfg["radius_max"]),
        rng_seed=cfg["seed"],
        r_exponent=cfg["r_exponent"],
    )
    return lambda: _report_checks(run_symbol_suite(sample_cfg), cfg["out"])


def cmd_check_estimates(cfg):
    ids = [int(x) for x in cfg["estimate_ids"].split(",") if x]
    if not ids or not set(ids) <= set(ESTIMATE_IDS):
        raise ValueError(f"estimate ids {cfg['estimate_ids']!r} must be a "
                         f"nonempty list from {list(ESTIMATE_IDS)}")
    sample_cfg = SampleConfig(rng_seed=cfg["seed"], r_exponent=cfg["r_exponent"])
    TorusGrid(cfg["grid"])

    def run():
        reports = [
            empirical_bilinear_constant(
                i, cfg["grid"], sample_cfg, s=cfg["s"], l=cfg["l"],
                trials=cfg["trials"],
            )
            for i in ids
        ]
        checks = _report_checks(reports, cfg["out"])
        # delta-integral layer: circle closed form and the elliptic I sweep
        circle = delta_integral_ellipse(2.0, (0.0, 0.0), 0.0, 0.0)
        sup, arg, _ = elliptic_i_sweep(cfg["sweep_count"], 1.1, cfg["seed"])
        return checks + [
            ("deltaIntegralCircle", abs(circle - np.pi) <= 1e-8,
             f"value={circle!r} target=pi"),
            ("ellipticISweep", sup <= 4.0,
             f"sup={sup:.4f} threshold=4 argmax={arg} "
             f"endpointLimit={elliptic_i_limit(1.1):.2f}"),
        ]

    return run


def cmd_convergence(cfg):
    spec = ALGEBRAS[cfg["algebra"]](cfg["n"])
    grid = TorusGrid(cfg["grid"])
    TorusGrid(cfg["grid"] // 2)  # the coarsest grid of the spatial study
    _check_steps(cfg)

    def run():
        a, a_dot = analytic_potential(spec, grid, cfg["seed"], cfg["scale"])
        state = state_from_potential(a, a_dot)
        order = temporal_order(spec, grid, state, cfg["dt"], cfg["t_end"])
        errs = spatial_errors(
            spec, cfg["seed"], cfg["scale"], (cfg["grid"] // 2, cfg["grid"],
            2 * cfg["grid"]), cfg["dt"], cfg["t_end"],
        )
        ratio = errs[0] / errs[1] if errs[1] > 0 else np.inf
        _write_json(cfg["out"], {
            "temporalOrder": order,
            "spatialErrors": errs,
            "spatialRatio": ratio,
        })
        return [
            ("temporalOrder", order >= 3.5, f"{order:.3f} (>= 3.5)"),
            ("spatialRatio", ratio >= 10.0 or errs[1] <= 1e-11, f"{ratio:.3f} (>= 10)"),
        ]

    return run


def cmd_picard(cfg):
    spec = ALGEBRAS[cfg["algebra"]](cfg["n"])
    grid = TorusGrid(cfg["grid"])
    _check_steps(cfg)

    def run():
        a, a_dot = analytic_potential(spec, grid, cfg["seed"], cfg["scale"])
        state = state_from_potential(a, a_dot)
        diffs, ratios = picard_iterate(
            state, cfg["iterations"], cfg["t_end"], cfg["dt"],
            s=cfg["s"], r=cfg["r_exponent"],
        )
        contracting = all(r <= 0.5 for r in ratios)
        monotone = all(b <= a for a, b in zip(diffs, diffs[1:]))
        _write_json(cfg["out"], {"diffs": diffs, "ratios": ratios})
        return [("picard", contracting and monotone,
                 f"ratios={[round(r, 4) for r in ratios]}")]

    return run


# --- parser ---------------------------------------------------------------

def _at_least(low):
    return (lambda v: v >= low), f"must be at least {low}"


def _one_of(choices):
    return (lambda v: v in choices), f"must be one of {choices}"


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
        defaults, checks = {}, {}
        for flag, kwargs in flags.items():
            kwargs = dict(kwargs)
            key = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
            defaults[key] = kwargs.pop("default")
            if "choices" in kwargs:  # a config-file value meets them too
                kwargs.setdefault("check", _one_of(kwargs["choices"]))
            if "check" in kwargs:
                checks[key] = kwargs.pop("check")
            p.add_argument(flag, default=None, **kwargs)
        p.set_defaults(fn=fn, defaults=defaults, checks=checks)
        return p

    common_algebra = {
        "--algebra": dict(default="su", choices=list(ALGEBRAS)),
        "--n": dict(type=int, default=2, help="matrix size of the algebra"),
    }
    seed = {"--seed": dict(type=int, default=0, check=_at_least(0))}
    r_exponent = {"--r-exponent": dict(
        type=float, default=2.0, dest="r_exponent",
        check=((lambda r: 1.0 < r <= 2.0), "must lie in (1, 2]"),
    )}

    def scale(default):
        # an amplitude, so nonnegative in every command
        return {"--scale": dict(type=float, default=default, check=_at_least(0))}

    add("simulate", cmd_simulate, {
        **common_algebra,
        "--grid": dict(type=int, default=64),
        "--dt": dict(type=float, default=1e-3),
        "--t-end": dict(type=float, default=0.1, dest="t_end"),
        **scale(1e-2),
        **seed,
        "--stepper": dict(default="RK4", choices=["RK4", "ExpEuler", "ExpRK2"]),
        "--monitor-every": dict(type=int, default=10, dest="monitor_every"),
        "--out": dict(default="diagnostics.csv"),
        "--snapshot-every": dict(type=int, default=0, dest="snapshot_every",
                                 check=_at_least(0)),
        "--no-project": dict(action="store_false", default=True, dest="project",
                             help="skip projecting the data onto the Gauss "
                                  "constraint"),
    })
    add("check-identities", cmd_check_identities, {
        **common_algebra,
        "--seeds": dict(type=int, default=20, check=_at_least(1)),
        **scale(0.3),
        "--modes": dict(type=int, default=4, check=_at_least(1)),
        "--out": dict(default="identities.jsonl"),
    })
    add("check-symbols", cmd_check_symbols, {
        "--count": dict(type=int, default=10**6),
        **seed,
        **r_exponent,
        "--radius-min": dict(type=float, default=1e-2, dest="radius_min"),
        "--radius-max": dict(type=float, default=1e3, dest="radius_max"),
        "--out": dict(default="symbols.jsonl"),
    })
    add("check-estimates", cmd_check_estimates, {
        **seed,
        **r_exponent,
        "--grid": dict(type=int, default=32),
        "--estimate-ids": dict(default="21,24,25,35", dest="estimate_ids"),
        "--s": dict(type=float, default=0.8),
        "--l": dict(type=float, default=-0.2),
        "--trials": dict(type=int, default=6, check=_at_least(1)),
        "--sweep-count": dict(type=int, default=10**4, dest="sweep_count",
                              check=_at_least(1)),
        "--out": dict(default="estimates.jsonl"),
    })
    add("convergence", cmd_convergence, {
        **common_algebra,
        "--grid": dict(type=int, default=64),
        "--dt": dict(type=float, default=4e-3),
        "--t-end": dict(type=float, default=0.05, dest="t_end"),
        **scale(1e-2),
        **seed,
        "--out": dict(default="convergence.json"),
    })
    add("picard", cmd_picard, {
        **common_algebra,
        "--grid": dict(type=int, default=64),
        "--dt": dict(type=float, default=2.5e-3),
        "--t-end": dict(type=float, default=0.25, dest="t_end"),
        **scale(1e-2),
        **seed,
        # a contraction ratio needs two successive differences
        "--iterations": dict(type=int, default=4, check=_at_least(2)),
        "--s": dict(type=float, default=0.8),
        **r_exponent,
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
        cfg = _resolve(args)
        run = args.fn(cfg)
        _write_manifest(cfg["out"], args.command, cfg)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        checks = run()
    except (FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return _print_verdicts(checks)


if __name__ == "__main__":
    sys.exit(main())
