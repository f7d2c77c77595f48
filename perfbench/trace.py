"""Span tracer that wraps ym2d's public functions from outside the package.

The program looks its collaborators up at call time (``np.fft.rfft2``, the
module-level ``dealiased_product`` binding in ``ym2d.nullforms``, the
``assemble_rhs`` binding in ``ym2d.evolve`` ...).  ``Tracer.install`` replaces
every such binding of a traced function -- in each ym2d module, in
``numpy.fft``, on ``GridField`` and in ``identities.IDENTITY_CHECKS`` -- with
a wrapper that records one span (name, start, end, parent) per call, and
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Spans stay in memory until ``Tracer.dump`` writes them out at the end of a
run; ``layer_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import json
import sys
import time
import warnings

import numpy as np


def _field_kind(args):
    """'grid' or 'pw' for a FieldState / tuple-of-SpacetimePair argument."""
    first = args[0]
    pair = first.A[0] if hasattr(first, "A") else first[0]
    return "grid" if type(pair.value).__name__ == "GridField" else "pw"


def _targets():
    """(owner, attribute, span name, namer) for every traced function.

    A namer maps the call arguments to a span-name suffix.
    """
    from ym2d import (algebra, estimates, evolve, identities, nullforms, planewave,
                      spectral, ym)

    G = spectral.GridField
    out = [(np.fft, f, f"fft.{f}", None) for f in ("rfft2", "irfft2", "fft2", "ifft2")]
    out += [
        (algebra, "bracket_coeffs", "algebra.bracket_coeffs", None),
        (spectral, "dealiased_product", "spectral.dealiased_product", None),
        (spectral, "weighted_hat_norm", "spectral.weighted_hat_norm", None),
        (spectral, "write_snapshot", "spectral.write_snapshot", None),
        (G, "from_rhat", "spectral.GridField.from_rhat", None),
    ]
    out += [
        (G, m, "spectral.multiplier", None)
        for m in ("dx", "lambda_pow", "d_pow", "riesz", "laplacian", "inv_laplacian",
                  "dealias")
    ]
    out += [
        (planewave, "pw_product", "planewave.pw_product", None),
        (nullforms, "null_form", "nullforms.null_form", None),
        (ym, "assemble_rhs", "ym.assemble_rhs", _field_kind),
        (ym, "ym4_rhs", "ym.ym4_rhs", _field_kind),
        (ym, "constraint_residuals", "ym.constraint_residuals", None),
        (ym, "energy", "ym.energy", None),
        (ym, "project_gauss_data", "ym.project_gauss_data", None),
    ]
    out += [
        (evolve, f, f"evolve.{f}", None)
        for f in ("evolve_and_monitor", "step_half_wave", "picard_iterate",
                  "to_half_wave", "from_half_wave", "array_from_state",
                  "state_from_array", "records_to_csv")
    ]
    out += [
        (identities, fn.__name__, f"identities.{name}", None)
        for name, fn in identities.IDENTITY_CHECKS.items()
    ]
    out += [
        (identities, "run_identity_suite", "identities.run_identity_suite", None),
        (estimates, "check_gamma1_symbol", "estimates.gamma1Symbol", None),
        (estimates, "check_fk_symbol_bounds", "estimates.fk",
         lambda args: args[0]),
        (estimates, "check_angle_estimate", "estimates.angleEstimate", None),
        (estimates, "check_hyperbolic_leibniz", "estimates.hyperbolicLeibniz", None),
        (estimates, "run_symbol_suite", "estimates.run_symbol_suite", None),
        (estimates, "elliptic_i_sweep", "estimates.elliptic_i_sweep", None),
        (estimates, "elliptic_i", "estimates.elliptic_i", None),
        (estimates, "quad", "estimates.quad", None),
    ]
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []  # per span: index into self.names
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self._patches = []  # callables that undo one replacement each
        self.counts = {"planewave.mode_pairs": 0, "estimates.quad_warnings": 0}

    def _nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name, namer):
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        nid = self._nid(name)
        clock = time.perf_counter
        counts = self.counts
        tracer = self

        def before(args):
            i = len(starts)
            names.append(nid if namer is None
                         else tracer._nid(f"{name}.{namer(args)}"))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            return i

        def after(i):
            ends[i] = clock()
            stack.pop()

        if name == "planewave.pw_product":
            def traced(*args, **kwargs):
                counts["planewave.mode_pairs"] += args[0].mode_count * args[1].mode_count
                i = before(args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    after(i)
        elif name == "estimates.quad":
            from scipy.integrate import IntegrationWarning

            def traced(*args, **kwargs):
                i = before(args)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", IntegrationWarning)
                        return fn(*args, **kwargs)
                finally:
                    after(i)
                    counts["estimates.quad_warnings"] += sum(
                        issubclass(w.category, IntegrationWarning) for w in caught)
        else:
            def traced(*args, **kwargs):
                i = before(args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    after(i)
        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """fn(*args) under a root span of the given name."""
        return self._wrap(fn, name, None)(*args)

    def install(self):
        """Replace every binding of each traced function by its wrapper."""
        from ym2d import identities

        modules = [m for k, m in sys.modules.items() if k.startswith("ym2d.")]
        for owner, attr, name, namer in _targets():
            raw = vars(owner)[attr]
            is_static = isinstance(raw, staticmethod)
            orig = raw.__func__ if is_static else raw
            w = self._wrap(orig, name, namer)
            self._patch(owner, attr, staticmethod(w) if is_static else w, raw)
            if owner is np.fft or isinstance(owner, type):
                continue
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is orig and not (mod is owner and k == attr):
                        self._patch(mod, k, w, v)
            for k, v in list(identities.IDENTITY_CHECKS.items()):
                if v is orig:
                    self._patch_item(identities.IDENTITY_CHECKS, k, w, v)

    def _patch(self, obj, attr, new, old):
        setattr(obj, attr, new)
        self._patches.append(lambda: setattr(obj, attr, old))

    def _patch_item(self, d, key, new, old):
        d[key] = new
        self._patches.append(lambda: d.__setitem__(key, old))

    def uninstall(self):
        while self._patches:
            self._patches.pop()()

    def dump(self, path):
        """Write the spans as {names, spans: [[name, start, end, parent], ...]}."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "counts": self.counts,
                "spans": [list(s) for s in zip(self.name, self.start, self.end,
                                               self.parent)],
            }, fh)


# --- per-layer aggregation --------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, units: dict) -> dict:
    """Per-layer numbers from the recorded spans.

    The runner records each traced call under a root span, 'run.setup' or
    'run.round'.  units holds what the rounds count themselves: 'rounds',
    'steps' (time steps of any integrator), 'exprk2_steps', 'picard_sweeps',
    'identity_seeds' and 'snapshot_bytes'.
    """
    names = tr.names
    nm = [names[i] for i in tr.name]
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    parent = tr.parent
    n = len(nm)
    # nearest enclosing span of interest, by one forward pass (parents come
    # before their children)
    rhs = [-1] * n          # enclosing ym.assemble_rhs.*
    in_round = [False] * n  # inside run.round (not set-up)
    hw_step = [False] * n  # inside evolve.step_half_wave
    in_proj = [False] * n  # inside ym.project_gauss_data
    nf_nested = [False] * n  # null_form inside another null_form
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        name = nm[i]
        if p >= 0:
            child[p] += dur[i]
            rhs[i] = rhs[p]
            in_round[i] = in_round[p]
            hw_step[i] = hw_step[p]
            in_proj[i] = in_proj[p]
            nf_nested[i] = nf_nested[p] or nm[p] == "nullforms.null_form"
        if name.startswith("ym.assemble_rhs."):
            rhs[i] = i
        elif name == "run.round":
            in_round[i] = True
        elif name == "evolve.step_half_wave":
            hw_step[i] = True
        elif name == "ym.project_gauss_data":
            in_proj[i] = True

    def count(pred):
        return sum(1 for i in range(n) if pred(i))

    def total(pred):
        return sum(dur[i] for i in range(n) if pred(i))

    in_grid_rhs = [r >= 0 and nm[r] == "ym.assemble_rhs.grid" for r in rhs]
    r_grid = count(lambda i: nm[i] == "ym.assemble_rhs.grid")
    r_pw = count(lambda i: nm[i] == "ym.assemble_rhs.pw")
    seeds = units["identity_seeds"]
    records = count(lambda i: in_round[i] and nm[i] == "ym.energy")
    snaps = count(lambda i: nm[i] == "spectral.write_snapshot")
    points = count(lambda i: nm[i] == "estimates.elliptic_i")
    projections = count(lambda i: nm[i] == "ym.project_gauss_data")
    steps = units["steps"]
    sweeps = units["picard_sweeps"]
    hw_steps = units["exprk2_steps"]
    round_s = total(lambda i: nm[i] == "run.round")

    def grid_rhs(name):
        return lambda i: in_grid_rhs[i] and nm[i] == name

    def grid_rhs_prefix(prefix):
        return lambda i: in_grid_rhs[i] and nm[i].startswith(prefix)

    mult = count(grid_rhs("spectral.multiplier"))
    served = mult - count(grid_rhs("spectral.GridField.from_rhat"))
    out = {
        "algebra.bracket_calls_per_rhs": _ratio(count(grid_rhs("algebra.bracket_coeffs")), r_grid),
        "algebra.bracket_s_per_rhs": _ratio(total(grid_rhs("algebra.bracket_coeffs")), r_grid),
        "spectral.rfft2_per_rhs": _ratio(count(grid_rhs("fft.rfft2")), r_grid),
        "spectral.irfft2_per_rhs": _ratio(count(grid_rhs("fft.irfft2")), r_grid),
        "spectral.fft_s_per_rhs": _ratio(total(grid_rhs_prefix("fft.")), r_grid),
        "spectral.multiplier_memo_hit_ratio": _ratio(served, mult),
        "spectral.products_per_rhs": _ratio(count(grid_rhs("spectral.dealiased_product")), r_grid),
        "spectral.product_s_per_rhs": _ratio(total(grid_rhs("spectral.dealiased_product")), r_grid),
        "spectral.fft2_per_step": _ratio(
            count(lambda i: hw_step[i] and nm[i] == "fft.fft2"), hw_steps),
        "spectral.ifft2_per_step": _ratio(
            count(lambda i: hw_step[i] and nm[i] == "fft.ifft2"), hw_steps),
        "spectral.weighted_hat_norm_s": _ratio(
            total(lambda i: nm[i] == "spectral.weighted_hat_norm"), sweeps),
        "spectral.snapshot_bytes": _ratio(units["snapshot_bytes"], snaps),
        "spectral.snapshot_s": _ratio(
            total(lambda i: nm[i] == "spectral.write_snapshot"), snaps),
        "planewave.pw_product_calls_per_seed": _ratio(
            count(lambda i: nm[i] == "planewave.pw_product"), seeds),
        "planewave.mode_pairs_per_seed": _ratio(tr.counts["planewave.mode_pairs"], seeds),
        "planewave.pw_product_s_per_seed": _ratio(
            total(lambda i: nm[i] == "planewave.pw_product"), seeds),
        "nullforms.null_form_calls_per_rhs": _ratio(
            count(lambda i: rhs[i] >= 0 and nm[i] == "nullforms.null_form"), r_grid + r_pw),
        "nullforms.null_form_s_per_rhs": _ratio(
            total(lambda i: rhs[i] >= 0 and nm[i] == "nullforms.null_form"
                  and not nf_nested[i]), r_grid + r_pw),
        "ym.assemble_rhs_grid_s": _ratio(
            total(lambda i: nm[i] == "ym.assemble_rhs.grid"), r_grid),
        "ym.assemble_rhs_pw_s": _ratio(
            total(lambda i: nm[i] == "ym.assemble_rhs.pw"), r_pw),
        "ym.ym4_rhs_s": _ratio(
            total(lambda i: nm[i].startswith("ym.ym4_rhs.")),
            count(lambda i: nm[i].startswith("ym.ym4_rhs."))),
        "ym.monitor_s": _ratio(
            total(lambda i: in_round[i] and not in_proj[i] and nm[i] in (
                "ym.constraint_residuals", "ym.energy")), records),
        "ym.monitor_round_pct": 100.0 * _ratio(
            total(lambda i: in_round[i] and not in_proj[i] and nm[i] in (
                "ym.constraint_residuals", "ym.energy")), round_s),
        "spectral.snapshot_round_pct": 100.0 * _ratio(
            total(lambda i: in_round[i] and nm[i] == "spectral.write_snapshot"), round_s),
        "ym.project_gauss_data_s": _ratio(
            total(lambda i: nm[i] == "ym.project_gauss_data"), projections),
        "ym.project_iterations": _ratio(
            count(lambda i: in_proj[i] and nm[i] == "ym.constraint_residuals"),
            projections),
        "evolve.self_s_per_step": _ratio(
            sum(dur[i] - child[i] for i in range(n)
                if in_round[i] and nm[i].startswith("evolve.")), steps),
        "evolve.half_wave_convert_s": _ratio(
            total(lambda i: in_round[i] and nm[i] in (
                "evolve.to_half_wave", "evolve.from_half_wave")), steps),
    }
    from ym2d.identities import IDENTITY_CHECKS

    for check in IDENTITY_CHECKS:
        out[f"identities.{check}_s"] = _ratio(
            total(lambda i, c=f"identities.{check}": nm[i] == c), seeds)
    for report in SYMBOL_REPORTS:
        out[f"estimates.{report}_s"] = _ratio(
            total(lambda i, c=f"estimates.{report}".replace("fk_", "fk."): nm[i] == c),
            units["rounds"])
    out["estimates.elliptic_i_s"] = _ratio(
        total(lambda i: nm[i] == "estimates.elliptic_i"), points)
    out["estimates.quad_calls"] = _ratio(
        count(lambda i: nm[i] == "estimates.quad"), points)
    out["estimates.quad_warnings"] = _ratio(
        tr.counts["estimates.quad_warnings"], units["rounds"])
    return out


SYMBOL_REPORTS = (
    "gamma1Symbol", "fk_ellipticQ12", "fk_hyperbolicQ12", "fk_ellipticQ0j",
    "fk_ellipticQ0", "fk_hyperbolicQ0", "angleEstimate", "hyperbolicLeibniz",
)
