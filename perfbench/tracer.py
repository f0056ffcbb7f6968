"""Spans around warpcmc's public entry points, installed from outside.

The library is not edited.  ``Tracer.install`` replaces each entry point
in every namespace that holds it (the package, the defining module and
any module that imported it by name, such as ``cli`` importing
``make_model`` or ``run_flow`` looking ``step`` up in its module globals)
and ``Tracer.uninstall`` puts the originals back.  Spans stay in memory as
flat lists and are aggregated at the end of each traced batch.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

MARK = "__perfbench_layer__"

# layer -> entry points, as (module, attribute path)
LAYERS = {
    "models.build": [("warpcmc.models", "make_model"), ("warpcmc.models", "omega_to_warping")],
    "models.inverse": [("warpcmc.models", "OmegaBackedWarping.area_radius_of_distance")],
    "warping.jet": [("warpcmc.warping", "WarpingFunction.jet")],
    "warping.conditions": [
        ("warpcmc.warping", "check_conditions"),
        ("warpcmc.warping", "scan_monotonicity_extrema"),
        ("warpcmc.warping", "potential_monotone_radius"),
    ],
    "spectral.engine": [
        ("warpcmc.spectral", "SphericalHarmonicEngine.__init__"),
        ("warpcmc.spectral", "AxisymEngine.__init__"),
    ],
    "spectral.transform": [
        ("warpcmc.spectral", "SphericalHarmonicEngine.analyze"),
        ("warpcmc.spectral", "SphericalHarmonicEngine.synthesize"),
        ("warpcmc.spectral", "AxisymEngine.analyze"),
        ("warpcmc.spectral", "AxisymEngine.synthesize"),
    ],
    "spectral.frame_jet": [
        ("warpcmc.spectral", "SphericalHarmonicEngine.on_frame_jet"),
        ("warpcmc.spectral", "AxisymEngine.on_frame_jet"),
    ],
    "surface.build": [("warpcmc.surface", "perturb_slice"), ("warpcmc.surface", "slice_surface")],
    "surface.geometry": [("warpcmc.surface", "GraphSurface.geometry")],
    "surface.volume": [("warpcmc.surface", "GraphSurface.enclosed_weighted_volume")],
    "identities": [
        ("warpcmc.identities", "minkowski_check"),
        ("warpcmc.identities", "minkowski_weighted_check"),
        ("warpcmc.identities", "hk_check"),
    ],
    "cmc.solve": [("warpcmc.cmc", "find_cmc")],
    "cmc.verdict": [("warpcmc.cmc", "umbilicity_verdict")],
    "flow.run": [("warpcmc.flow", "run_flow"), ("warpcmc.flow", "init_flow")],
    "flow.step": [("warpcmc.flow", "step")],
    "flow.audit": [("warpcmc.flow", "monotonicity_audit"), ("warpcmc.flow", "area_floor_check")],
    "cli.main": [("warpcmc.cli", "main")],
    "cli.write": [("warpcmc.cli", "Emitter.write")],
}

# span record fields
LAYER, START, END, PARENT, CASE, SIZE = range(6)


def _transform_bytes(args, kwargs) -> int:
    """Computed bytes of the Legendre/Gegenbauer tables one transform reads."""
    engine = args[0]
    if engine.kind == "full":
        per_table = (engine.lmax + 1) ** 2 * engine.nlat * 8
    else:
        per_table = (engine.lmax + 1) * engine.npoints * 8
    dtheta = args[2] if len(args) > 2 else kwargs.get("dtheta", 0)
    return per_table * (2 if engine.kind == "axisym" and dtheta == 2 else 1)


def _size_of(layer, args, kwargs, out):
    """Per-call quantity recorded next to a span (points, bytes, iterations)."""
    if layer in ("warping.jet", "models.inverse"):
        return int(np.size(args[1]))
    if layer == "spectral.transform":
        return _transform_bytes(args, kwargs)
    if layer == "cli.write":
        return os.path.getsize(out)
    if layer == "cmc.solve":
        return (out.iterations, bool(out.converged))
    if layer == "flow.step":
        return int(np.count_nonzero(args[0].active & ~out.active))
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = None
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.case, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[SIZE] = _size_of(layer, args, kwargs, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, layer)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "warpcmc" or name.startswith("warpcmc."))]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = sys.modules.get(module_name)
                if owner is None:  # e.g. warpcmc.cli before a workload imports it
                    continue
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(layer, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if not outer:
                    # module-level function: every namespace holding it by name
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is original:
                                self._saved.append((ns, key, original))
                                setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans = []
        self.stack = []


def installed_wrappers() -> list[str]:
    """Names of traced wrappers currently reachable in any warpcmc namespace."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "warpcmc" or name.startswith("warpcmc.")):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{name}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{name}.{key}.{attr}")
    return found


# ---------------------------------------------------------------------------
# aggregation


def aggregate(spans: list[list]) -> dict:
    """Per-layer counts, self times and sizes, plus tracer self-checks.

    A span's self time is its duration minus the durations of its children;
    calls are sequential, so children never overlap.  Returns a dict with
    ``layers`` (per-layer totals), ``roots_s`` (sum of root durations) and
    ``tree_error_s`` (largest |sum of self times in a tree - root duration|).
    """
    count = len(spans)
    self_time = [s[END] - s[START] for s in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]
    root_of = [0] * count
    under_step = [False] * count
    tree_self: dict[int, float] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        root_of[i] = i if p < 0 else root_of[p]
        under_step[i] = p >= 0 and (under_step[p] or spans[p][LAYER] == "flow.step")
        tree_self[root_of[i]] = tree_self.get(root_of[i], 0.0) + self_time[i]
    tree_error = max((abs(tree_self[r] - (spans[r][END] - spans[r][START])) for r in tree_self),
                     default=0.0)
    layers = {name: {"calls": 0, "self_s": 0.0, "size": 0} for name in LAYERS}
    cmc_iters, cmc_max, cmc_conv, step_jets, deactivated = 0, 0, 0, 0, 0
    for i, s in enumerate(spans):
        entry = layers[s[LAYER]]
        entry["calls"] += 1
        entry["self_s"] += self_time[i]
        if s[LAYER] == "cmc.solve":
            iters, converged = s[SIZE]
            cmc_iters += iters
            cmc_max = max(cmc_max, iters)
            cmc_conv += converged
        elif s[LAYER] == "flow.step":
            deactivated += s[SIZE]
        else:
            entry["size"] += s[SIZE]
        if s[LAYER] == "warping.jet" and under_step[i]:
            step_jets += 1
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return {
        "layers": layers,
        "cmc": {"iterations": cmc_iters, "iterations_max": cmc_max, "converged": cmc_conv},
        "flow": {"step_jet_calls": step_jets, "nodes_deactivated": deactivated},
        "roots_s": roots,
        "tree_error_s": tree_error,
        "spans": count,
    }
