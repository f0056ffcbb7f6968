"""Command-line front end.

Subcommands: ``check`` (structure conditions), ``verify`` (integral
identities), ``flow`` (conformal flow plus monotonicity audit),
``cmc`` (CMC corpus experiments), ``models`` (list built-ins).

A run is described by a JSON config document whose keys are exactly the
dotted paths of the option rows below, one row per option; each flag
overrides its row's key, and the output directory resolves as flag,
then WARPCMC_OUTDIR, then config, then the working directory.  Output
files are plain comma-separated tables (or json-lines) with '#'
header lines carrying the tool version, model spec, and resolution;
nothing time-dependent is written, so identical runs produce
byte-identical files.

Exit codes: 0 success, 1 internal error, 2 hypothesis or parameter
violation, 3 audited inequality violation.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .cmc import CMC_MAX_ITER, CMC_TOL, find_cmc, umbilicity_verdict
from .errors import (
    DomainError,
    HypothesisError,
    NotApplicableError,
    ParameterError,
    WarpcmcError,
)
from .flow import FLOW_JACOBIAN_CUT, AuditRow, area_floor_check, monotonicity_audit, run_flow
from .identities import hk_check, minkowski_check, minkowski_weighted_check
from .models import MODEL_FAMILIES, OmegaBackedWarping, make_model
from .surface import (
    GraphSurface,
    axisym_grid,
    full_sphere_grid,
    perturb_slice,
)
from .warping import (
    CONDITION_GRID_SIZE,
    CONDITION_NAMES,
    check_conditions,
    scan_monotonicity_extrema,
)

__all__ = ["main"]

DEFAULTS = {
    "model": {"family": "schwarzschild", "n": 3},
    "grid": {"mode": "axisym", "size": 128},
    "surface": {"radius": None, "s": None, "modes": []},
    "flow": {"t_end": 1.0, "dt_max": None, "record_every": 1, "epsilon_cut": FLOW_JACOBIAN_CUT},
    "cmc": {
        "tol": CMC_TOL,
        "max_iter": CMC_MAX_ITER,
        "corpus": {"count": 0, "seed": 1, "amplitude": 0.05, "max_degree": 4},
    },
    "output": {"dir": None, "format": "table"},
}

# One row per option: flag, the dotted config path it overrides, its type or
# a tuple of choices, and its help text.  --config names the file itself.
MODEL_PARAMS = (
    ("--m", "model.m", float, "mass parameter"),
    ("--q", "model.q", float, "charge parameter"),
    ("--kappa", "model.kappa", float, "cosmological curvature"),
    ("--curvature", "model.curvature", float, "space-form curvature"),
    ("--r-bar", "model.r_bar", float, "chart radius"),
    ("--s-max", "model.s_max", float, "outer area radius"),
    ("--knots", "model.knots", int, "arc-length samples of h"),
    ("--path", "model.path", str, "omega table path"),
)
COMMON_OPTIONS = (
    ("--config", None, str, "JSON config file"),
    ("--model", "model.family", str, "model family name"),
    ("--n", "model.n", int, "ambient dimension"),
    *MODEL_PARAMS,
    ("--variant", "model.variant", ("boundary", "ball"), "expected variant"),
    ("--out", "output.dir", str, "output directory"),
    ("--format", "output.format", ("table", "json-lines"), "report format"),
)
SURFACE_OPTIONS = (
    ("--grid-mode", "grid.mode", ("full", "axisym"), "spectral mode"),
    ("--grid-size", "grid.size", int, "grid resolution"),
    ("--radius", "surface.radius", float, "slice radius (arc length)"),
    ("--s", "surface.s", float, "slice area radius (horizon families)"),
    ("--modes", "surface.modes", str, "perturbation list degree,order,amp;..."),
)
FLOW_OPTIONS = (
    ("--t-end", "flow.t_end", float, "flow end time"),
    ("--dt-max", "flow.dt_max", float, "largest step"),
    ("--record-every", "flow.record_every", int, "steps between records"),
    ("--epsilon-cut", "flow.epsilon_cut", float, "jacobian deactivation cut"),
)
CMC_OPTIONS = (
    ("--cmc-tol", "cmc.tol", float, "residual tolerance"),
    ("--max-iter", "cmc.max_iter", int, "iteration cap"),
    ("--corpus-count", "cmc.corpus.count", int, "random corpus size"),
    ("--corpus-seed", "cmc.corpus.seed", int, "corpus seed"),
    ("--corpus-amplitude", "cmc.corpus.amplitude", float, "perturbation amplitude"),
    ("--corpus-max-degree", "cmc.corpus.max_degree", int, "largest perturbed degree"),
)

# the make_model parameters, in the order '# model:' header lines list them
MODEL_PARAM_KEYS = tuple(path.split(".")[1] for _, path, _, _ in MODEL_PARAMS)

FAMILY_TABLE = [
    (family, spec["variant"], ", ".join(spec["params"]))
    for family, spec in MODEL_FAMILIES.items()
]


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


class Emitter:
    """Writes delimited tables with deterministic headers."""

    def __init__(self, cfg: dict, w, resolution_line: str):
        self.outdir, self.fmt = cfg["output"]["dir"], cfg["output"]["format"]
        if self.fmt not in ("table", "json-lines"):
            raise ParameterError(f"unknown report format {self.fmt!r}")
        model = cfg["model"]
        parts = [f"family={model['family']}", f"n={w.dim}", f"variant={w.variant}"]
        parts += [f"{k}={model[k]}" for k in MODEL_PARAM_KEYS if model.get(k) is not None]
        self.model_line = " ".join(parts)
        self.resolution_line = resolution_line
        os.makedirs(self.outdir, exist_ok=True)

    def write(self, stem: str, columns, rows, extra_comments=()) -> str:
        ext = "csv" if self.fmt == "table" else "jsonl"
        path = os.path.join(self.outdir, f"{stem}.{ext}")
        lines = []
        if self.fmt == "table":
            lines.append(f"# warpcmc {__version__}")
            lines.append(f"# model: {self.model_line}")
            lines.append(f"# resolution: {self.resolution_line}")
            for comment in extra_comments:
                lines.append(f"# {comment}")
            lines.append("# columns: " + ",".join(columns))
            for row in rows:
                lines.append(",".join(map(_fmt, row)))
        else:
            head = {
                "warpcmc": __version__,
                "model": self.model_line,
                "resolution": self.resolution_line,
            }
            for comment in extra_comments:
                head.setdefault("notes", []).append(comment)
            lines.append(json.dumps(head, sort_keys=True))
            for row in rows:
                lines.append(
                    json.dumps(
                        {c: _jsonable(v) for c, v in zip(columns, row)}, sort_keys=True
                    )
                )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


# ---------------------------------------------------------------------------
# config assembly


def _load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read the config file: {exc}") from exc
        except ValueError as exc:  # invalid JSON, or text that is not UTF-8
            raise ParameterError(f"{path}: not a JSON document: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError(f"{path}: config must be a JSON object")
        _merge(cfg, loaded, path)
    return cfg


def _merge(cfg: dict, doc: dict, source: str, prefix: str = "") -> None:
    """Merge a loaded document into ``cfg``; a key whose value is None keeps its default.

    A key that no option row declares, or a section that is not an
    object, is a ParameterError that names it.
    """
    for key, value in doc.items():
        path = prefix + key
        if path in CONFIG_SECTIONS:
            if not isinstance(value, dict):
                raise ParameterError(f"{source}: config section {path} must be an object")
            _merge(cfg[key], value, source, path + ".")
        elif path not in CONFIG_TYPES:
            raise ParameterError(f"{source}: unknown config key {path}")
        elif value is not None:
            cfg[key] = value


def _parse_modes(value):
    """(degree, order, amplitude) triples from "l,m,amp;..." text or a list of triples."""
    if isinstance(value, str):
        value = [chunk.split(",") for chunk in value.split(";") if chunk.strip()]
    modes = []
    for parts in value:
        if len(parts) != 3:
            text = ",".join(map(str, parts))
            raise ParameterError(f"mode {text!r} must be degree,order,amplitude")
        modes.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return modes


# the config keys, each the dotted path of one option row, and what its value
# converts to: the type the row declares (a choice is a str, checked where read)
CONFIG_TYPES = {
    path: str if isinstance(kind, tuple) else kind
    for _, path, kind, _ in COMMON_OPTIONS + SURFACE_OPTIONS + FLOW_OPTIONS + CMC_OPTIONS
    if path
}
CONFIG_TYPES["surface.modes"] = _parse_modes
# the objects that hold them: model, grid, ..., cmc and cmc.corpus
CONFIG_SECTIONS = {path[:i] for path in CONFIG_TYPES for i, c in enumerate(path) if c == "."}


def _apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Set each given flag's value at its row's config path, then convert and check.

    The output directory is --out, else WARPCMC_OUTDIR, else the config's,
    else the working directory.  Every value is converted once, here,
    inside main's error handling: one that does not convert, a boolean for
    a number or a non-integral float for an integer is a ParameterError.
    """
    _, _, options = COMMANDS[args.command]
    for _, path, _, _ in options:
        value = getattr(args, path) if path else None
        if path == "output.dir" and value is None:
            value = os.environ.get("WARPCMC_OUTDIR") or cfg["output"]["dir"] or "."
        if value is not None:
            *parents, key = path.split(".")
            functools.reduce(dict.__getitem__, parents, cfg)[key] = value
    for path, convert in CONFIG_TYPES.items():
        *parents, key = path.split(".")
        node = functools.reduce(dict.__getitem__, parents, cfg)
        value = node.get(key)
        try:
            inexact = convert is int and isinstance(value, float) and not value.is_integer()
            if inexact or convert in (int, float) and isinstance(value, bool):
                raise ValueError(f"{value!r} is not {'an integer' if convert is int else 'a number'}")
            if value is not None:
                node[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"config value {path}: {exc}") from exc

    if not (8 <= cfg["grid"]["size"] <= 4096):
        raise ParameterError("grid size must lie in [8, 4096]")
    return cfg


# ---------------------------------------------------------------------------
# shared builders


def _build_model(cfg: dict):
    model = cfg["model"]
    family = model["family"]
    n = model["n"]
    params = {k: model[k] for k in MODEL_PARAM_KEYS if model.get(k) is not None}
    w = make_model(family, n, **params)
    wanted = model.get("variant")
    if wanted is not None and wanted != w.variant:
        raise ParameterError(
            f"family {family!r} is a {w.variant}-type ambient, not {wanted!r}"
        )
    return w


def _build_engine(cfg: dict, w):
    mode = cfg["grid"]["mode"]
    size = cfg["grid"]["size"]
    if mode == "full":
        return full_sphere_grid(size)
    if mode == "axisym":
        return axisym_grid(w.dim, size)
    raise ParameterError(f"unknown grid mode {mode!r}")


def _base_radius(cfg: dict, w) -> float:
    surface = cfg["surface"]
    if surface.get("radius") is not None:
        return surface["radius"]
    if surface.get("s") is not None:
        if not isinstance(w, OmegaBackedWarping):
            raise ParameterError("an area-radius surface spec needs a horizon family")
        return float(w.distance_of_area_radius(surface["s"]))
    return 0.5 * w.r_bar


def _build_surface(cfg: dict, w, engine):
    return perturb_slice(w, engine, _base_radius(cfg, w), cfg["surface"]["modes"])


# ---------------------------------------------------------------------------
# commands


def cmd_check(cfg: dict) -> int:
    w = _build_model(cfg)
    report = check_conditions(w)
    records = scan_monotonicity_extrema(w)

    emitter = Emitter(cfg, w, f"mode=radial size={CONDITION_GRID_SIZE}")
    rows = [
        (name, report.status[name], report.min_margin[name], report.worst_radius[name])
        for name in CONDITION_NAMES
    ]
    path = emitter.write(
        f"conditions_{w.name}",
        ("condition", "status", "min_margin", "worst_radius"),
        rows,
        extra_comments=(
            f"required_pass: {_fmt(report.required_pass)}",
            f"conclusion: {report.conclusion}",
        ),
    )
    # Python floats take the fast path of _fmt
    margined = CONDITION_NAMES[1:]  # regularity is a condition at r = 0 alone
    margins = [report.margins[name].tolist() for name in margined]
    emitter.write(
        f"margins_{w.name}", ("radius", *margined), list(zip(report.radii.tolist(), *margins))
    )
    emitter.write(
        f"extrema_{w.name}",
        ("radius", "kind", "value", "ricci_distinct"),
        [(rec.radius, rec.kind, rec.value, rec.ricci_distinct) for rec in records],
    )

    for name in CONDITION_NAMES:
        print(f"{name}: {report.status[name]} (min margin {report.min_margin[name]:.3e})")
    print(f"conclusion: {report.conclusion}")
    print(f"wrote {path}")
    return 0 if report.required_pass else 3


def cmd_verify(cfg: dict) -> int:
    w = _build_model(cfg)
    engine = _build_engine(cfg, w)
    surface = _build_surface(cfg, w, engine)
    reports = [minkowski_check(surface)]
    if w.variant == "boundary":
        reports.append(minkowski_weighted_check(surface))
    reports.append(hk_check(surface))

    emitter = Emitter(cfg, w, f"mode={engine.kind} size={cfg['grid']['size']}")
    rows = [
        (rep.name, rep.lhs, rep.rhs, rep.residual, rep.tol, rep.verdict)
        for rep in reports
    ]
    path = emitter.write(
        f"identities_{w.name}",
        ("identity", "lhs", "rhs", "residual", "tol", "verdict"),
        rows,
    )
    for rep in reports:
        print(f"{rep.name}: {rep.verdict} (residual {rep.residual:.3e})")
    print(f"wrote {path}")
    return 0 if all(rep.verdict != "violated" for rep in reports) else 3


def cmd_flow(cfg: dict) -> int:
    w = _build_model(cfg)
    engine = _build_engine(cfg, w)
    surface = _build_surface(cfg, w, engine)
    flow_cfg = cfg["flow"]
    trace, final = run_flow(
        surface,
        flow_cfg["t_end"],
        dt_max=flow_cfg["dt_max"],
        record_every=flow_cfg["record_every"],
        jacobian_cut=flow_cfg["epsilon_cut"],
    )
    emitter = Emitter(cfg, w, f"mode={engine.kind} size={cfg['grid']['size']}")
    trace_rows = zip(
        trace.times, trace.q_values, trace.areas, trace.min_alignment,
        trace.swept_weighted_volume, trace.active_counts,
    )
    path = emitter.write(
        f"flow_trace_{w.name}",
        ("t", "Q", "area", "min_alignment", "swept_weighted_volume", "active_count"),
        trace_rows,
    )
    rows = monotonicity_audit(trace, trace.swept_weighted_volume).rows
    if w.variant == "boundary" and bool(np.any(final.active)):
        rows += area_floor_check(final).rows
    emitter.write(f"flow_audit_{w.name}", AuditRow._fields, rows)
    for check, slack, _, ok in rows:
        print(f"{check}: {'ok' if ok else 'VIOLATED'} (slack {slack:.3e})")
    print(f"wrote {path}")
    return 0 if all(row.ok for row in rows) else 3


def _corpus_surfaces(cfg: dict, w, engine):
    corpus = cfg["cmc"]["corpus"]
    count = corpus["count"]
    radius = _base_radius(cfg, w)
    if count <= 0:
        yield 0, _build_surface(cfg, w, engine)
        return
    amplitude = corpus["amplitude"]
    if not (0.0 < amplitude <= 0.1 * radius):
        raise ParameterError(
            "corpus amplitude must lie in (0, 0.1 radius] to stay in the graph class"
        )
    max_degree = corpus["max_degree"]
    if max_degree < 1 or max_degree > engine.lmax:
        raise ParameterError("corpus max_degree outside the resolved range")
    rng = np.random.default_rng(corpus["seed"])
    for index in range(count):
        nmodes = int(rng.integers(1, 4))
        field = np.zeros(engine.grid_shape)
        for _ in range(nmodes):
            l = int(rng.integers(1, max_degree + 1))
            m = int(rng.integers(-l, l + 1)) if engine.kind == "full" else 0
            field = field + rng.uniform(-1.0, 1.0) * engine.mode(l, m)
        top = float(np.max(np.abs(field)))
        if top == 0.0:
            field = engine.mode(2, 0)
            top = float(np.max(np.abs(field)))
        yield index, GraphSurface(w, engine, radius + field * (amplitude / top))


def cmd_cmc(cfg: dict) -> int:
    w = _build_model(cfg)
    engine = _build_engine(cfg, w)
    emitter = Emitter(cfg, w, f"mode={engine.kind} size={cfg['grid']['size']}")
    rows = []
    alarms = 0
    for index, surface in _corpus_surfaces(cfg, w, engine):
        result = find_cmc(
            surface,
            cmc_tol=cfg["cmc"]["tol"],
            max_iter=cfg["cmc"]["max_iter"],
        )
        if result.converged:
            verdict = umbilicity_verdict(result, w)
            alarm = verdict.alarm
            conclusion = verdict.conclusion
            alarms += int(alarm)
        else:
            alarm = False
            conclusion = "not-converged"
        rows.append(
            (
                index,
                result.converged,
                result.reason,
                result.iterations,
                result.cmc_residual,
                result.umbilicity_deficit,
                result.is_slice,
                result.mean_H,
                alarm,
                conclusion,
            )
        )
        print(
            f"run {index}: converged={_fmt(result.converged)} "
            f"residual={result.cmc_residual:.3e} deficit={result.umbilicity_deficit:.3e} "
            f"is_slice={_fmt(result.is_slice)} {conclusion}"
        )
    path = emitter.write(
        f"cmc_results_{w.name}",
        (
            "run",
            "converged",
            "reason",
            "iterations",
            "cmc_residual",
            "umbilicity_deficit",
            "is_slice",
            "mean_H",
            "alarm",
            "conclusion",
        ),
        rows,
    )
    print(f"wrote {path}")
    return 0 if alarms == 0 else 3


def cmd_models(_cfg: dict) -> int:
    print(f"warpcmc {__version__} built-in families:")
    for family, variant, params in FAMILY_TABLE:
        print(f"  {family:24s} variant={variant:9s} params: {params}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged.

    Each option is stored under its dotted config path.
    """
    parser = argparse.ArgumentParser(
        prog="warpcmc",
        description="curvature conditions, identities, flows and CMC experiments "
        "in warped product ambients",
    )
    parser.add_argument("--version", action="version", version=f"warpcmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag, path, kind, help_text in options:
            if isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": kind, "metavar": flag[2:].upper().replace("-", "_")}
            command.add_argument(flag, dest=path or "config", help=help_text, **spec)
    return parser


# subcommand -> (handler, help, options)
COMMANDS = {
    "check": (cmd_check, "structure-condition suite", COMMON_OPTIONS),
    "verify": (cmd_verify, "integral identity checks", COMMON_OPTIONS + SURFACE_OPTIONS),
    "flow": (
        cmd_flow, "conformal flow with audit", COMMON_OPTIONS + SURFACE_OPTIONS + FLOW_OPTIONS
    ),
    "cmc": (
        cmd_cmc, "CMC solves and rigidity corpus", COMMON_OPTIONS + SURFACE_OPTIONS + CMC_OPTIONS
    ),
    "models": (cmd_models, "list built-in families", COMMON_OPTIONS),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg = _apply_flags(cfg, args)
        handler, _, _ = COMMANDS[args.command]
        return handler(cfg)
    except (ParameterError, DomainError, HypothesisError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WarpcmcError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
