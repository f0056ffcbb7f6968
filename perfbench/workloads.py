"""Seeded case generation, execution and correctness oracles.

Every workload is a fixed list of strata (family, dimension, leading
degree, parameter band); the seed only moves continuous parameters inside
each stratum, so every seed runs the same case mix.  Case generation uses
the standard library alone: a set-up probe imports this module before its
clock starts, and ``import warpcmc`` (with numpy and scipy) must happen
inside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random

WORKLOADS = ("cmc_corpus", "flow_full", "conditions_sweep")
# modules a workload imports next to the package, inside its timed set-up
IMPORTS = {"cmc_corpus": ["warpcmc"], "flow_full": ["warpcmc"],
           "conditions_sweep": ["warpcmc", "warpcmc.cli"]}

# Refuse any spectral engine whose tables would exceed this many bytes.
# The full engine stores 3 Legendre tables of (N x N x N) doubles, the
# axisymmetric one 3 tables of (N x N); the size is computed, never probed
# by allocating.
ENGINE_BUDGET_BYTES = 256 * 2**20

CMC_TOL = 1e-7
# relative tolerance of mean_H against the closed-form slice value; the
# solver stops at sup|H - H_bar| < 1e-7 on a graph that is radially
# constant to 1e-5 r_bar, and measured errors stay below 1e-11
MEAN_H_RTOL = 1e-9
CMC_GRID = 48
FLOW_NLAT = 48
FLOW_STEPS = 10
SWEEP_GRID = 64


def guard_engine(kind: str, size: int) -> int:
    """Computed bytes of an engine's three transform tables, within budget."""
    need = 3 * size ** (3 if kind == "full" else 2) * 8
    if need > ENGINE_BUDGET_BYTES:
        raise MemoryError(
            f"{kind} engine of size {size} needs {need / 2**20:.1f} MiB of tables, "
            f"over the {ENGINE_BUDGET_BYTES / 2**20:.0f} MiB budget"
        )
    return need


def kappa_max(n: int, m: float) -> float:
    """Upper end of the admissible positive kappa for deSitter-Schwarzschild."""
    return (4.0 * (n - 2) ** (n - 2) / (n**n * m * m)) ** (1.0 / (n - 2))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _latin(rng: random.Random, count: int) -> list[float]:
    """One point in each of ``count`` equal strata of [0, 1), shuffled."""
    order = list(range(count))
    rng.shuffle(order)
    return [(k + rng.random()) / count for k in order]


# ---------------------------------------------------------------------------
# case specs (pure Python)

HORIZON = ("schwarzschild", "desitter-schwarzschild", "reissner-nordstrom")
SPACE_FORMS = ("euclidean", "sphere", "hyperbolic")


def _ambient_params(rng: random.Random, kind: str, n: int) -> tuple[str, dict]:
    m = _log_uniform(rng, 0.5, 2.0)
    if kind == "schwarzschild":
        return "schwarzschild", {"m": m}
    if kind == "ds-neg":
        return "desitter-schwarzschild", {
            "m": m, "kappa": -rng.uniform(0.1, 0.2) * m ** (-2.0 / (n - 2))}
    if kind == "ds-pos":
        return "desitter-schwarzschild", {"m": m, "kappa": rng.uniform(0.3, 0.5) * kappa_max(n, m)}
    return "reissner-nordstrom", {"m": m, "q": rng.uniform(0.2, 0.3) * m}


def cmc_corpus_cases(seed: int) -> dict:
    rng = random.Random(f"cmc_corpus:{seed}")
    kinds = ("schwarzschild", "ds-neg", "ds-pos", "reissner-nordstrom")
    ambients = [(k, n) for k in kinds for n in (3, 4, 5)]
    # area-radius position of each slice: for every degree, one point in
    # each twelfth of the band across the ambients, so the slow l=1 solves
    # see the same spread of Ricci gaps on every seed
    bands = {l: _latin(rng, len(ambients)) for l in (1, 2, 3, 4)}
    models, cases = [], []
    for a, (kind, n) in enumerate(ambients):
        family, params = _ambient_params(rng, kind, n)
        models.append({"family": family, "n": n, "params": params})
        for l in (1, 2, 3, 4):
            cases.append({
                "id": f"{kind}-n{n}-l{l}",
                "model": a,
                "n": n,
                "l": l,
                "s_frac": 0.35 + 0.3 * bands[l][a],
                "amp_frac": rng.uniform(0.03, 0.05) * rng.choice((-1.0, 1.0)),
            })
    return {"models": models, "cases": cases}


def flow_full_cases(seed: int) -> dict:
    rng = random.Random(f"flow_full:{seed}")
    model = {"family": "schwarzschild", "n": 3, "params": {"m": _log_uniform(rng, 0.5, 2.0)}}
    cases = []
    for k, lead in enumerate((1, 2, 3, 4) * 4):
        extra = 1 + (k // 4) % 2  # 2 or 3 modes in all, twice each per leading degree
        order = rng.randint(1, lead) * rng.choice((-1, 1))
        modes = [(lead, order, rng.uniform(0.02, 0.03) * rng.choice((-1.0, 1.0)))]
        for _ in range(extra):
            l = rng.randint(1, 4)
            modes.append((l, rng.randint(-l, l), rng.uniform(0.005, 0.01) * rng.choice((-1.0, 1.0))))
        cases.append({
            "id": f"lead{lead}-m{len(modes)}-{k}",
            "s_ratio": rng.uniform(2.0, 3.0),
            "modes": modes,
        })
    return {"models": [model], "cases": cases}


def _fmt(x: float) -> str:
    return repr(float(x))


# (family, n, params, tag) of the fixed conditions_sweep cases, where the
# defects of the ledger live: ROADMAP 3(a)'s small masses, and
# deSitter-Schwarzschild at m = 1 with kappa at 0.95, 0.99 and 0.9999 of
# kappa_max for each dimension.  A fix shows as a lower failed share.
LEDGER_CASES = [
    ("schwarzschild", 3, {"m": 1e-3}, "m0.001"),
    ("desitter-schwarzschild", 3, {"m": 2e-3, "kappa": -0.5}, "m0.002-kappa-neg"),
] + [
    ("desitter-schwarzschild", n, {"m": 1.0, "kappa": frac * kappa_max(n, 1.0)}, f"kappa{frac}")
    for n in (3, 4, 5) for frac in (0.95, 0.99, 0.9999)
]


def conditions_sweep_cases(seed: int) -> dict:
    rng = random.Random(f"conditions_sweep:{seed}")
    cases = []

    def add(cid, argv, expect):
        cases.append({"id": cid, "argv": argv, "expect": expect})

    # space forms: degenerate gap, conclusion umbilic-only
    for n in (3, 4, 5):
        add(f"check-euclidean-n{n}",
            ["check", "--model", "euclidean", "--n", str(n), "--r-bar", _fmt(rng.uniform(5.0, 20.0))],
            {"command": "check", "conclusion": "umbilic-only"})
        add(f"check-sphere-n{n}",
            ["check", "--model", "sphere", "--n", str(n), "--curvature", _fmt(_log_uniform(rng, 0.25, 4.0))],
            {"command": "check", "conclusion": "umbilic-only"})
        add(f"check-hyperbolic-n{n}",
            ["check", "--model", "hyperbolic", "--n", str(n),
             "--curvature", _fmt(_log_uniform(rng, 0.25, 4.0)), "--r-bar", _fmt(rng.uniform(2.0, 8.0))],
            {"command": "check", "conclusion": "umbilic-only"})

    # horizon families: strict gap, conclusion slice-rigidity.  Masses cycle
    # through four decades, 1e-2 to 1e2, in a fixed order, and the seed
    # places each one inside its decade.  Positive kappa stays in bands
    # below 0.5 kappa_max; LEDGER_CASES cover m < 1e-2 and the kappa edge.
    decade = 0

    def mass():
        nonlocal decade
        exponent = -2 + decade % 4
        decade += 1
        return 10.0 ** (exponent + rng.random())

    horizon = []
    for n in (3, 4, 5):
        for _ in range(2):
            horizon.append(("schwarzschild", n, {"m": mass()}, "m"))
        for band, frac in (("neg", None), ("low", (0.05, 0.25)), ("mid", (0.25, 0.5))):
            m = mass()
            kappa = -rng.uniform(1e-3, 1.0) if frac is None else rng.uniform(*frac) * kappa_max(n, m)
            horizon.append(("desitter-schwarzschild", n, {"m": m, "kappa": kappa}, f"kappa-{band}"))
        for lo, hi in ((0.02, 0.25), (0.25, 0.49)):
            m = mass()
            horizon.append(("reissner-nordstrom", n, {"m": m, "q": rng.uniform(lo, hi) * m}, f"q{lo}"))
    # then the fixed cases of LEDGER_CASES, the same on every seed, so that
    # the failed share does not depend on the seed
    for family, n, params, tag in horizon + LEDGER_CASES:
        argv = ["check", "--model", family, "--n", str(n)]
        for key, value in params.items():
            argv += [f"--{key}", _fmt(value)]
        add(f"check-{family}-n{n}-{tag}-{len(cases)}", argv,
            {"command": "check", "conclusion": "slice-rigidity"})

    # identity checks on slices and perturbed slices, at area radius twice the
    # mass scale (horizon families) or half the chart (space forms); the cheap
    # space forms get one perturbed case each, so that the median case of a
    # batch sits inside the cluster of model-building cases
    for i, family in enumerate(SPACE_FORMS + HORIZON):
        boundary = family in HORIZON
        for n in (3, 4, 5) if boundary else (3 + i,):
            for perturbed in (False, True) if boundary else (True,):
                argv = ["verify", "--model", family, "--n", str(n), "--grid-size", str(SWEEP_GRID)]
                if boundary:
                    m = _log_uniform(rng, 0.5, 2.0)
                    argv += ["--m", _fmt(m)]
                    if family == "desitter-schwarzschild":
                        argv += ["--kappa", _fmt(-rng.uniform(0.1, 0.2) * m ** (-2.0 / (n - 2)))]
                    if family == "reissner-nordstrom":
                        argv += ["--q", _fmt(rng.uniform(0.2, 0.3) * m)]
                    scale = m ** (1.0 / (n - 2))
                    argv += ["--s", _fmt(2.0 * scale)]
                else:
                    scale = 0.5
                    argv += ["--radius", "0.5"]
                if perturbed:
                    l = rng.choice((2, 3))
                    argv += ["--modes", f"{l},0,{_fmt(rng.uniform(0.01, 0.02) * scale)}"]
                add(f"verify-{family}-n{n}-{'perturbed' if perturbed else 'slice'}", argv,
                    {"command": "verify", "boundary": boundary, "slice": not perturbed})
    return {"models": [], "cases": cases}


SPECS = {
    "cmc_corpus": cmc_corpus_cases,
    "flow_full": flow_full_cases,
    "conditions_sweep": conditions_sweep_cases,
}


# ---------------------------------------------------------------------------
# set-up: everything a workload builds before its first case


def setup(wc, workload: str, spec: dict, outdir: str) -> dict:
    """Build the models, engines and case inputs of one workload."""
    ctx = {"workload": workload, "spec": spec}
    models = [wc.make_model(m["family"], m["n"], **m["params"]) for m in spec["models"]]
    if workload == "cmc_corpus":
        ctx["table_bytes"] = sum(guard_engine("axisym", CMC_GRID) for _ in (3, 4, 5))
        engines = {n: wc.axisym_grid(n, CMC_GRID) for n in (3, 4, 5)}
        inputs = []
        for case in spec["cases"]:
            w = models[case["model"]]
            prof = w.profile
            top_s = min(prof.s_max, 3.0 * prof.s_floor)
            radius = float(w.distance_of_area_radius(prof.s_floor + case["s_frac"] * (top_s - prof.s_floor)))
            peak = float(max(abs(v) for v in engines[case["n"]].mode(case["l"], 0)))
            inputs.append((w, engines[case["n"]], radius, [(case["l"], 0, case["amp_frac"] * radius / peak)]))
        ctx["inputs"] = inputs
    elif workload == "flow_full":
        ctx["table_bytes"] = guard_engine("full", FLOW_NLAT)
        engine = wc.full_sphere_grid(FLOW_NLAT)
        w = models[0]
        inputs = []
        for case in spec["cases"]:
            radius = float(w.distance_of_area_radius(case["s_ratio"] * w.profile.s_floor))
            modes = [(l, m, a * radius) for l, m, a in case["modes"]]
            inputs.append((w, engine, radius, modes))
        ctx["inputs"] = inputs
        ctx["dt"] = 1e-3 * w.r_bar
    else:
        ctx["cli"] = wc.cli
        # the CLI builds one engine per dimension on its first verify call
        ctx["table_bytes"] = sum(guard_engine("axisym", SWEEP_GRID) for _ in (3, 4, 5))
        ctx["outdir"] = outdir
        ctx["digests"] = {}
    return ctx


# ---------------------------------------------------------------------------
# cases and oracles


def run_case(wc, ctx: dict, index: int):
    """Run one case through the public API; returns what its oracle needs."""
    workload = ctx["workload"]
    if workload == "cmc_corpus":
        w, engine, radius, modes = ctx["inputs"][index]
        surface = wc.perturb_slice(w, engine, radius, modes)
        result = wc.find_cmc(surface, cmc_tol=CMC_TOL)
        verdict = wc.umbilicity_verdict(result, w)
        return result, verdict
    if workload == "flow_full":
        w, engine, radius, modes = ctx["inputs"][index]
        surface = wc.perturb_slice(w, engine, radius, modes)
        trace, final = wc.run_flow(surface, FLOW_STEPS * ctx["dt"], dt_max=ctx["dt"])
        audit = wc.monotonicity_audit(trace, trace.swept_weighted_volume)
        floor = wc.area_floor_check(final)
        return audit, floor
    case = ctx["spec"]["cases"][index]
    out = os.path.join(ctx["outdir"], f"{index:03d}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = ctx["cli"].main(case["argv"] + ["--out", out])
    return code, stdout.getvalue(), stderr.getvalue(), out


def slice_mean_curvature(w, volume: float) -> float:
    """Mean curvature of the slice enclosing a given weighted volume.

    The slice at area radius s has H = (n-1) sqrt(omega(s)) / s and encloses
    |S^{n-1}| (s^n - h(0)^n) / n, so s = (h(0)^n + n V / |S^{n-1}|)^(1/n).
    """
    n = w.dim
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    h0 = w.profile.s_floor
    s = (h0**n + n * volume / sphere) ** (1.0 / n)
    omega = float(w.profile.omega(s)[0])
    return (n - 1) * math.sqrt(max(omega, 0.0)) / s


def _digest(directory: str) -> str:
    sha = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        sha.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def check_case(ctx: dict, index: int, outcome) -> str | None:
    """None when the outcome is correct, else the reason it is not."""
    workload = ctx["workload"]
    if workload == "cmc_corpus":
        result, verdict = outcome
        if not result.converged:
            return f"not converged: {result.reason}"
        if verdict.alarm:
            return "rigidity alarm"
        if verdict.conclusion != "slice-rigidity-confirmed":
            return f"verdict {verdict.conclusion}"
        w = ctx["inputs"][index][0]
        expected = slice_mean_curvature(w, result.surface.enclosed_weighted_volume())
        err = abs(result.mean_H - expected) / abs(expected)
        if not err <= MEAN_H_RTOL:
            return f"mean_H off the slice value by {err:.3e} relative"
        return None
    if workload == "flow_full":
        audit, floor = outcome
        if not audit.passed:
            return "monotonicity audit failed"
        if not floor.passed:
            return "area floor check failed"
        return None
    code, out, err, directory = outcome
    expect = ctx["spec"]["cases"][index]["expect"]
    lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    if expect["command"] == "check":
        if code != 0 or lines.get("conclusion") != expect["conclusion"]:
            failed = ",".join(sorted(k for k, v in lines.items() if v.startswith("fail")))
            return (f"exit {code}: conclusion {lines.get('conclusion', '?')}; "
                    f"failed {failed or '-'}; {err.strip()}")
    else:
        if code != 0:
            return f"exit {code}: {err.strip()}"
        verdicts = {name: text.split(" ", 1)[0] for name, text in lines.items()
                    if name in ("minkowski", "minkowski-weighted", "hk")}
        wanted = {"minkowski", "hk"} | ({"minkowski-weighted"} if expect["boundary"] else set())
        if set(verdicts) != wanted:
            return f"identities reported: {sorted(verdicts)}"
        if verdicts["minkowski"] != "equality":
            return f"minkowski {verdicts['minkowski']}"
        hk_expected = "equality" if expect["slice"] else "inequality-satisfied"
        if verdicts["hk"] != hk_expected:
            return f"hk {verdicts['hk']}"
        if verdicts.get("minkowski-weighted", "equality") not in ("equality", "inequality-satisfied"):
            return f"minkowski-weighted {verdicts['minkowski-weighted']}"
    digest = _digest(directory)
    first = ctx["digests"].setdefault(index, digest)
    if digest != first:
        return "output files differ from the first batch"
    return None


# ---------------------------------------------------------------------------
# ledger of defects present at the commit that introduced this benchmark

LEDGER = {
    "3a": "check exits 3 with conclusion none: scalar-monotonicity slope of a "
          "small-mass ambient fails an absolute 1e-9 tolerance (ROADMAP 3(a))",
    "3b": "raw scipy ValueError from the cosmological-horizon bracket near "
          "kappa_max (ROADMAP 3(b))",
    "3c": "admissible kappa near kappa_max rejected with 'need 0 < s_floor < "
          "s_max' (ROADMAP 3(c))",
}


def ledger_item(ctx: dict, index: int, reason: str) -> str | None:
    """The known defect a failure reproduces, or None if it is unexplained."""
    if ctx["workload"] != "conditions_sweep":
        return None
    case = ctx["spec"]["cases"][index]
    argv = case["argv"]
    family = argv[argv.index("--model") + 1]
    params = {argv[k][2:]: argv[k + 1] for k in range(len(argv) - 1) if argv[k].startswith("--")}
    if (case["expect"]["command"] == "check" and family in HORIZON
            and reason.startswith("exit 3: conclusion none; failed scalar_monotonicity;")
            and float(params["m"]) < 1e-2):
        return "3a"
    if family == "desitter-schwarzschild" and float(params.get("kappa", "0")) > 0:
        if reason.startswith("raised ValueError: f(a) and f(b) must have different signs"):
            return "3b"
        if reason.startswith("exit 2") and "need 0 < s_floor < s_max" in reason:
            return "3c"
    return None
