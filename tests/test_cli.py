"""Command-line interface: exit codes, config precedence, determinism.

Every emitted file must begin with '#' header lines and contain
nothing run-dependent, so repeating a command must reproduce the
bytes exactly.
"""

import contextlib
import copy
import functools
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpcmc import (
    area_floor_check,
    axisym_grid,
    make_model,
    monotonicity_audit,
    perturb_slice,
    run_flow,
)
from warpcmc.cli import (
    COMMANDS,
    DEFAULTS,
    _apply_flags,
    _build_parser,
    _fmt,
    _load_config,
    _parse_modes,
    main,
)
from conftest import kappa_max


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_models_lists_families(capsys):
    code, out, _ = run(["models"], capsys)
    assert code == 0
    for family in ("euclidean", "schwarzschild", "reissner-nordstrom", "omega-table"):
        assert family in out


@pytest.mark.parametrize(
    "value, text",
    [
        (1.0 / 3.0, "0.3333333333333333"),
        (-0.0, "-0.0"),
        (1e-300, "1e-300"),
        (np.float64(1.0 / 3.0), "0.3333333333333333"),
        (np.float32(0.1), "0.10000000149011612"),
        (True, "true"),
        (np.bool_(False), "false"),
        (7, "7"),
        (np.int64(7), "7"),
        ("pass", "pass"),
    ],
)
def test_fmt_strings_are_pinned(value, text):
    # every table cell goes through _fmt; its strings fix the CLI file bytes
    assert _fmt(value) == text


def test_check_passes_on_flat(tmp_path, capsys):
    code, out, _ = run(
        ["check", "--model", "euclidean", "--n", "3", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "umbilic-only" in out
    text = (tmp_path / "conditions_euclidean.csv").read_text()
    assert text.startswith("# warpcmc ")
    assert "# model: family=euclidean" in text
    assert (tmp_path / "margins_euclidean.csv").exists()
    assert (tmp_path / "extrema_euclidean.csv").exists()


def test_check_strict_gap_on_schwarzschild(tmp_path, capsys):
    code, out, _ = run(
        ["check", "--model", "schwarzschild", "--m", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "slice-rigidity" in out


def test_readme_check_block_is_the_check_stdout(tmp_path, capsys, monkeypatch):
    # the README shows the stdout of its first `check` command, run in a
    # fresh directory; only the directory of the written file may differ
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = "warpcmc check --model schwarzschild --m 1\n"
    assert command in readme
    block = readme.split("`check` prints the per-condition verdicts", 1)[1].split("```\n", 2)[1]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(command.split()[1:], capsys)
    assert code == 0
    *lines, wrote = out.splitlines()
    *shown, wrote_shown = block.splitlines()
    assert lines == shown
    assert Path(wrote.split(" ", 1)[1]).name == Path(wrote_shown.split(" ", 1)[1]).name


def test_inadmissible_parameters_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["check", "--model", "reissner-nordstrom", "--m", "1", "--q", "0.6",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "m > 2q > 0" in err


def test_oversized_full_grid_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    # full tables take 3 N^3 doubles plus the 4 N^2 of the Fourier table, the
    # N^2 of the node solve and the 30 N^2 of the identity map's frame jet:
    # 1.6 TB at N = 4096; refused, never built
    import warpcmc.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("tables were allocated")

    monkeypatch.setattr(spectral, "SphericalHarmonicEngine", refuse)
    code, _, err = run(
        ["flow", "--model", "schwarzschild", "--m", "1", "--grid-mode", "full",
         "--grid-size", "4096", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert str((3 * 4096**3 + 35 * 4096**2) * 8) in err


def test_full_mode_outside_dimension_3_exits_2(tmp_path, capsys):
    # the full engine has dimension 3, and a surface needs the ambient's
    code, _, err = run(["verify", "--n", "4", "--grid-mode", "full", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == "error: a full engine of dimension 3 cannot carry an ambient of dimension 4\n"


def test_failed_condition_exits_3(tmp_path, capsys):
    code, _, _ = run(
        ["check", "--model", "sphere", "--curvature", "1.0", "--r-bar", "2.5",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3


def test_variant_mismatch_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["check", "--model", "euclidean", "--variant", "boundary",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "ball" in err


def test_verify_slice_identities(tmp_path, capsys):
    code, out, _ = run(
        ["verify", "--model", "schwarzschild", "--m", "1", "--s", "2",
         "--grid-size", "48", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert out.count("equality") == 3
    lines = (tmp_path / "identities_schwarzschild.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3


def test_verify_hypothesis_violation_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["verify", "--model", "euclidean", "--radius", "1.0",
         "--modes", "5,0,0.25", "--grid-size", "64", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "mean curvature" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--model", "schwarzschild", "--s", "nan"], "area radius outside"),
        (["cmc", "--model", "schwarzschild", "--s", "2", "--cmc-tol", "nan"], "cmc_tol"),
    ],
)
def test_nan_input_exits_2(tmp_path, capsys, args, message):
    code, _, err = run([*args, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "args, message",
    [
        ([cmd, "--model", "schwarzschild", "--n", "345", "--s", "2"], "dimension too large")
        for cmd in ("verify", "flow", "cmc")
    ]
    + [(["check", "--model", "omega-table", "--path", "{table}"], "{table}: every sample")],
)
def test_out_of_range_model_input_exits_2(tmp_path, capsys, args, message):
    s = np.linspace(1.0, 10.0, 400)
    omega = 1.0 - 1.0 / s
    omega[50] = np.nan
    table = str(tmp_path / "t.txt")
    np.savetxt(table, np.column_stack((s, omega)))
    args = [a.format(table=table) for a in args]
    code, _, err = run([*args, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert message.format(table=table) in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["check", "--model", "desitter-schwarzschild", "--m", "1e-300", "--kappa", "1e300"],
         "s_peak"),
        (["check", "--model", "reissner-nordstrom", "--m", "inf", "--q", "1"],
         "m must be finite"),
        (["check", "--model", "schwarzschild", "--m", "1e-300"], "must be finite at s_floor"),
        (["flow", "--t-end", "inf"], "t_end must be finite"),
    ],
)
def test_extreme_parameters_exit_2(tmp_path, capsys, args, message):
    # an underflowing peak, an infinite mass, an overflowing omega' at the
    # horizon and an infinite flow time are refused, not raised from float
    # arithmetic
    code, _, err = run([*args, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert message in err


# a positive float log-uniform across the float range, 1e-300 to 1.8e308
_ANY_SCALE = st.floats(min_value=-300.0, max_value=308.25).map(lambda e: 10.0**e)


@settings(max_examples=94, deadline=None, derandomize=True)  # and 6 examples: 100 runs
@given(
    family=st.sampled_from(["schwarzschild", "desitter-schwarzschild", "reissner-nordstrom"]),
    n=st.sampled_from([3, 4, 5]),
    m=_ANY_SCALE,
    kappa=st.tuples(st.sampled_from([-1.0, 1.0]), _ANY_SCALE).map(lambda t: t[0] * t[1]),
    q=_ANY_SCALE,
)
@example(family="desitter-schwarzschild", n=3, m=1e-300, kappa=1.0, q=1.0)
@example(family="desitter-schwarzschild", n=3, m=1.0, kappa=-1.7e308, q=1.0)
@example(family="reissner-nordstrom", n=3, m=1e300, kappa=1.0, q=0.3)
@example(family="schwarzschild", n=3, m=1.1e-66, kappa=1.0, q=1.0)  # slopes ~ 1e198
@example(family="schwarzschild", n=3, m=1.4e161, kappa=1.0, q=1.0)  # s_max^2 overflows
@example(family="reissner-nordstrom", n=5, m=5.8e-110, kappa=1.0, q=2.7e-119)  # s^(1-2n) too
def test_check_at_any_float_parameters_exits_0_2_or_3(tmp_path_factory, family, n, m, kappa, q):
    # a horizon family's parameters anywhere in the float range build and
    # check, or are refused with a typed error: no exception leaves main,
    # and under the test configuration no RuntimeWarning either
    args = ["check", "--model", family, "--n", str(n), "--m", repr(m)]
    if family == "desitter-schwarzschild":
        args.append(f"--kappa={kappa!r}")
    if family == "reissner-nordstrom":
        args += ["--q", repr(q)]
    out = tmp_path_factory.mktemp("any_float")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*args, "--out", str(out)])
    assert code in (0, 2, 3), args


def test_non_numeric_omega_table_row_exits_2(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("1 0\nx y\n2 0.5\n")
    code, _, err = run(
        ["check", "--model", "omega-table", "--path", str(table), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith(f"error: {table}: ")


def test_kappa_bound_past_the_float_range_completes(tmp_path, capsys):
    # the kappa bound is omega at its peak, which takes no power of n
    code, out, _ = run(
        ["check", "--model", "desitter-schwarzschild", "--n", "150", "--kappa", "0.1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "conclusion:" in out


def test_flow_audit_and_determinism(tmp_path, capsys):
    args = [
        "flow", "--model", "schwarzschild", "--m", "1", "--s", "2",
        "--modes", "2,0,0.05", "--t-end", "0.3", "--grid-size", "32",
    ]
    code, out, _ = run(args + ["--out", str(tmp_path / "a")], capsys)
    assert code == 0
    assert "VIOLATED" not in out
    code, _, _ = run(args + ["--out", str(tmp_path / "b")], capsys)
    assert code == 0
    for stem in ("flow_trace_schwarzschild.csv", "flow_audit_schwarzschild.csv"):
        a = (tmp_path / "a" / stem).read_bytes()
        b = (tmp_path / "b" / stem).read_bytes()
        assert a == b
    audit = (tmp_path / "a" / "flow_audit_schwarzschild.csv").read_text()
    for check in ("q_decreasing", "swept_dominated", "riccati_bound",
                  "area_decreasing", "area_floor", "weighted_minkowski", "q_floor"):
        assert check in audit


def test_flow_audit_file_holds_the_library_rows(tmp_path, capsys):
    args = ["flow", "--model", "schwarzschild", "--m", "1", "--s", "2",
            "--modes", "2,0,0.05", "--t-end", "0.3", "--grid-size", "32"]
    code, _, _ = run(args + ["--out", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "flow_audit_schwarzschild.csv").read_text().splitlines()
    written = [l.split(",") for l in lines if not l.startswith("#")]
    w = make_model("schwarzschild", 3, m=1.0)
    surface = perturb_slice(w, axisym_grid(3, 32), w.distance_of_area_radius(2.0), [(2, 0, 0.05)])
    trace, final = run_flow(surface, 0.3)
    rows = monotonicity_audit(trace, trace.swept_weighted_volume).rows
    rows += area_floor_check(final).rows
    assert [(c, float(s), float(t), ok) for c, s, t, ok in written] == [
        (row.check, float(row.slack), float(row.tol), "true" if row.ok else "false")
        for row in rows
    ]


def test_cmc_corpus(tmp_path, capsys):
    code, out, _ = run(
        ["cmc", "--model", "schwarzschild", "--m", "1", "--s", "2",
         "--grid-size", "48", "--corpus-count", "3", "--corpus-seed", "11",
         "--corpus-amplitude", "0.05", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "cmc_results_schwarzschild.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3
    assert all("slice-rigidity-confirmed" in l for l in data)
    assert "alarm" not in out


@pytest.mark.parametrize(
    "params",
    [
        # a small l = 1 Jacobi eigenvalue in curvature units: the residual
        # fell below cmc_tol while an off-center offset was still there
        ["--m", "100", "--corpus-count", "6"],
        ["--m", "1", "--n", "5", "--corpus-count", "6"],
        # h^2 times the Ricci gap margin is 0.6, the raw margin 2e-10
        ["--m", "1e4"],
    ],
)
def test_cmc_newton_step_converges_to_slices(tmp_path, capsys, params):
    code, _, _ = run(
        ["cmc", "--model", "schwarzschild", *params, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    lines = (tmp_path / "cmc_results_schwarzschild.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert rows
    for row in rows:
        assert row[1] == "true" and row[2] == "converged", row
        assert int(row[3]) <= 10, row
        assert row[-1] == "slice-rigidity-confirmed", row


def test_cmc_corpus_amplitude_guard(tmp_path, capsys):
    code, _, err = run(
        ["cmc", "--model", "euclidean", "--radius", "1.0", "--corpus-count", "2",
         "--corpus-amplitude", "0.5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "amplitude" in err


def test_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = {
        "model": {"family": "sphere", "n": 3, "curvature": 1.0},
        "surface": {"radius": 0.7},
        "grid": {"size": 32},
        "output": {"dir": str(tmp_path / "from_config")},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))

    code, _, _ = run(["verify", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert (tmp_path / "from_config" / "identities_sphere.csv").exists()

    monkeypatch.setenv("WARPCMC_OUTDIR", str(tmp_path / "from_env"))
    code, _, _ = run(["verify", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert (tmp_path / "from_env" / "identities_sphere.csv").exists()

    code, _, _ = run(
        ["verify", "--config", str(cfg_path), "--model", "euclidean",
         "--out", str(tmp_path / "from_flag")],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "from_flag" / "identities_euclidean.csv").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "--model", "schwarzschild", "--q", "0.3", "--kappa", "0.1"], "--q, --kappa"),
        (["verify", "--model", "euclidean", "--m", "5"], "--m"),
    ],
)
def test_a_model_flag_the_family_does_not_read_exits_2(tmp_path, capsys, argv, named):
    code, _, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: family {argv[2]!r} does not read {named}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fmt, ext", [("table", "csv"), ("json-lines", "jsonl")])
def test_model_header_lists_only_the_parameters_the_family_reads(tmp_path, capsys, fmt, ext):
    # a config may set another family's parameters; they are not read or reported
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"family": "sphere", "curvature": 2.0, "m": 3.0}}))
    code, _, _ = run(
        ["check", "--config", str(cfg_path), "--model", "euclidean", "--r-bar", "4",
         "--format", fmt, "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / f"conditions_euclidean.{ext}").read_text().splitlines()
    line = lines[1] if ext == "csv" else "# model: " + json.loads(lines[0])["model"]
    assert line == "# model: family=euclidean n=3 variant=ball r_bar=4.0"


def test_json_lines_format(tmp_path, capsys):
    code, _, _ = run(
        ["verify", "--model", "euclidean", "--radius", "0.8", "--grid-size", "32",
         "--format", "json-lines", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "identities_euclidean.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert "warpcmc" in head and "model" in head
    rows = [json.loads(l) for l in lines[1:]]
    assert {r["identity"] for r in rows} == {"minkowski", "hk"}
    assert all(r["verdict"] == "equality" for r in rows)


def test_json_lines_check_notes_and_flow_types(tmp_path, capsys):
    # the header's notes carry the check's comment lines; flow rows keep
    # ok a JSON boolean and active_count an integer
    code, _, _ = run(["check", "--model", "schwarzschild", "--m", "1",
                      "--format", "json-lines", "--out", str(tmp_path / "check")], capsys)
    assert code == 0
    files = {p.name: [json.loads(l) for l in p.read_text().splitlines()]
             for p in (tmp_path / "check").iterdir()}
    assert sorted(files) == [f"{stem}_schwarzschild.jsonl"
                             for stem in ("conditions", "extrema", "margins")]
    head = files["conditions_schwarzschild.jsonl"][0]
    assert head["notes"] == ["required_pass: true", "conclusion: slice-rigidity"]

    code, _, _ = run(["flow", "--model", "schwarzschild", "--m", "1", "--s", "2",
                      "--modes", "2,0,0.05", "--t-end", "0.3", "--grid-size", "32",
                      "--format", "json-lines", "--out", str(tmp_path / "flow")], capsys)
    assert code == 0
    trace, audit = (
        [json.loads(l) for l in (tmp_path / "flow" / f"{stem}_schwarzschild.jsonl")
         .read_text().splitlines()][1:]
        for stem in ("flow_trace", "flow_audit")
    )
    assert trace and all(type(row["active_count"]) is int for row in trace)
    assert all(type(row["t"]) is float for row in trace)
    assert len(audit) == 7 and all(row["ok"] is True for row in audit)


def test_area_radius_spec_needs_horizon_family(tmp_path, capsys):
    code, _, err = run(
        ["verify", "--model", "euclidean", "--s", "2.0", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "horizon" in err


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, _ = run(["check", "--config", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [["check", "--config", "{missing}"], ["check", "--model", "omega-table", "--path", "{missing}"]],
    ids=["config", "omega-table"],
)
def test_missing_input_file_exits_2(tmp_path, capsys, args):
    missing = str(tmp_path / "nope")
    code, _, err = run([a.format(missing=missing) for a in args] + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert missing in err


def test_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, _ = run(["check", "--out", str(blocker / "sub")], capsys)
    assert code == 1


@pytest.mark.parametrize("n, code, message", [(240, 0, ""), (343, 0, ""), (344, 2, "volume of S^343 overflows")])
def test_verify_in_high_dimension(tmp_path, capsys, n, code, message):
    # the default axisymmetric grid represents a slice in every dimension the CLI admits
    got, _, err = run(
        ["verify", "--model", "hyperbolic", "--n", str(n), "--radius", "1", "--out", str(tmp_path)], capsys
    )
    assert got == code
    assert message in err


# (command, config document or raw text, flags, the key or file the error names)
MALFORMED_CONFIGS = [
    # the condition grid and the tolerances are library constants, not config keys
    ("check", {"grid": {"condition_size": "abc"}}, [], "grid.condition_size"),
    ("cmc", {"cmc": {"tol": "x"}}, [], "cmc.tol"),
    ("check", {"model": {"m": "abc"}}, [], "model.m"),
    ("check", {"tolerances": {"condition": "x"}}, [], "tolerances"),
    ("check", {"grid": {"condition_size": 4}}, [], "grid.condition_size"),
    # an int path takes no fractional or infinite float, a number path no boolean
    ("check", {"grid": {"size": 24.7}}, [], "grid.size"),
    ("cmc", {"cmc": {"corpus": {"count": True}}}, [], "cmc.corpus.count"),
    ("check", {"tolerances": {"condition": True}}, [], "tolerances"),
    ("check", {"grid": {"size": float("inf")}}, [], "grid.size"),
    # a misspelled key, and a section that is not an object, with a flag or without
    ("cmc", {"cmc": {"corpus": {"cout": 3}}}, [], "cmc.corpus.cout"),
    ("check", {"grid": 5}, [], "grid"),
    ("verify", {"grid": 5}, ["--grid-size", "16"], "grid"),
    # invalid JSON names the file
    ("check", '{"grid": ', [], "bad.json"),
]


@pytest.mark.parametrize(
    "command, config, flags, named",
    MALFORMED_CONFIGS,
    ids=[f"{case[0]}-config{i}" for i, case in enumerate(MALFORMED_CONFIGS)],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, command, config, flags, named):
    path = tmp_path / "bad.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    code, _, err = run(
        [command, "--config", str(path), "--out", str(tmp_path), *flags], capsys
    )
    assert code == 2
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("size", [24, 24.0, "24"])
def test_integral_config_value_converts(tmp_path, size):
    path = tmp_path / "size.json"
    path.write_text(json.dumps({"grid": {"size": size}}))
    cfg = _apply_flags(
        _load_config(str(path)), _build_parser().parse_args(["verify", "--config", str(path)])
    )
    assert cfg["grid"]["size"] == 24 and type(cfg["grid"]["size"]) is int


def test_config_value_error_names_its_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"size": 24.7}}))
    code, _, err = run(["check", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: config value grid.size: 24.7 is not an integer")


def test_null_config_value_keeps_the_default(tmp_path, monkeypatch):
    monkeypatch.delenv("WARPCMC_OUTDIR", raising=False)
    path = tmp_path / "nulls.json"
    path.write_text(json.dumps({"grid": {"size": None}, "surface": {"modes": None}}))
    cfg = _apply_flags(
        _load_config(str(path)), _build_parser().parse_args(["verify", "--config", str(path)])
    )
    assert cfg["grid"]["size"] == DEFAULTS["grid"]["size"]
    assert cfg["surface"]["modes"] == []


def test_module_entry_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "warpcmc.cli", "models"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "schwarzschild" in proc.stdout


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("frac", [0.95, 0.99, 0.9999])
def test_kappa_near_its_bound_keeps_slice_rigidity(tmp_path, capsys, n, frac):
    """Each horizon root is bracketed on its own side of the peak of omega."""
    kappa = frac * kappa_max(n, 1.0)
    code, out, err = run(
        ["check", "--model", "desitter-schwarzschild", "--n", str(n), "--m", "1",
         "--kappa", repr(kappa), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0, err
    assert "conclusion: slice-rigidity" in out


def test_scipy_stays_off_the_import_path(tmp_path):
    """Neither importing the CLI nor checking a built-in family loads scipy."""
    script = (
        "import sys\n"
        "import warpcmc.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'import'\n"
        "from warpcmc.cli import main\n"
        "for argv in (['check', '--model', 'desitter-schwarzschild', '--kappa', '0.05'],\n"
        "             ['verify', '--model', 'reissner-nordstrom', '--s', '2',\n"
        "              '--modes', '2,0,0.05']):\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


OPTION_ROWS = [
    (command, flag, path, kind)
    for command, (_, _, options) in COMMANDS.items()
    for flag, path, kind, _ in options
    if path is not None
]


@pytest.mark.parametrize(
    "command, flag, path, kind", OPTION_ROWS, ids=[f"{c}{f}" for c, f, _, _ in OPTION_ROWS]
)
def test_each_flag_sets_exactly_its_config_path(command, flag, path, kind, monkeypatch):
    monkeypatch.delenv("WARPCMC_OUTDIR", raising=False)
    *parents, key = path.split(".")
    parent = functools.reduce(dict.__getitem__, parents, DEFAULTS)
    # model parameters and the expected variant have no default in the config
    assert key in parent or parents == ["model"]
    if isinstance(kind, tuple):
        text = value = next(choice for choice in kind if choice != parent.get(key))
    elif path == "surface.modes":
        text = "2,1,0.05;3,0,-0.01"
        value = _parse_modes(text)
    else:
        text = {int: "64", float: "0.375", str: "given"}[kind]
        value = kind(text)
    cfg = _apply_flags(_load_config(None), _build_parser().parse_args([command, flag, text]))
    expected = copy.deepcopy(DEFAULTS)
    expected["output"]["dir"] = "."
    functools.reduce(dict.__getitem__, parents, expected)[key] = value
    assert cfg == expected
    got = functools.reduce(dict.__getitem__, parents, cfg)[key]
    assert type(got) is type(value)
