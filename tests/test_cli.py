import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import traced_peak_n2
from oracles import read_trace_csv

import regkrylov
from regkrylov import cli, diagnostics, linalg, problems, solvers
from regkrylov.exceptions import ConfigError, NumericalError
from regkrylov.krylov import START_RESIDUAL, lanczos


def small_config(out_dir, **overrides):
    doc = {
        "problem": "shaw",
        "n": 96,
        "noise_levels": [1e-3],
        "seeds": [1],
        "solvers": ["minres", "mr2"],
        "k_max": 10,
        "diagnostics": ["lcurve"],
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def read_all_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
    }


def test_run_is_byte_deterministic(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(small_config(tmp_path / "out"))
    cli.run_experiment(cfg)
    first = read_all_bytes(tmp_path / "out")
    cli.run_experiment(cfg)
    second = read_all_bytes(tmp_path / "out")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_summary_recomputable_from_traces(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(small_config(tmp_path / "out"))
    summary = cli.run_experiment(cfg)
    for cell in summary["cells"]:
        data = read_trace_csv(Path(cfg.output_dir) / cell["trace_file"])
        errs = data["relative_error"]
        best = int(np.nanargmin(errs)) + 1
        assert best == cell["best_k"]
        assert float(np.nanmin(errs)) == cell["best_error"]
        assert best == cell["semiconvergence_index"]


def test_manifest_files_exist_and_parse(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", diagnostics=["lcurve", "lowrank", "decay"])
    )
    summary = cli.run_experiment(cfg)
    for name in summary["manifest"]:
        path = Path(cfg.output_dir) / name
        assert path.exists()
        if name.endswith(".json"):
            json.loads(path.read_text())
        else:
            read_trace_csv(path)


def test_filters_diagnostic_uses_extended_projection(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", solvers=["minres"], diagnostics=["filters"])
    )
    summary = cli.run_experiment(cfg)
    doc = json.loads((Path(cfg.output_dir) / summary["diagnostics_files"][0]).read_text())
    prob = problems.generate("shaw", 96)
    b = problems.add_noise(prob, 1e-3, 1).b
    tridiag = lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, b, 10).tridiag
    assert tridiag.alpha.dtype == np.longdouble
    assert len(doc["harmonic_ritz_values"]) == 10
    for k, got in enumerate(doc["harmonic_ritz_values"], start=1):
        assert got == diagnostics.harmonic_ritz(tridiag.head(k)).tolist()


def test_lowrank_and_decay_run_above_the_dense_limit(tmp_path):
    """Kronecker blur runs every solver and diagnostic matrix-free: its
    operator refuses a dense form and block products at every order, so a
    path that needed either would fail here.  m = 65 gives order 4225,
    above the dense eigensolve's limit."""
    cfg = cli.ExperimentConfig.from_dict(small_config(
        tmp_path / "out", problem="blur", n=65, noise_levels=[5e-3],
        solvers=list(cli.SOLVER_NAMES), k_max=3, diagnostics=list(cli.DIAG_NAMES),
    ))
    assert cfg.n**2 > linalg.DENSE_EIG_LIMIT
    summary = cli.run_experiment(cfg)
    assert len(summary["cells"]) == len(cli.SOLVER_NAMES)
    doc = json.loads((Path(cfg.output_dir) / summary["diagnostics_files"][0]).read_text())
    assert len(doc["lowrank_error"]) == 3 and len(doc["decay_rows"]) == 1
    assert doc["decay_violations"] == 0
    spectrum = json.loads((Path(cfg.output_dir) / "spectrum.json").read_text())
    assert len(spectrum["eigenvalues"]) == len(spectrum["picard_clean"]) == cfg.n**2


@pytest.mark.parametrize("solver_list", [["tsvd"], ["mr2"], ["minres"]],
                         ids=["tsvd-only", "mr2-only", "minres-only"])
def test_diagnostics_do_not_depend_on_the_solver_list(tmp_path, solver_list):
    """Every diagnostic builds the Krylov factorization it needs when no
    listed solver did, and writes what a cell with minres and mr2 writes."""
    def diagnostics_doc(out, solvers):
        cfg = cli.ExperimentConfig.from_dict(
            small_config(out, solvers=solvers, diagnostics=list(cli.DIAG_NAMES))
        )
        cli.run_experiment(cfg)
        return json.loads((out / "diagnostics_0.001_1.json").read_text())

    got = diagnostics_doc(tmp_path / "got", solver_list)
    want = diagnostics_doc(tmp_path / "want", ["minres", "mr2"])
    assert got["angle_direct"] and got["harmonic_ritz_values"]
    # only the entries keyed by solver differ
    for key in ("semiconvergence", "corner_index"):
        assert set(got.pop(key)) == set(solver_list)
        want.pop(key)
    assert got == want


def _diagnostics_by_solvers(out, solver_lists, names):
    """The diagnostics file of one seed-1 cell for each solver list."""
    docs = []
    for i, solver_list in enumerate(solver_lists):
        cfg = cli.ExperimentConfig.from_dict(
            small_config(out / str(i), solvers=solver_list, diagnostics=names)
        )
        summary = cli.run_experiment(cfg)
        docs.append(json.loads(
            (Path(cfg.output_dir) / summary["diagnostics_files"][0]).read_text()
        ))
    return docs


def test_lowrank_without_mr2_writes_no_note(tmp_path):
    """Without mr2, lowrank and decay build the cell's factorization
    themselves: no note, and the values of a run with mr2."""
    got, want = _diagnostics_by_solvers(
        tmp_path, [["minres"], ["minres", "mr2"]], ["lowrank", "decay"]
    )
    assert "notes" not in got
    assert len(got["lowrank_error"]) == 10 and got["decay_rows"]
    for key in ("lowrank_error", "decay_rows", "decay_violations"):
        assert got[key] == want[key], key


def test_angles_without_mr2_write_no_note(tmp_path):
    """Without mr2, angles builds the cell's factorization itself: no note,
    both angle lists, and the values of a run with mr2."""
    got, want = _diagnostics_by_solvers(
        tmp_path, [["minres"], ["minres", "mr2"]], ["angles"]
    )
    assert "notes" not in got
    assert got["angle_direct"] and got["angle_formula"]
    assert got["angle_direct"] == want["angle_direct"]
    assert got["angle_formula"] == want["angle_formula"]


def test_clean_noise_level_exact_recovery(tmp_path):
    doc = {
        "problem": "synthetic",
        "n": 8,
        "synthetic": {"n": 8, "decay": "severe", "alpha": 0.5, "beta": 1.0},
        "noise_levels": [0.0],
        "seeds": [1],
        "solvers": ["tsvd"],
        "k_max": 8,
        "output_dir": str(tmp_path / "clean"),
    }
    summary = cli.run_experiment(cli.ExperimentConfig.from_dict(doc))
    cell = summary["cells"][0]
    assert cell["best_error"] < 1e-10
    assert cell["best_k"] == 8


def test_matvec_efficiency_table(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", solvers=["mr2", "lsqr"], k_max=12)
    )
    summary = cli.run_experiment(cfg)
    by_solver = {c["solver"]: c for c in summary["cells"]}
    assert by_solver["lsqr"]["matvec_count"] >= 2 * by_solver["mr2"]["matvec_count"] - 4


def test_config_validation_errors():
    base = small_config("x")
    for severed in (
        {"problem": "nope"},
        {"solvers": []},
        {"solvers": ["cg"]},
        {"noise_levels": [1.5]},
        {"seeds": []},
        {"noise_levels": []},
        {"output_dir": ""},
        {"k_max": 0},
        {"diagnostics": ["spectra"]},
        {"solvers": ["minres", "minres"]},
        {"seeds": [1, 1]},
        {"noise_levels": [1e-3, 1e-3]},
        {"noise_levels": [1e-3, 0.0010000001]},  # the same file names
        {"problem": "synthetic", "n": 100, "synthetic": {"n": 12}},
    ):
        doc = dict(base)
        doc.update(severed)
        with pytest.raises(ConfigError):
            cli.ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        cli.ExperimentConfig.from_dict({**base, "surprise": 1})
    with pytest.raises(ConfigError):
        cli.ExperimentConfig.from_dict({k: v for k, v in base.items() if k != "n"})


@pytest.mark.parametrize("key,value", [
    ("k_max", "3"), ("k_max", 2.0), ("k_max", True),
    ("n", 16.5), ("n", "96"), ("n", False),
    ("noise_levels", 1e-3), ("noise_levels", ["1e-3"]), ("noise_levels", [True]),
    ("seeds", ["a"]), ("seeds", 1), ("seeds", [1.5]), ("seeds", [True]),
    ("solvers", "minres"), ("diagnostics", "lcurve"),
    ("band", 2.5), ("band", "3"), ("band", True), ("sigma", "0.7"), ("sigma", None),
    ("output_dir", 5), ("output_dir", ["x"]), ("synthetic", [1]),
    *(("synthetic", {"n": 96, **field}) for field in (
        {"n": 96.0}, {"alpha": "x"}, {"seed": 1.5}, {"seed": True}, {"beta": None}, {"decay": 5},
        {"alpha": math.nan}, {"decay": "moderate", "alpha": math.inf},
    )),
    ("sigma", math.nan),  # json writes and reads NaN and Infinity
    # and integers of any size
    pytest.param("noise_levels", [10**400], id="noise_levels-10**400"),
    pytest.param("sigma", 10**400, id="sigma-10**400"),
    pytest.param("synthetic", {"n": 96, "alpha": 10**400}, id="synthetic-alpha-10**400"),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, key, value):
    # band and sigma shape only the blur operator, a synthetic spec only
    # the synthetic problem
    base = {"problem": "blur", "n": 16} if key in ("band", "sigma") else {}
    if isinstance(value, dict):
        base = {"problem": "synthetic"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "out", **base, **{key: value})))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    (b'[{"a": 1}]', "JSON object"), (b"5", "JSON object"), (b"null", "JSON object"),
    (b'"abc"', "JSON object"), (b'{"problem": "\xff"}', "not valid JSON"),
    (None, "is a directory"),
], ids=["list", "number", "null", "string", "not-utf8", "directory"])
def test_config_that_is_not_a_json_object_is_usage_error(tmp_path, content, message):
    """A config file that holds no JSON object, or is no file, exits 2 with
    an error line that says so and no traceback."""
    cfg_path = tmp_path / "cfg.json"
    if content is None:
        cfg_path.mkdir()
    else:
        cfg_path.write_bytes(content)
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and message in result.output
    assert "Traceback" not in result.output


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "out")))
    result = runner.invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "nope"}))
    result = runner.invoke(cli.main, ["run", "--config", str(bad)])
    assert result.exit_code == 2

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    result = runner.invoke(cli.main, ["run", "--config", str(notjson)])
    assert result.exit_code == 2

    result = runner.invoke(cli.main, ["reproduce", "nope", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_k_max_beyond_problem_order_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "out", n=16, k_max=40)))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "k_max 40 exceeds the problem order 16" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_blur_band_not_below_m_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config(tmp_path / "out", problem="blur", n=8, band=8, k_max=4)
    cfg_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "blur needs 1 <= band < m" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_unknown_synthetic_key_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config(
        tmp_path / "out", problem="synthetic", n=8, k_max=4, synthetic={"n": 8, "bogus": 1}
    )
    cfg_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "invalid synthetic spec" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_zero_clean_rhs_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config(tmp_path / "out", problem="synthetic", n=12, k_max=4,
                       synthetic={"n": 12, "alpha": 800.0})
    cfg_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "zero norm" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_noise_level_below_underflow_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config(tmp_path / "out", n=8, k_max=4, noise_levels=[1e-200])
    cfg_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "noise level 1e-200 is too small" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_bad_noise_level_after_a_good_one_writes_nothing(tmp_path):
    """Every level is checked against the problem before the output
    directory is made, not when its cell draws the noise."""
    cfg_path = tmp_path / "cfg.json"
    doc = small_config(tmp_path / "out", n=8, k_max=4, noise_levels=[1e-3, 1e-200])
    cfg_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert "noise level 1e-200 is too small" in result.output
    assert not (tmp_path / "out").exists()


def test_synthetic_spec_takes_n_from_the_config(tmp_path):
    doc = small_config(tmp_path / "out", problem="synthetic", n=8, k_max=4,
                       synthetic={"decay": "severe", "alpha": 0.5})
    summary = cli.run_experiment(cli.ExperimentConfig.from_dict(doc))
    assert summary["config"]["synthetic"] == {"decay": "severe", "alpha": 0.5}
    stated = small_config(tmp_path / "stated", problem="synthetic", n=8, k_max=4,
                          synthetic={"n": 8, "decay": "severe", "alpha": 0.5})
    assert cli.run_experiment(cli.ExperimentConfig.from_dict(stated))["cells"] == summary["cells"]


def test_numpy_numbers_in_a_config_are_written_as_json_numbers(tmp_path):
    out = tmp_path / "out"
    doc = small_config(out, problem="synthetic", n=np.int64(8), k_max=np.int32(4),
                       noise_levels=[np.float32(0.25), np.float64(1e-3)], seeds=[np.int64(1)],
                       synthetic={"n": 8, "seed": np.int64(3)})
    summary = cli.run_experiment(cli.ExperimentConfig.from_dict(doc))
    written = json.loads((out / "summary.json").read_text())
    plain = {**doc, "band": 3, "sigma": 0.7, "n": 8, "k_max": 4, "seeds": [1],
             "noise_levels": [float(np.float32(0.25)), 1e-3], "synthetic": {"n": 8, "seed": 3}}
    assert written["config"] == plain
    assert written["manifest"] == summary["manifest"]
    assert [c["seed"] for c in written["cells"]] == [1] * 4


@pytest.mark.parametrize("extra", [
    {"solvers": ["mr2"]}, {"solvers": ["hybrid-mr2"]},
    {"solvers": ["minres"], "diagnostics": ["lowrank"]},
], ids=["mr2", "hybrid-mr2", "minres-lowrank"])
def test_vanishing_a_b_exits_3_without_a_traceback(tmp_path, extra):
    """||b|| is about 4e-131, but the squares of A b underflow: K_k(A, Ab)
    has no start in double precision, a numerical failure, not a bad input."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(
        tmp_path / "out", problem="synthetic", n=8, noise_levels=[0.0], k_max=3,
        synthetic={"decay": "severe", "alpha": 300.0, "beta": 0.001},
        **{"diagnostics": [], **extra})))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 3, result.output
    assert "numerical failure: A b is zero in working precision" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "summary.json").exists()


def test_failing_diagnostics_leave_no_empty_file(tmp_path, monkeypatch):
    """A document's text is built before its file is opened."""
    def fails(*args, **kwargs):
        raise NumericalError("injected failure")

    monkeypatch.setattr(diagnostics, "lanczos_decay_table", fails)
    out = tmp_path / "out"
    cfg = cli.ExperimentConfig.from_dict(small_config(out, diagnostics=["decay"]))
    with pytest.raises(NumericalError):
        cli.run_experiment(cfg)
    assert sorted(p.name for p in out.iterdir()) == ["trace_minres_0.001_1.csv",
                                                     "trace_mr2_0.001_1.csv"]


def test_filters_build_no_double_factorization(tmp_path, monkeypatch):
    """filters runs its own extended-precision projection, whose breakdown
    sets its depth; with tsvd alone no solver factorization is built."""
    calls = []
    lanczos_binding = solvers.lanczos

    def counted(*args, **kwargs):
        calls.append(args[1])
        return lanczos_binding(*args, **kwargs)

    monkeypatch.setattr(solvers, "lanczos", counted)
    out = tmp_path / "out"
    cfg = cli.ExperimentConfig.from_dict(
        small_config(out, seeds=[1, 2], solvers=["tsvd"], diagnostics=["filters"])
    )
    cli.run_experiment(cfg)
    assert calls == []
    doc = json.loads((out / "diagnostics_0.001_2.json").read_text())
    assert len(doc["harmonic_ritz_values"]) == 10


def test_filters_depth_stops_at_the_extended_breakdown(tmp_path):
    # clean data whose coefficients exp(-100 j) leave b numerically one
    # eigenvector, so the projection breaks down after one step, not six
    out = tmp_path / "out"
    cfg = cli.ExperimentConfig.from_dict(small_config(
        out, problem="synthetic", n=12, k_max=6, noise_levels=[0.0], solvers=["tsvd"],
        diagnostics=["filters"], synthetic={"alpha": 50.0},
    ))
    cli.run_experiment(cfg)
    doc = json.loads((out / "diagnostics_0_1.json").read_text())
    assert doc["harmonic_ritz_values"] == [[pytest.approx(math.exp(-50.0), rel=1e-12)]]


def test_a_failing_extended_build_stops_after_the_same_files(tmp_path, monkeypatch):
    """A block builds the extended projections of all its cells before
    their traces, but a build that fails is raised where its cell's
    filters are computed: the run exits 3 after the first cell's files and
    the second cell's traces, as a cell-by-cell pass does."""
    calls = []

    def fails_on_second_cell(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalError("injected failure")
        return lanczos(*args)

    monkeypatch.setattr(cli, "lanczos", fails_on_second_cell)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(
        out, seeds=[1, 2, 3], solvers=["minres", "tsvd"], diagnostics=["filters"])))
    assert solvers.cells_per_block(problems.generate("shaw", 96).a, 10, ["minres"]) >= 3
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 3, result.output
    assert "numerical failure: injected failure" in result.output
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics_0.001_1.json", "trace_minres_0.001_1.csv", "trace_minres_0.001_2.csv",
        "trace_tsvd_0.001_1.csv", "trace_tsvd_0.001_2.csv"]


def test_filters_block_pass_peak_is_no_higher_than_cell_by_cell(tmp_path, monkeypatch):
    """The block casts the operator to np.longdouble once and releases the
    cast before its traces run, so a filters run's traced peak is no higher
    than a cell-by-cell pass's, which casts it in each cell's diagnostics,
    beside that cell's traces; the two write the same bytes."""
    n = 256
    peaks, written = {}, {}
    for mode in ("block", "cell"):
        if mode == "cell":
            run_cells, cell_diagnostics = cli._run_cells, cli._cell_diagnostics

            def cell_by_cell(cfg, prob, decomp, noise, cache, entries, ritz):
                extended = prob.a.astype(np.longdouble)
                tridiag = lanczos(extended, START_RESIDUAL, noise.b, min(10, cfg.k_max)).tridiag
                ritz = diagnostics.harmonic_ritz_block([tridiag])[0]
                return cell_diagnostics(cfg, prob, decomp, noise, cache, entries, ritz)

            monkeypatch.setattr(cli, "_run_cells", lambda *args: run_cells(*args[:5]))
            monkeypatch.setattr(cli, "_cell_diagnostics", cell_by_cell)
        cfg = cli.ExperimentConfig.from_dict(small_config(
            tmp_path / mode, n=n, k_max=30, seeds=list(range(1, 9)),
            solvers=["minres", "mr2", "tsvd"], diagnostics=["filters"]))
        peaks[mode] = traced_peak_n2(lambda: cli.run_experiment(cfg), n)
        written[mode] = {p.name: p.read_bytes() for p in Path(cfg.output_dir).iterdir()
                         if p.name != "summary.json"}
    assert written["block"] == written["cell"]
    assert peaks["block"] <= peaks["cell"]


def test_dense_limit_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setattr(linalg, "DENSE_EIG_LIMIT", 16)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "out", n=17, solvers=["tsvd"])))
    runner = CliRunner()
    result = runner.invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "dense eigensolve of order 17 exceeds limit 16" in result.output
    assert not (tmp_path / "out").exists()
    result = runner.invoke(cli.main, ["reproduce", "fig1", "--n", "17", "--out",
                                      str(tmp_path / "fig")])
    assert result.exit_code == 2
    assert "exceeds limit 16" in result.output
    assert not (tmp_path / "fig").exists()


@pytest.mark.parametrize("overrides", [
    {"problem": "shaw"},
    {"problem": "synthetic"},
    {"problem": "blur", "solvers": ["minres"]},
], ids=["shaw", "synthetic", "blur"])
def test_unbounded_n_is_usage_error(tmp_path, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tmp_path / "out", **overrides, n=10**400)))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "need 2 <= n <= 4096" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["fig1", "--n", "1"], ["fig1", "--n", "2"],
                                  ["fig12", "--n", "7"]])
def test_reproduce_too_small_is_usage_error(tmp_path, args):
    out = tmp_path / "fig"
    result = CliRunner().invoke(cli.main, ["reproduce", *args, "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not out.exists()


def _assert_unwritable(result, path, reason):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert str(path) in result.output and reason in result.output


def test_run_output_dir_below_a_file_is_usage_error(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(out)))
    result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path)])
    _assert_unwritable(result, out, "Not a directory")


def test_reproduce_out_below_a_file_is_usage_error(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "fig"
    result = CliRunner().invoke(cli.main, ["reproduce", "fig1", "--n", "16", "--out", str(out)])
    _assert_unwritable(result, out, "Not a directory")


def test_generate_into_a_missing_directory_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "shaw.json"
    result = CliRunner().invoke(
        cli.main, ["generate", "--problem", "shaw", "--n", "8", "--out", str(out)]
    )
    _assert_unwritable(result, out, "No such file or directory")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("figure_id,n,through_cli,size", [
    ("fig11", 1024, False, 1024), ("fig12", 1024, True, 1024), ("fig11", 32, True, 32),
    ("fig11", None, False, 64), ("fig12", None, True, 64), ("fig1", None, False, 1024),
])
def test_reproduce_problem_size(tmp_path, monkeypatch, figure_id, n, through_cli, size):
    """An explicit n is the size built, also for blur, where n = 1024 is
    not the default; only a missing n takes the figure's default (the blur
    side m = 64, else n = 1024).  `reproduce --n` passes n through as is."""
    built = []

    def refuse(name, n, *args):
        built.append(n)
        raise ConfigError("stop before building")

    monkeypatch.setattr(cli, "_build_problem", refuse)
    out = tmp_path / "fig"
    if through_cli:
        size_args = [] if n is None else ["--n", str(n)]
        result = CliRunner().invoke(cli.main, ["reproduce", figure_id, *size_args, "--out", str(out)])
        assert result.exit_code == 2 and "stop before building" in result.output
    else:
        with pytest.raises(ConfigError):
            cli.reproduce_figure(figure_id, str(out), n=n)
    assert built == [size]
    assert not out.exists()


def test_reproduce_reports_the_files_it_wrote(tmp_path):
    out = tmp_path / "fig"
    result = CliRunner().invoke(cli.main, ["reproduce", "fig1", "--n", "16", "--out", str(out)])
    assert result.exit_code == 0, result.output
    count = len(list(out.iterdir()))
    assert count > 1
    assert result.output == f"wrote {count} files to {out}\n"


def test_reproduce_has_no_full_option(tmp_path):
    out = tmp_path / "fig"
    result = CliRunner().invoke(cli.main, ["reproduce", "fig11", "--full", "--out", str(out)])
    assert result.exit_code == 2
    assert "No such option '--full'" in result.output
    assert not out.exists()


def test_generate_unknown_problem_is_usage_error(tmp_path):
    out = tmp_path / "nope.json"
    result = CliRunner().invoke(
        cli.main, ["generate", "--problem", "nope", "--n", "8", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and "nope" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_layer_bindings_are_reached_at_call_time(tmp_path, monkeypatch):
    """The benchmark tracer wraps these module attributes; every call must
    go through them, or a refactor silently hides a layer from it."""
    counts = {}

    def count(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[attr] = counts.get(attr, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for attr in ("minres_trace", "mr2_trace", "lsqr_trace", "tsvd_trace", "hybrid_trace",
                 "lanczos", "golub_kahan", "lockstep", "_svd_small"):
        count(solvers, attr)
    count(diagnostics, "lcurve_corner")
    monkeypatch.setattr(solvers, "cells_per_block", lambda a, k_max, names: 2)
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", n=32, k_max=6, noise_levels=[1e-3, 1e-2], seeds=[1, 2],
                     solvers=list(cli.SOLVER_NAMES), diagnostics=list(cli.DIAG_NAMES))
    )
    summary = cli.run_experiment(cfg)
    cells, blocks = 4, 2
    for attr in ("minres_trace", "mr2_trace", "lsqr_trace", "tsvd_trace"):
        assert counts[attr] == cells, attr
    assert counts["hybrid_trace"] == 2 * cells
    # one lockstep per block, which builds the K_k(A, b) Lanczos and the
    # Golub-Kahan factorizations of its cells and fills their caches; one
    # lanczos per cell, for K_k(A, Ab), shared by mr2, hybrid-mr2 and the
    # diagnostics.  The filters diagnostic's extended-precision projection
    # is not among them
    assert counts["lockstep"] == blocks
    assert counts["lanczos"] == cells
    assert "golub_kahan" not in counts
    # one inner SVD and one projected L-curve corner per hybrid outer step;
    # one corner per trace for the summary, which the lcurve diagnostic copies
    hybrid_steps = sum(c["iterations"] for c in summary["cells"] if c["solver"].startswith("hybrid"))
    assert counts["_svd_small"] == hybrid_steps
    assert counts["lcurve_corner"] == len(summary["cells"]) + hybrid_steps


def test_the_benchmark_tracer_installs():
    """perfbench's tracer replaces package bindings by name, in a fresh
    interpreter as the benchmark runs it; a binding renamed or removed
    makes `install` raise."""
    src = Path(regkrylov.__file__).resolve().parents[1]
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = (f"import sys; sys.path[:0] = [{str(perfbench)!r}, {str(src)!r}]; "
              "import tracer; tracer.Tracer(spans=True).install()")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("problem, n, seeds, names, fused", [
    ("shaw", 64, [1], list(cli.SOLVER_NAMES), False),
    ("blur", 16, [1, 2], list(cli.SOLVER_NAMES), False),
    ("shaw", 256, [1, 2], ["minres", "lsqr"], True),
])
def test_a_block_takes_one_product_per_round(tmp_path, monkeypatch, problem, n, seeds, names,
                                             fused):
    """A one-cell block and Kronecker blur (one cell per block) build through
    matvec alone; a block of two builds its K_k(A, b) Lanczos and Golub-Kahan
    factorizations in one lockstep, one block product per round, as many as
    its longest build's products."""
    calls = []
    block_matvec = linalg.SymmetricMatrix.block_matvec
    monkeypatch.setattr(linalg.SymmetricMatrix, "block_matvec",
                        lambda self, rows: calls.append(len(rows)) or block_matvec(self, rows))
    built = []
    lockstep = solvers.lockstep
    monkeypatch.setattr(solvers, "lockstep",
                        lambda a, builds: built.append(lockstep(a, builds)) or built[-1])
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", problem=problem, n=n, k_max=30,
                     noise_levels=[1e-3], seeds=seeds, solvers=names)
    )
    cli.run_experiment(cfg)
    if not fused:
        assert calls == [] and built == []
        return
    assert solvers.cells_per_block(problems.generate(problem, n).a, 30, names) == 2
    [facts] = built
    assert len(facts) == 4
    assert len(calls) == max(fact.matvec_count for fact in facts)
    assert max(calls) == 4


def test_block_size_rule(get_problem):
    """A block's bases hold no more doubles than the operator's storage:
    the contract workloads' 11 and 8 cells, and one on Kronecker blur."""
    every = list(cli.SOLVER_NAMES)
    assert solvers.cells_per_block(get_problem("shaw", 1024).a, 30, every) == 11
    assert solvers.cells_per_block(get_problem("shaw", 256).a, 30, ["tsvd", "minres", "mr2"]) == 8
    assert solvers.cells_per_block(get_problem("blur", 16).a, 30, every) == 1
    assert solvers.cells_per_block(get_problem("shaw", 256).a, 30, ["tsvd", "mr2"]) == 1


@pytest.mark.parametrize("count, cap, sizes", [
    (24, 11, [8, 8, 8]), (32, 8, [8, 8, 8, 8]), (3, 2, [3]), (5, 2, [3, 2]),
    (4, 1, [1, 1, 1, 1]), (1, 5, [1]), (7, 10, [7]),
])
def test_cells_split_into_near_equal_blocks(monkeypatch, count, cap, sizes):
    monkeypatch.setattr(solvers, "cells_per_block", lambda a, k_max, names: cap)
    cells = [(1e-3, seed) for seed in range(count)]
    blocks = solvers.blocks(None, cells, 30, [])
    assert [len(b) for b in blocks] == sizes
    assert [c for b in blocks for c in b] == cells


def test_a_cell_writes_the_same_bytes_whichever_cells_share_its_block(tmp_path, monkeypatch):
    """Blocks of two and of three put every cell with other cells, and the
    files are byte-identical (shaw n = 256 breaks down near step 19, so a
    block runs on past its first breakdown, also with one live column)."""
    written = []
    for cap in (2, 3):
        monkeypatch.setattr(solvers, "cells_per_block", lambda a, k_max, names: cap)
        cfg = cli.ExperimentConfig.from_dict(
            small_config(tmp_path / f"cap{cap}", n=256, k_max=30, noise_levels=[1e-2, 1e-4],
                         seeds=[1, 2, 3], solvers=list(cli.SOLVER_NAMES),
                         diagnostics=list(cli.DIAG_NAMES))
        )
        summary = cli.run_experiment(cfg)
        assert {c["iterations"] for c in summary["cells"] if c["solver"] == "minres"} != {30}
        written.append({name: (Path(cfg.output_dir) / name).read_bytes()
                        for name in summary["manifest"]})
    assert written[0] == written[1]


def test_block_bases_stay_within_the_operator_storage(tmp_path, monkeypatch):
    """The cell phase of a dense run, from its first add_noise on, grows by
    at most the operator's storage (n^2 doubles) over one-cell blocks, and
    stays below the set-up's peak.  tracemalloc sees set-up's numpy arrays
    but not the 1 + 6n + 2n^2 doubles of workspace that LAPACK's syevd
    (behind np.linalg.eigh) allocates, so that workspace is added to the
    traced set-up peak."""
    n = 600  # above the Rayleigh polish limit, so set-up is eigh alone
    names = ["minres", "lsqr", "tsvd"]
    assert solvers.cells_per_block(problems.generate("shaw", n).a, 20, names) == 9
    setup = []
    add_noise = problems.add_noise

    def marked(*args, **kwargs):
        if not setup:
            setup.append(tracemalloc.get_traced_memory()[1] / (8.0 * n * n))
            tracemalloc.reset_peak()
        return add_noise(*args, **kwargs)

    monkeypatch.setattr(problems, "add_noise", marked)
    peaks = {}
    for cap in ("rule", 1):
        if cap == 1:
            monkeypatch.setattr(solvers, "cells_per_block", lambda a, k_max, names: 1)
        cfg = cli.ExperimentConfig.from_dict(
            small_config(tmp_path / f"out{cap}", n=n, k_max=20, noise_levels=[1e-2, 1e-3],
                         seeds=list(range(1, 9)), solvers=names)
        )
        setup.clear()
        peaks[cap] = traced_peak_n2(lambda: cli.run_experiment(cfg), n)
    assert peaks["rule"] - peaks[1] <= 1.0
    assert peaks["rule"] <= setup[0] + 2.0


def test_diagnostics_repeat_the_summary_entries(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", n=48, k_max=12, seeds=[1, 2],
                     solvers=list(cli.SOLVER_NAMES), diagnostics=["lcurve"])
    )
    summary = cli.run_experiment(cfg)
    for cell in summary["cells"]:
        doc = json.loads((Path(cfg.output_dir) / f"diagnostics_0.001_{cell['seed']}.json")
                         .read_text())
        assert doc["corner_index"][cell["solver"]] == cell["corner_index"]
        assert doc["semiconvergence"][cell["solver"]] == cell["semiconvergence_index"]
    assert {c["corner_index"] for c in summary["cells"]} != {None}


def test_every_cell_draws_its_noise_through_add_noise(tmp_path, monkeypatch):
    calls = []
    add_noise = problems.add_noise

    def counted(prob, eps, seed):
        calls.append((eps, seed))
        return add_noise(prob, eps, seed)

    monkeypatch.setattr(problems, "add_noise", counted)
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", noise_levels=[0, 1e-3], seeds=[1, 2])
    )
    cli.run_experiment(cfg)
    assert calls == [(0, 1), (0, 2), (1e-3, 1), (1e-3, 2)]


# the keys each diagnostics toggle writes
TOGGLE_KEYS = {
    "lowrank": {"lowrank_error"},
    "decay": {"lowrank_error", "decay_rows", "decay_violations"},
    "angles": {"angle_direct", "angle_formula"},
    "filters": {"harmonic_ritz_values"},
    "lcurve": {"corner_index"},
    "picard": {"picard_noise", "picard_noisy", "tail_head_ratio", "transition_index"},
}


@pytest.mark.parametrize("solver_list,toggles", [
    (["minres", "mr2"], ["lcurve"]),
    (["tsvd", "minres", "mr2"], ["lcurve"]),  # tsvd builds the eigendecomposition
    (["minres", "mr2"], ["lowrank", "angles"]),
    (["tsvd", "minres", "mr2"], ["filters", "decay"]),
    (list(cli.SOLVER_NAMES), list(cli.DIAG_NAMES)),
], ids=["lcurve", "lcurve-tsvd", "lowrank-angles", "filters-decay-tsvd", "all"])
def test_unrequested_quantities_have_no_key(tmp_path, solver_list, toggles):
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", solvers=solver_list, diagnostics=toggles)
    )
    summary = cli.run_experiment(cfg)
    doc = json.loads((Path(cfg.output_dir) / "diagnostics_0.001_1.json").read_text())
    assert set(doc) == {"semiconvergence"}.union(*(TOGGLE_KEYS[t] for t in toggles))
    if "lcurve" in toggles:
        assert doc["corner_index"]
    # the run's spectrum comes with a toggle that reads the decomposition,
    # not with tsvd's decomposition alone
    spectrum = Path(cfg.output_dir) / "spectrum.json"
    assert spectrum.exists() == ("spectrum.json" in summary["manifest"]) == bool(
        set(toggles) - {"lcurve"})
    if spectrum.exists():
        assert set(json.loads(spectrum.read_text())) == (
            {"eigenvalues", "picard_clean"} if "picard" in toggles else {"eigenvalues"})


def test_dropped_arrays_rebuild_from_the_spectrum_bit_for_bit(tmp_path):
    """The arrays a diagnostics file once repeated in every cell, rebuilt
    from the kept outputs and spectrum.json as README's recipes say, have
    the bits of the per-cell formulas that used to write them:
    filter_factor_rows, sigma_next, picard_clean and the lowrank_error and
    sigma_next columns of decay_rows."""
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", diagnostics=list(cli.DIAG_NAMES)))
    cli.run_experiment(cfg)
    doc = json.loads((Path(cfg.output_dir) / "diagnostics_0.001_1.json").read_text())
    spectrum = json.loads((Path(cfg.output_dir) / "spectrum.json").read_text())
    lams = np.array(spectrum["eigenvalues"])
    gam = doc["lowrank_error"]
    rebuilt = {
        "filter_factor_rows": [regkrylov.filter_factors(theta, lams).tolist()
                               for theta in doc["harmonic_ritz_values"]],
        "sigma_next": np.abs(lams[1 : len(gam) + 1]).tolist(),
        "picard_clean": spectrum["picard_clean"],
        "decay_rows": [row + [gam[row[0] - 1], abs(lams[row[0]])] for row in doc["decay_rows"]],
    }

    prob = problems.generate("shaw", 96)
    decomp = linalg.symmetric_eig(prob.a)
    assert lams.tobytes() == decomp.eigenvalues.tobytes()
    noise = problems.add_noise(prob, 1e-3, 1)
    ritz = diagnostics.harmonic_ritz_block(
        [lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, noise.b, 10).tridiag])[0]
    fact = solvers.LanczosCache(prob.a, noise.b, 10).get(solvers.KINDS["mr2"])
    want_gam = diagnostics.lowrank_error_sequence(prob.a, fact)
    rows, _ = diagnostics.lanczos_decay_table(fact, want_gam, decomp.sigmas)
    want = {
        "filter_factor_rows": [diagnostics.filter_factors(theta, decomp.eigenvalues).tolist()
                               for theta in ritz],
        "sigma_next": decomp.sigmas[1 : len(want_gam) + 1].tolist(),
        "picard_clean": diagnostics.coefficient_profile(decomp, prob.b_hat, noise.e).clean.tolist(),
        "decay_rows": [[r.k, r.offdiag_next, r.diag_next, r.lowrank_error,
                        float(decomp.sigmas[r.k])] for r in rows],
    }
    assert rebuilt["decay_rows"] and len(rebuilt["filter_factor_rows"]) == 10
    # the JSON text of a double is its shortest round-trip form: equal text
    # is equal bits
    assert problems.json_text(rebuilt) == problems.json_text(want)


def test_picard_writes_the_coefficient_profile(tmp_path):
    """The picard toggle writes the profile of the cell's own noise without
    tsvd among the solvers, and changes no trace."""
    plain = small_config(tmp_path / "plain", diagnostics=["lcurve"])
    cli.run_experiment(cli.ExperimentConfig.from_dict(plain))
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "picard", diagnostics=["lcurve", "picard"])
    )
    cli.run_experiment(cfg)
    doc = json.loads((Path(cfg.output_dir) / "diagnostics_0.001_1.json").read_text())

    prob = problems.generate("shaw", 96)
    decomp = linalg.symmetric_eig(prob.a)
    e = problems.add_noise(prob, 1e-3, 1).e
    profile = diagnostics.coefficient_profile(decomp, prob.b_hat, e)
    spectrum = json.loads((Path(cfg.output_dir) / "spectrum.json").read_text())
    assert spectrum["picard_clean"] == list(profile.clean)
    assert doc["picard_noise"] == list(profile.noise)
    assert doc["picard_noisy"] == list(profile.noisy)
    assert doc["tail_head_ratio"] == [
        x if np.isfinite(x) else None for x in profile.tail_head_ratio
    ]
    assert doc["transition_index"] == problems.transition_index(decomp, prob.b_hat, e)

    traces = {k: v for k, v in read_all_bytes(tmp_path / "plain").items() if k.endswith(".csv")}
    assert traces
    assert traces == {k: v for k, v in read_all_bytes(tmp_path / "picard").items()
                      if k.endswith(".csv")}


def test_shared_factorizations_change_no_output(tmp_path, monkeypatch):
    """One cell with every solver and diagnostic writes the same bytes as
    when each solver builds its own Lanczos factorization, whatever the
    solver order."""
    out = tmp_path / "out"
    doc = small_config(out, n=64, k_max=12, solvers=list(cli.SOLVER_NAMES),
                       diagnostics=list(cli.DIAG_NAMES))
    shared = cli.run_experiment(cli.ExperimentConfig.from_dict(doc))
    shared_bytes = read_all_bytes(out)

    own = solvers.LanczosCache

    class Unshared(own):
        def get(self, kind):
            return own(self.a, self.b, self.k_max).get(kind)

    with monkeypatch.context() as m:
        m.setattr(solvers, "LanczosCache", Unshared)
        alone = cli.run_experiment(cli.ExperimentConfig.from_dict(doc))
    assert read_all_bytes(out) == shared_bytes
    assert alone["cells"] == shared["cells"]
    by_solver = {c["solver"]: c for c in shared["cells"]}
    for base in ("minres", "mr2"):
        assert by_solver[f"hybrid-{base}"]["matvec_count"] == by_solver[base]["matvec_count"]

    names = list(cli.SOLVER_NAMES)
    names.remove("hybrid-mr2")
    names.insert(names.index("mr2"), "hybrid-mr2")
    reordered = cli.run_experiment(cli.ExperimentConfig.from_dict({**doc, "solvers": names}))
    reordered_bytes = read_all_bytes(out)
    assert reordered_bytes.keys() == shared_bytes.keys()
    for name in shared_bytes:
        if name != "summary.json":
            assert reordered_bytes[name] == shared_bytes[name], name
    assert sorted(reordered["cells"], key=lambda c: c["solver"]) == sorted(
        shared["cells"], key=lambda c: c["solver"]
    )


def test_failed_rerun_leaves_no_stale_summary(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(out, seeds=[1, 2])))
    runner = CliRunner()
    assert runner.invoke(cli.main, ["run", "--config", str(cfg_path)]).exit_code == 0
    assert (out / "summary.json").exists()

    mr2_trace = solvers.mr2_trace
    calls = []

    def fails_on_second_cell(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalError("injected failure")
        return mr2_trace(*args, **kwargs)

    monkeypatch.setattr(solvers, "mr2_trace", fails_on_second_cell)
    result = runner.invoke(cli.main, ["run", "--config", str(cfg_path)])
    assert result.exit_code == 3
    assert "injected failure" in result.output
    assert not (out / "summary.json").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    src = str(Path(regkrylov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "regkrylov", "run", "--config", str(cfg_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "config is not valid JSON" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("figure_id", cli.FIGURE_IDS)
def test_reproduce_smoke(tmp_path, figure_id):
    out = tmp_path / figure_id
    written = cli.reproduce_figure(figure_id, str(out), n=48)
    assert written
    for name in written:
        path = out / name
        assert path.exists() and path.stat().st_size > 0
    assert any(name.endswith(".gp") for name in written)
    widths = {}
    for name in written:
        if name.endswith(".csv"):
            header = (out / name).read_text().splitlines()[0]
            assert "," in header
            widths[name] = len(header.split(","))
    plots = re.findall(r"'([^']+)' using 1:(\d+) ", (out / f"{figure_id}.gp").read_text())
    assert plots
    for name, column in plots:
        assert widths[name] >= int(column), (name, column)


def test_figures_run_the_same_cells_as_run(tmp_path):
    """fig4's mr2 errors and fig5's rank-k errors are the run cells' bytes."""
    figures = tmp_path / "figures"
    for figure_id in ("fig4", "fig5"):
        cli.reproduce_figure(figure_id, str(figures), n=48)
    out = tmp_path / "run"
    cli.run_experiment(cli.ExperimentConfig.from_dict(
        small_config(out, n=48, k_max=30, solvers=["mr2"], diagnostics=["lowrank"])
    ))

    def column(path, header):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        idx = rows[0].index(header)
        return [row[idx] for row in rows[1:] if row[idx]]

    assert column(out / "trace_mr2_0.001_1.csv", "relative_error") == column(
        figures / "fig4_errors_shaw.csv", "mr2"
    )
    lowrank = json.loads((out / "diagnostics_0.001_1.json").read_text())["lowrank_error"]
    series = column(figures / "fig5_lowrank_shaw_0.001.csv", "lowrank_error")
    assert lowrank and [float(x) for x in series] == lowrank


def test_reproduce_blur_writes_images(tmp_path):
    out = tmp_path / "fig11"
    cli.reproduce_figure("fig11", str(out), n=16)
    for stem in ("fig11_original.pgm", "fig11_blurred_noisy.pgm", "fig11_restored.pgm"):
        raw = (out / stem).read_bytes()
        assert raw.startswith(b"P5\n16 16\n255\n")
        assert len(raw) == len(b"P5\n16 16\n255\n") + 16 * 16


def test_generate_roundtrip(tmp_path):
    runner = CliRunner()
    out = tmp_path / "shaw.json"
    result = runner.invoke(
        cli.main, ["generate", "--problem", "shaw", "--n", "24", "--out", str(out)]
    )
    assert result.exit_code == 0
    loaded = problems.load_problem(out)
    fresh = problems.generate("shaw", 24)
    assert np.array_equal(loaded.a.dense(), fresh.a.dense())
    assert np.array_equal(loaded.b_hat, fresh.b_hat)


def test_readme_config_schema_matches_the_code():
    """README's `run` schema example names every config key, solver and
    diagnostics toggle, only SyntheticSpec fields, and loads as a config."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema (`run`)", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    assert set(doc) == {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    assert tuple(doc["solvers"]) == cli.SOLVER_NAMES
    assert tuple(doc["diagnostics"]) == cli.DIAG_NAMES
    assert set(doc["synthetic"]) <= {f.name for f in dataclasses.fields(problems.SyntheticSpec)}
    cli.ExperimentConfig.from_dict(doc)
