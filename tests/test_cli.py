import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import regkrylov
from regkrylov import cli, diagnostics, problems, solvers
from regkrylov.exceptions import ConfigError


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
        data = cli.read_trace_csv(Path(cfg.output_dir) / cell["trace_file"])
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
            cli.read_trace_csv(path)


def test_filters_diagnostic_uses_extended_projection(tmp_path):
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", solvers=["minres"], diagnostics=["filters"])
    )
    summary = cli.run_experiment(cfg)
    doc = json.loads((Path(cfg.output_dir) / summary["diagnostics_files"][0]).read_text())
    prob = problems.generate("shaw", 96)
    tridiag = diagnostics.extended_tridiagonal(prob.a, problems.add_noise(prob, 1e-3, 1).b, 10)
    assert len(doc["harmonic_ritz_values"]) == len(doc["filter_factor_rows"]) == 10
    for k, got in enumerate(doc["harmonic_ritz_values"], start=1):
        assert got == diagnostics.harmonic_ritz(tridiag.head(k)).tolist()


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
        {"k_max": 0},
        {"diagnostics": ["spectra"]},
    ):
        doc = dict(base)
        doc.update(severed)
        with pytest.raises(ConfigError):
            cli.ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        cli.ExperimentConfig.from_dict({**base, "surprise": 1})
    with pytest.raises(ConfigError):
        cli.ExperimentConfig.from_dict({k: v for k, v in base.items() if k != "n"})


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
                 "lanczos", "golub_kahan", "_svd_small"):
        count(solvers, attr)
    count(diagnostics, "lcurve_corner")
    cfg = cli.ExperimentConfig.from_dict(
        small_config(tmp_path / "out", n=32, k_max=6, noise_levels=[1e-3, 1e-2], seeds=[1, 2],
                     solvers=list(cli.SOLVER_NAMES))
    )
    summary = cli.run_experiment(cfg)
    cells = 4
    for attr in ("minres_trace", "mr2_trace", "lsqr_trace", "tsvd_trace", "golub_kahan"):
        assert counts[attr] == cells, attr
    assert counts["hybrid_trace"] == 2 * cells
    assert counts["lanczos"] == 4 * cells
    # one inner SVD and one projected L-curve corner per hybrid outer step;
    # one corner per trace for the summary and one for the lcurve diagnostic
    hybrid_steps = sum(c["iterations"] for c in summary["cells"] if c["solver"].startswith("hybrid"))
    assert counts["_svd_small"] == hybrid_steps
    assert counts["lcurve_corner"] == 2 * len(summary["cells"]) + hybrid_steps


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
    for name in written:
        if name.endswith(".csv"):
            header = (out / name).read_text().splitlines()[0]
            assert "," in header


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
