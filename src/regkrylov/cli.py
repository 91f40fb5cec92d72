"""Command-line experiment harness.

`regkrylov run` executes a JSON-configured solver sweep and emits per-trace
CSV files, diagnostics JSON and a summary JSON.  `regkrylov reproduce`
regenerates the data series behind the canonical experiment figures.
`regkrylov generate` exports a test problem to the portable JSON container.
All outputs are byte-deterministic for a fixed configuration on one machine
with a fixed BLAS thread count.
"""

import json
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import diagnostics, problems, solvers
from .exceptions import ConfigError, ContractViolation, NumericalError, RegKrylovError
from .krylov import START_FILTERED, START_RESIDUAL, lanczos
from .linalg import small_svd, symmetric_eig

SOLVER_NAMES = tuple(solvers.SOLVERS)
DIAG_NAMES = ("lowrank", "angles", "filters", "decay", "lcurve")


@dataclass
class ExperimentConfig:
    problem: str
    n: int
    noise_levels: list
    seeds: list
    solvers: list
    k_max: int
    band: int = 3
    sigma: float = 0.7
    synthetic: dict | None = None
    diagnostics: list = field(default_factory=list)
    output_dir: str = "runs"

    @classmethod
    def from_dict(cls, doc):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"problem", "n", "noise_levels", "seeds", "solvers", "k_max"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def validate(self):
        if self.problem not in problems.PROBLEM_NAMES + ("synthetic",):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise ConfigError(f"unknown solver {s!r}")
        for eps in self.noise_levels:
            if not 0.0 <= eps < 1.0:
                raise ConfigError("noise levels must lie in [0, 1); 0 means clean data")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.k_max < 1:
            raise ConfigError("k_max must be at least 1")
        for d in self.diagnostics:
            if d not in DIAG_NAMES:
                raise ConfigError(f"unknown diagnostics toggle {d!r}")

    def to_dict(self):
        doc = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return doc


def _float_repr(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def _write_trace_csv(path, trace):
    _write_series_csv(
        path,
        ["k", "residual_norm", "solution_norm", "relative_error"],
        [
            list(range(1, trace.iterations + 1)),
            trace.residual_norms,
            trace.solution_norms,
            [] if trace.relative_errors is None else trace.relative_errors,
        ],
    )


def read_trace_csv(path):
    """Parse a trace CSV back into per-iteration float arrays."""
    with open(path) as fh:
        rows = fh.read().strip().split("\n")[1:]
    out = {"k": [], "residual_norm": [], "solution_norm": [], "relative_error": []}
    for row in rows:
        k, r, s, e = row.split(",")
        out["k"].append(int(k))
        out["residual_norm"].append(float(r))
        out["solution_norm"].append(float(s))
        out["relative_error"].append(float(e) if e else math.nan)
    return {key: np.asarray(val) for key, val in out.items()}


def _build_problem(cfg):
    """The configured problem (and its decomposition, when the generator
    knows it); contract errors from config values become ConfigError."""
    try:
        if cfg.problem == "synthetic":
            try:
                spec = problems.SyntheticSpec(**(cfg.synthetic or {"n": cfg.n}))
            except TypeError as exc:  # unknown or missing keys
                raise ConfigError(f"invalid synthetic spec: {exc}") from exc
            return problems.generate_synthetic(spec)
        prob = problems.generate(cfg.problem, cfg.n, band=cfg.band, sigma=cfg.sigma)
    except ContractViolation as exc:
        raise ConfigError(f"invalid {cfg.problem} problem: {exc}") from exc
    return prob, None


def _cell_summary(solver, eps, seed, trace, csv_name):
    best_k, best_err = trace.best()
    corner = diagnostics.lcurve_corner(diagnostics.lcurve_points(trace))
    return {
        "solver": solver,
        "eps": eps,
        "seed": seed,
        "best_error": best_err,
        "best_k": best_k,
        "semiconvergence_index": diagnostics.semiconvergence_index(trace),
        "corner_index": corner,
        "matvec_count": int(trace.matvecs[-1]) if trace.iterations else 0,
        "iterations": trace.iterations,
        "trace_file": csv_name,
    }


def _cell_diagnostics(cfg, prob, decomp, noise, traces):
    report = diagnostics.DiagnosticsReport()
    toggles = set(cfg.diagnostics)
    mr2_like = traces.get("mr2") or traces.get("hybrid-mr2")
    if "lowrank" in toggles or "decay" in toggles:
        if mr2_like is None or prob.a.n > 4096:
            report.notes.append("lowrank/decay need an mr2 factorization at dense scale")
        else:
            fact = mr2_like.factorization
            floor = diagnostics.roundoff_floor(prob.a.n, decomp.sigmas[0])
            gam = diagnostics.lowrank_error_sequence(prob.a, fact, floor=floor)
            report.lowrank_error = [float(g) for g in gam]
            report.sigma_next = [float(s) for s in decomp.sigmas[1 : len(gam) + 1]]
            if "decay" in toggles:
                rows, violations = diagnostics.lanczos_decay_table(
                    fact, gam, decomp.sigmas, floor=floor
                )
                report.decay_rows = [
                    [r.k, r.offdiag_next, r.diag_next, r.lowrank_error, r.sigma_next]
                    for r in rows
                ]
                report.decay_violations = len(violations)
    if "angles" in toggles:
        direct = []
        formula = []
        fact = mr2_like.factorization if mr2_like is not None else None
        for k in range(1, min(cfg.k_max, diagnostics.COUPLING_K_CAP) + 1):
            try:
                formula.append(diagnostics.angle_sine(decomp, k, mode="formula", b=noise.b))
            except RegKrylovError:
                formula.append(None)
            if fact is not None and k <= fact.basis.shape[1]:
                direct.append(diagnostics.angle_sine(decomp, k, mode="direct", fact=fact))
        report.angle_direct = direct
        report.angle_formula = formula
    if "filters" in toggles:
        if traces.get("minres") is None:
            report.notes.append("filters need a minres trace")
        else:
            # the minres projection again, in extended precision, so that the
            # filter factors reproduce the iterate beyond double rounding
            steps = min(10, traces["minres"].factorization.k)
            extended = prob.a.astype(np.longdouble)
            tridiag = lanczos(extended, START_RESIDUAL, noise.b, steps).tridiag
            ritz = []
            rows = []
            for k in range(1, tridiag.k + 1):
                try:
                    theta = diagnostics.harmonic_ritz(tridiag.head(k))
                except NumericalError:
                    break
                ritz.append([float(t) for t in theta])
                rows.append(
                    [float(f) for f in diagnostics.filter_factors(theta, decomp.eigenvalues)]
                )
            report.harmonic_ritz_values = ritz
            report.filter_factor_rows = rows
    if decomp is not None:
        profile = diagnostics.coefficient_profile(decomp, prob.b_hat, noise.e)
        report.picard_clean = [float(x) for x in profile.clean]
        report.picard_noise = [float(x) for x in profile.noise]
        report.picard_noisy = [float(x) for x in profile.noisy]
        report.tail_head_ratio = [
            (None if not math.isfinite(x) else float(x)) for x in profile.tail_head_ratio
        ]
        report.transition_index = problems.transition_index(decomp, prob.b_hat, noise.e)
    if "lcurve" in toggles:
        for name, trace in traces.items():
            report.corner_index[name] = diagnostics.lcurve_corner(
                diagnostics.lcurve_points(trace)
            )
    for name, trace in traces.items():
        if trace.relative_errors is not None:
            report.semiconvergence[name] = diagnostics.semiconvergence_index(trace)
    return report


def run_experiment(cfg, progress=None):
    """Execute a config; returns the summary dict after writing all files."""
    prob, decomp = _build_problem(cfg)
    if cfg.k_max > prob.a.n:
        raise ConfigError(f"k_max {cfg.k_max} exceeds the problem order {prob.a.n}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    # summary.json marks a complete run: a rerun that stops partway must
    # not leave the previous run's summary beside its new files
    summary_path = os.path.join(cfg.output_dir, "summary.json")
    if os.path.exists(summary_path):
        os.remove(summary_path)
    needs_decomp = (
        "tsvd" in cfg.solvers
        or bool(set(cfg.diagnostics) & {"lowrank", "angles", "filters", "decay"})
    )
    if decomp is None and needs_decomp:
        decomp = symmetric_eig(prob.a)
    cells = []
    manifest = []
    diag_files = []
    for eps in cfg.noise_levels:
        for seed in cfg.seeds:
            if eps == 0.0:
                noise = problems.NoiseRealization(
                    e=np.zeros(prob.a.n), eps=0.0, seed=seed, b=prob.b_hat.copy()
                )
            else:
                noise = problems.add_noise(prob, eps, seed)
            traces = {}
            cache = solvers.LanczosCache(prob.a, noise.b, cfg.k_max)
            for solver in cfg.solvers:
                trace = solvers.SOLVERS[solver](
                    prob.a, noise.b, cfg.k_max, prob.x_true, decomp, cache
                )
                csv_name = f"trace_{solver}_{eps:g}_{seed}.csv"
                _write_trace_csv(os.path.join(cfg.output_dir, csv_name), trace)
                manifest.append(csv_name)
                cells.append(_cell_summary(solver, eps, seed, trace, csv_name))
                traces[solver] = trace
                if progress:
                    progress(solver, eps, seed)
            if cfg.diagnostics:
                report = _cell_diagnostics(cfg, prob, decomp, noise, traces)
                diag_name = f"diagnostics_{eps:g}_{seed}.json"
                with open(os.path.join(cfg.output_dir, diag_name), "w") as fh:
                    fh.write(report.to_json())
                diag_files.append(diag_name)
                manifest.append(diag_name)
    summary = {
        "config": cfg.to_dict(),
        "cells": cells,
        "diagnostics_files": diag_files,
        "manifest": manifest,
    }
    with open(summary_path, "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=1))
    return summary


# ---------------------------------------------------------------------------
# figure reproduction


def _write_series_csv(path, header, columns):
    length = max(len(c) for c in columns)
    lines = [",".join(header)]
    for i in range(length):
        row = []
        for col in columns:
            if i >= len(col):
                row.append("")
            elif isinstance(col[i], (int, np.integer)):
                row.append(repr(int(col[i])))
            else:
                row.append(_float_repr(col[i]))
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_pgm(path, image):
    lo = float(image.min())
    hi = float(image.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((image - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _gnuplot_script(path, csv_files, title, logscale_y=True):
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key outside",
    ]
    if logscale_y:
        lines.append("set logscale y")
    plots = []
    for csv_file, cols in csv_files:
        for idx, name in cols:
            plots.append(f"'{csv_file}' using 1:{idx} with linespoints title '{name}'")
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_errors(out_dir, name, k_max, traces):
    """Relative errors per k, one column per labelled trace; returns the
    file's plot entry."""
    _write_series_csv(
        os.path.join(out_dir, name),
        ["k"] + [label.replace("-", "_") for label in traces],
        [list(range(1, k_max + 1))] + [list(t.relative_errors) for t in traces.values()],
    )
    return name, [(i + 2, label) for i, label in enumerate(traces)]


def _errors_figure(out_dir, tag, prob_names, n, eps, seed, k_max, solver_names):
    """Error series of each problem; also returns each problem's traces."""
    files = []
    runs = {}
    for pname in prob_names:
        prob = problems.generate(pname, n)
        noise = problems.add_noise(prob, eps, seed)
        cache = solvers.LanczosCache(prob.a, noise.b, k_max)
        traces = {s: solvers.SOLVERS[s](prob.a, noise.b, k_max, prob.x_true, None, cache)
                  for s in solver_names}
        files.append(_write_errors(out_dir, f"{tag}_errors_{pname}.csv", k_max, traces))
        runs[pname] = (prob, traces)
    return files, runs


def _projected_singulars_figure(out_dir, tag, pname, prob, traces, k_max):
    decomp = symmetric_eig(prob.a)
    name = f"{tag}_projected_singular_values_{pname}.csv"
    _write_series_csv(
        os.path.join(out_dir, name),
        ["j", "minres", "mr2", "operator"],
        [
            list(range(1, k_max + 1)),
            list(small_svd(traces["minres"].factorization.tridiag)[0]),
            list(small_svd(traces["mr2"].factorization.tridiag)[0]),
            list(decomp.sigmas[:k_max]),
        ],
    )
    return name


def _lowrank_figure(out_dir, tag, pname, n, eps_list, seed, k_max):
    prob = problems.generate(pname, n)
    decomp = symmetric_eig(prob.a)
    files = []
    for eps in eps_list:
        noise = problems.add_noise(prob, eps, seed)
        fact = lanczos(prob.a, START_FILTERED, noise.b, k_max)
        floor = diagnostics.roundoff_floor(prob.a.n, decomp.sigmas[0])
        gam = diagnostics.lowrank_error_sequence(prob.a, fact, floor=floor)
        name = f"{tag}_lowrank_{pname}_{eps:g}.csv"
        _write_series_csv(
            os.path.join(out_dir, name),
            ["k", "lowrank_error", "next_eigenvalue_magnitude"],
            [
                list(range(1, len(gam) + 1)),
                list(gam),
                list(decomp.sigmas[1 : len(gam) + 1]),
            ],
        )
        files.append((name, [(2, "rank-k error"), (3, "|next eigenvalue|")]))
    return files


def _decay_figure(out_dir, tag, pname, n, eps, seed, k_max):
    prob = problems.generate(pname, n)
    decomp = symmetric_eig(prob.a)
    noise = problems.add_noise(prob, eps, seed)
    fact = lanczos(prob.a, START_FILTERED, noise.b, k_max)
    name = f"{tag}_decay_{pname}.csv"
    alpha = fact.tridiag.alpha
    beta = fact.tridiag.beta
    ks = list(range(2, fact.k))
    _write_series_csv(
        os.path.join(out_dir, name),
        ["k", "offdiag", "diag_next", "sigma"],
        [
            ks,
            [beta[k - 2] for k in ks],
            [abs(alpha[k - 1]) for k in ks],
            [decomp.sigmas[k - 1] for k in ks],
        ],
    )
    return name


def _blur_figure(out_dir, tag, band, sigma, m, eps, seed, k_max):
    prob = problems.generate("blur", m, band=band, sigma=sigma)
    noise = problems.add_noise(prob, eps, seed)
    cache = solvers.LanczosCache(prob.a, noise.b, k_max)
    traces = {s: solvers.SOLVERS[s](prob.a, noise.b, k_max, prob.x_true, None, cache)
              for s in ("minres", "hybrid-minres", "mr2", "hybrid-mr2")}
    file_entry = _write_errors(out_dir, f"{tag}_errors_blur.csv", k_max, traces)
    hy = traces["hybrid-mr2"]
    restored_k = diagnostics.semiconvergence_index(hy)
    shape = (m, m)
    _write_pgm(os.path.join(out_dir, f"{tag}_original.pgm"), prob.x_true.reshape(shape, order="F"))
    _write_pgm(os.path.join(out_dir, f"{tag}_blurred_noisy.pgm"), noise.b.reshape(shape, order="F"))
    _write_pgm(
        os.path.join(out_dir, f"{tag}_restored.pgm"),
        hy.solutions[restored_k - 1].reshape(shape, order="F"),
    )
    return file_entry


FIGURE_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "figpl", "fig11", "fig12",
)


def reproduce_figure(figure_id, out_dir, full=False, n=None, seed=1):
    """Emit the data series (CSV + gnuplot script) for a canonical figure."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
    os.makedirs(out_dir, exist_ok=True)
    n = n or 1024
    k_max = min(30, n - 2)
    eps = 1e-3
    if figure_id in ("fig1", "fig2"):
        pair = ("shaw", "foxgood") if figure_id == "fig1" else ("gravity", "phillips")
        files, runs = _errors_figure(
            out_dir, figure_id, pair, n, eps, seed, k_max, ("minres", "mr2")
        )
        for pname, (prob, traces) in runs.items():
            name = _projected_singulars_figure(out_dir, figure_id, pname, prob, traces, k_max)
            files.append((name, [(2, "minres"), (3, "mr2"), (4, "operator")]))
    elif figure_id == "fig3":
        which = ("minres", "mr2", "hybrid-minres", "hybrid-mr2")
        files, runs = _errors_figure(out_dir, figure_id, ("deriv2",), n, eps, seed, k_max, which)
        _, traces = runs["deriv2"]
        for sname in ("minres", "mr2"):
            pts = diagnostics.lcurve_points(traces[sname])
            name = f"fig3_lcurve_{sname}.csv"
            _write_series_csv(
                os.path.join(out_dir, name),
                ["k", "log_residual", "log_solution_norm"],
                [
                    [p.k for p in pts],
                    [p.log_residual for p in pts],
                    [p.log_solution_norm for p in pts],
                ],
            )
            files.append((name, [(3, f"lcurve {sname}")]))
    elif figure_id == "fig4":
        which = ("mr2", "hybrid-mr2", "hybrid-minres")
        files, _ = _errors_figure(
            out_dir, figure_id, ("shaw", "foxgood", "gravity", "phillips"),
            n, eps, seed, k_max, which,
        )
    elif figure_id in ("fig5", "fig7"):
        spec = (
            [("shaw", (1e-2, 1e-3)), ("foxgood", (1e-3, 1e-4))]
            if figure_id == "fig5"
            else [("gravity", (1e-2, 1e-3)), ("phillips", (1e-3, 1e-4))]
        )
        files = []
        for pname, eps_list in spec:
            files.extend(_lowrank_figure(out_dir, figure_id, pname, n, eps_list, seed, k_max))
    elif figure_id in ("fig6", "fig8"):
        pair = ("shaw", "foxgood") if figure_id == "fig6" else ("gravity", "phillips")
        files = []
        for pname in pair:
            prob = problems.generate(pname, n)
            columns = {}
            for e in (1e-2, 1e-3, 1e-4):
                noise = problems.add_noise(prob, e, seed)
                columns[f"eps_{e:g}"] = solvers.SOLVERS["mr2"](
                    prob.a, noise.b, k_max, prob.x_true, None
                )
            name = f"{figure_id}_errors_{pname}.csv"
            _write_errors(out_dir, name, k_max, columns)
            files.append((name, [(2, "1e-2"), (3, "1e-3"), (4, "1e-4")]))
    elif figure_id == "figpl":
        files = []
        for pname in ("shaw", "foxgood", "gravity", "phillips"):
            name = _decay_figure(out_dir, figure_id, pname, n, eps, seed, min(60, n - 2))
            files.append((name, [(2, "offdiag"), (3, "next diag"), (4, "sigma")]))
    else:  # fig11 / fig12
        m = (256 if full else 64) if n == 1024 else n
        band, sigma = (3, 0.7) if figure_id == "fig11" else (7, 2.0)
        files = [_blur_figure(out_dir, figure_id, band, sigma, m, 5e-3, seed, min(20, m - 2))]
    _gnuplot_script(
        os.path.join(out_dir, f"{figure_id}.gp"), files, f"{figure_id} data series"
    )
    return [f for f, _ in files] + [f"{figure_id}.gp"]


# ---------------------------------------------------------------------------
# click entry points


@click.group()
def main():
    """Krylov regularization experiments on symmetric ill-posed problems."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def run_command(config_path):
    """Run the solver sweep described by a JSON config file."""
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.exceptions.UsageError(f"config is not valid JSON: {exc}")
    try:
        cfg = ExperimentConfig.from_dict(doc)
        summary = run_experiment(cfg)
    except ConfigError as exc:
        raise click.exceptions.UsageError(str(exc))
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {len(summary['manifest']) + 1} files to {cfg.output_dir}")


@main.command("reproduce")
@click.argument("figure_id")
@click.option("--full", is_flag=True, help="blur figures at full image size (m=256)")
@click.option("--out", "out_dir", default="figures", type=click.Path())
@click.option("--n", default=None, type=int, help="override problem size (smoke runs)")
def reproduce_command(figure_id, full, out_dir, n):
    """Emit the data series for one canonical figure."""
    try:
        written = reproduce_figure(figure_id, out_dir, full=full, n=n)
    except ConfigError as exc:
        raise click.exceptions.UsageError(str(exc))
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {len(written)} files to {out_dir}")


@main.command("generate")
@click.option("--problem", "problem_name", required=True)
@click.option("--n", required=True, type=int)
@click.option("--band", default=3, type=int)
@click.option("--sigma", default=0.7, type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
def generate_command(problem_name, n, band, sigma, out_path):
    """Export a test problem to the portable JSON container."""
    try:
        prob = problems.generate(problem_name, n, band=band, sigma=sigma)
    except RegKrylovError as exc:
        raise click.exceptions.UsageError(str(exc))
    problems.save_problem(prob, out_path)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
