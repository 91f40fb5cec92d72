"""Command-line experiment harness.

`regkrylov run` executes a JSON-configured solver sweep and emits per-trace
CSV files, per-cell diagnostics JSON, the run's spectrum JSON (once, when a
diagnostic reads the eigendecomposition) and a summary JSON.
`regkrylov reproduce` regenerates the data series behind the canonical
experiment figures.
`regkrylov generate` exports a test problem to the portable JSON container.
All outputs are byte-deterministic for a fixed configuration on one machine
with a fixed BLAS thread count.

`run` and `reproduce` go through their (noise level, seed) cells in
blocks (`_run_cells`): a block draws its noise, builds the K_k(A, b)
Lanczos and Golub-Kahan factorizations of all its cells in one lockstep,
one block product per round, takes the harmonic Ritz values of the
`filters` diagnostic for all its cells in one pass (`_block_ritz`), then
traces one cell at a time, keeping its documents but not its traces.  One
write phase (`_write_files`) after the last cell writes every document,
so a run or figure that fails writes no file.
`solvers.blocks` holds the block rule (one cell per block on blur).  The
K_k(A, Ab) factorization stays per cell (see `solvers.block_caches`).
Every factorization a diagnostic or figure reads comes from the cell's
`LanczosCache`, asked for by `solvers.KINDS` of the solver whose Krylov
space it studies.
"""

import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields

import click
import numpy as np

from . import diagnostics, linalg, problems, solvers
from .exceptions import (
    ConfigError, ContractViolation, NumericalError, RegKrylovError, ResourceLimitError,
)
from .krylov import lanczos
from .linalg import symmetric_eig

SOLVER_NAMES = tuple(solvers.SOLVERS)
DIAG_NAMES = ("lowrank", "angles", "filters", "decay", "lcurve", "picard")


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
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def validate(self):
        """The rules a config obeys alone; `run_experiment` checks the rest."""
        problems.check_field_types(self, ConfigError)
        if not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        if self.synthetic is not None and not isinstance(self.synthetic, dict):
            raise ConfigError("synthetic must be an object or null")
        if not all(problems.is_integer(s) for s in self.seeds):
            raise ConfigError("seeds must be integers")
        for eps in self.noise_levels:
            problems.check_noise_level(eps, error=ConfigError)
        if self.problem not in problems.PROBLEM_NAMES + ("synthetic",):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise ConfigError(f"unknown solver {s!r}")
        if not self.noise_levels:
            raise ConfigError("at least one noise level is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.k_max < 1:
            raise ConfigError("k_max must be at least 1")
        for d in self.diagnostics:
            if d not in DIAG_NAMES:
                raise ConfigError(f"unknown diagnostics toggle {d!r}")
        # a cell keys its traces by solver and names its files by solver,
        # noise level (as %g) and seed: a repeated entry would repeat a cell
        for key, values in (("solvers", self.solvers), ("seeds", self.seeds),
                            ("noise_levels", [f"{e:g}" for e in self.noise_levels])):
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate entries in {key}")
        if self.synthetic is not None and self.synthetic.get("n", self.n) != self.n:
            raise ConfigError(f"synthetic.n {self.synthetic['n']!r} differs from n {self.n}")


def _csv_field(x):
    """Shortest round-trip text of a number; None and NaN are empty."""
    if isinstance(x, (int, np.integer)):
        return repr(int(x))
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return repr(float(x))


def _series_csv(header, columns):
    """CSV text, one column per series; a shorter series leaves its last rows empty."""
    lines = [",".join(header)]
    for i in range(max(len(c) for c in columns)):
        lines.append(",".join(_csv_field(c[i]) if i < len(c) else "" for c in columns))
    return "\n".join(lines) + "\n"


def _trace_csv(trace):
    return _series_csv(
        ["k", "residual_norm", "solution_norm", "relative_error"],
        [
            list(range(1, trace.iterations + 1)),
            trace.residual_norms,
            trace.solution_norms,
            [] if trace.relative_errors is None else trace.relative_errors,
        ],
    )


def _build_problem(name, n, band=3, sigma=0.7, synthetic=None):
    """The named problem (and its decomposition, when the generator knows
    it); contract errors from config values become ConfigError."""
    try:
        if name == "synthetic":
            try:  # the spec's n defaults to the config's
                spec = problems.SyntheticSpec(**{"n": n, **(synthetic or {})})
            except TypeError as exc:  # unknown keys
                raise ConfigError(f"invalid synthetic spec: {exc}") from exc
            return problems.generate_synthetic(spec)
        prob = problems.generate(name, n, band=band, sigma=sigma)
    except ContractViolation as exc:
        raise ConfigError(f"invalid {name} problem: {exc}") from exc
    return prob, None


def _decompose(a):
    """The eigendecomposition of a; an operator beyond the dense limit is
    a ConfigError."""
    try:
        return symmetric_eig(a)
    except ResourceLimitError as exc:
        raise ConfigError(str(exc)) from exc


def _make_output_dir(path):
    """os.makedirs(path, exist_ok=True); an OSError (say, a regular file on
    the path) is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror or exc}") from exc


def _write_files(out_dir, files):
    """Write each (name, document) of files into out_dir: text, or bytes."""
    for name, data in files:
        with open(os.path.join(out_dir, name), "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)


def _remove_previous_run(out_dir):
    """Remove the regular files directly in out_dir that its summary.json
    lists in its manifest, and the summary itself.  A summary that cannot
    be read, or whose manifest is not a list of strings, lists nothing."""
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)["manifest"]
    except (OSError, ValueError, TypeError, KeyError):
        manifest = []
    if not (isinstance(manifest, list) and all(isinstance(n, str) for n in manifest)):
        manifest = []
    for name in manifest + ["summary.json"]:
        path = os.path.join(out_dir, name)
        # a name with a separator is not directly in out_dir; . and .. are no files
        if os.path.basename(name) == name and os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)


def _run_cells(prob, decomp, cells, k_max, names, ritz_depth=0):
    """Yield ((noise level, seed), (noise, LanczosCache, traces of the
    named solvers by name in the given order), harmonic Ritz values) for
    every cell, in order.

    The cells go in the blocks of `solvers.blocks`.  A block draws the
    noise of its cells, one `add_noise` per cell in cell order, fills their
    caches through `solvers.block_caches`, which builds the factorizations
    of K_k(A, b) and Golub-Kahan of every cell in one lockstep, takes the
    harmonic Ritz values of the cells when ritz_depth is positive
    (`_block_ritz`; None otherwise), and then traces one cell at a time.
    The K_k(A, Ab) factorization stays per cell, built by its cache when a
    solver or diagnostic first asks for it (see `solvers.block_caches`).  A
    cell's cache is released once it has been yielded."""
    for block in solvers.blocks(prob.a, cells, k_max, names):
        noises = [problems.add_noise(prob, eps, seed) for eps, seed in block]
        caches = solvers.block_caches(prob.a, [noise.b for noise in noises], k_max, names)
        ritz = _block_ritz(prob.a, noises, ritz_depth) if ritz_depth else [None] * len(block)
        for cell, noise, heads in zip(block, noises, ritz):
            cache = caches.pop(0)
            yield cell, (noise, cache, {
                name: solvers.SOLVERS[name](prob.a, noise.b, k_max, prob.x_true, decomp, cache)
                for name in names
            }), heads


def _block_ritz(a, noises, depth):
    """For each cell, the harmonic Ritz values of every head of its minres
    projection of `depth` steps, built again in extended precision so that
    the filter factors reproduce the iterate beyond double rounding; its
    own breakdown, if any, cuts the depth.

    The block casts the operator to np.longdouble once, builds each cell's
    projection on it in turn, keeps only the tridiagonals, and releases the
    cast before the block's traces run; `diagnostics.harmonic_ritz_block`
    then takes the values of every cell together.  A build that fails
    raises before the block's traces; no file has been written by then."""
    extended = a.astype(np.longdouble)
    tridiags = [lanczos(extended, solvers.KINDS["minres"], noise.b, depth).tridiag
                for noise in noises]
    del extended
    return diagnostics.harmonic_ritz_block(tridiags)


def _cell_summary(solver, eps, seed, trace, csv_name):
    best_k, best_err = trace.best()
    corner = diagnostics.lcurve_corner(
        diagnostics.lcurve_points(trace.residual_norms, trace.solution_norms)
    )
    return {
        "solver": solver,
        "eps": eps,
        "seed": seed,
        "best_error": best_err,
        "best_k": best_k,
        "semiconvergence_index": best_k,
        "corner_index": corner,
        "matvec_count": int(trace.matvecs[-1]) if trace.iterations else 0,
        "iterations": trace.iterations,
        "trace_file": csv_name,
    }


def _cell_diagnostics(cfg, prob, decomp, noise, cache, entries, ritz, clean):
    """The diagnostics document of one cell as JSON text, keyed by quantity
    name; arrays are k-indexed from 1 and an unrequested quantity has no
    key.  What the run's spectrum determines (filter factors, next
    eigenvalue magnitudes, clean coefficients) is left to `_spectrum_text`.
    `entries` are the cell's summary entries, whose L-curve corners
    and best k it repeats.  The Lanczos factorization of K_k(A, Ab) comes
    from the cell's `cache`, built there on first use whichever solvers ran.
    `ritz` is the cell's entry from `_block_ritz` when filters is on, and
    `clean` the run's |v_j^T b_hat| when picard is."""
    toggles = set(cfg.diagnostics)
    doc = {"semiconvergence": {e["solver"]: e["semiconvergence_index"] for e in entries}}
    if "lcurve" in toggles:
        doc["corner_index"] = {e["solver"]: e["corner_index"] for e in entries}
    if toggles & {"lowrank", "decay", "angles"}:
        fact = cache.get(solvers.KINDS["mr2"])
    if "lowrank" in toggles or "decay" in toggles:
        gam = diagnostics.lowrank_error_sequence(prob.a, fact)
        doc["lowrank_error"] = gam.tolist()
        if "decay" in toggles:
            rows, violations = diagnostics.lanczos_decay_table(fact, gam, decomp.sigmas)
            doc["decay_rows"] = rows
            doc["decay_violations"] = len(violations)
    if "angles" in toggles:
        count = min(cfg.k_max, diagnostics.COUPLING_K_CAP)
        doc["angle_direct"] = [diagnostics.angle_sine(decomp, k, fact)
                               for k in range(1, min(count, fact.basis.shape[1]) + 1)]
        doc["angle_formula"] = diagnostics.formula_sines(decomp, noise.b, count)
    if "filters" in toggles:
        doc["harmonic_ritz_values"] = [theta.tolist() for theta in ritz]
    if "picard" in toggles:
        profile = diagnostics.coefficient_profile(decomp, prob.b_hat, noise.e)
        doc["picard_noise"] = profile.noise.tolist()
        doc["picard_noisy"] = profile.noisy.tolist()
        doc["tail_head_ratio"] = [
            x if math.isfinite(x) else None for x in profile.tail_head_ratio.tolist()
        ]
        doc["transition_index"] = problems.transition_index(clean, profile.noise)
    return problems.json_text(doc)


def _spectrum_text(decomp, clean):
    """The run's spectrum document as JSON text: the signed eigenvalues in
    decomposition order and, with picard, `clean`, the magnitudes
    |v_j^T b_hat| that every cell's diagnostics share."""
    doc = {"eigenvalues": decomp.eigenvalues.tolist()}
    if clean is not None:
        doc["picard_clean"] = clean.tolist()
    return problems.json_text(doc)


def run_experiment(cfg):
    """Execute a config; returns the summary dict after writing all files.
    Every configuration error is raised before the output directory is
    made, and every document is built before any file is written: then the
    previous run's files go (`_remove_previous_run`), and the new ones are
    written, summary.json last.  A run that fails writes no file."""
    prob, decomp = _build_problem(cfg.problem, cfg.n, cfg.band, cfg.sigma, cfg.synthetic)
    if cfg.k_max > prob.a.n:
        raise ConfigError(f"k_max {cfg.k_max} exceeds the problem order {prob.a.n}")
    for eps in cfg.noise_levels:
        problems.check_noise_level(eps, prob.b_hat, ConfigError)
    # tsvd and every diagnostic but lcurve read the eigendecomposition
    spectral = set(cfg.diagnostics) - {"lcurve"}
    if decomp is None and ("tsvd" in cfg.solvers or spectral):
        decomp = _decompose(prob.a)
    _make_output_dir(cfg.output_dir)
    cells, files = [], []
    keys = [(eps, seed) for eps in cfg.noise_levels for seed in cfg.seeds]
    ritz_depth = min(10, cfg.k_max) if "filters" in cfg.diagnostics else 0
    # the clean coefficients are the same in every cell: one projection
    clean = np.abs(decomp.project(prob.b_hat)) if "picard" in spectral else None
    for (eps, seed), (noise, cache, traces), ritz in _run_cells(prob, decomp, keys, cfg.k_max,
                                                                cfg.solvers, ritz_depth):
        entries = []
        for solver, trace in traces.items():
            csv_name = f"trace_{solver}_{eps:g}_{seed}.csv"
            files.append((csv_name, _trace_csv(trace)))
            entries.append(_cell_summary(solver, eps, seed, trace, csv_name))
        cells.extend(entries)
        if cfg.diagnostics:
            files.append((f"diagnostics_{eps:g}_{seed}.json",
                          _cell_diagnostics(cfg, prob, decomp, noise, cache, entries, ritz, clean)))
    if spectral:
        files.append(("spectrum.json", _spectrum_text(decomp, clean)))
    summary = {
        "config": asdict(cfg),
        "cells": cells,
        "diagnostics_files": [name for name, _ in files if name.startswith("diagnostics_")],
        "manifest": [name for name, _ in files],
    }
    _remove_previous_run(cfg.output_dir)
    _write_files(cfg.output_dir, files + [("summary.json", problems.json_text(summary))])
    return summary


# ---------------------------------------------------------------------------
# figure reproduction


def _pgm(image):
    """The image as a binary 8-bit PGM, its range stretched to 0..255."""
    lo = float(image.min())
    hi = float(image.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((image - lo) * scale).astype(np.uint8)
    return f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii") + pixels.tobytes()


def _gnuplot_script(files, title):
    plots = [f"'{csv_file}' using 1:{idx} with linespoints title '{name}'"
             for csv_file, _, cols in files for idx, name in cols]
    lines = ["set datafile separator ','", f"set title '{title}'", "set key outside",
             "set logscale y", "plot " + ", \\\n     ".join(plots)]
    return "\n".join(lines) + "\n"


# Series writers.  Each builds the files of one problem of a figure and
# returns them as (file name, document, [(column, plot title), ...]) in
# file order; a file without columns is not plotted.  A panel holds one problem of the
# figure and its cells: noise level -> (noise, LanczosCache, traces by solver).
_Panel = namedtuple("_Panel", "pname prob decomp k_max cells")


def _errors(tag, panel):
    """Relative errors per k: one column per solver, or per noise level
    where the figure runs one solver at several."""
    by_eps = len(panel.cells) > 1
    cols = [
        (f"eps_{eps:g}", f"{eps:.0e}".replace("e-0", "e-"), trace) if by_eps
        else (name.replace("-", "_"), name, trace)
        for eps, (_, _, traces) in panel.cells.items() for name, trace in traces.items()
    ]
    text = _series_csv(
        ["k"] + [head for head, _, _ in cols],
        [list(range(1, panel.k_max + 1))] + [list(t.relative_errors) for _, _, t in cols],
    )
    return [(f"{tag}_errors_{panel.pname}.csv", text,
             [(i + 2, title) for i, (_, title, _) in enumerate(cols)])]


def _singular_values(tag, panel):
    [(_, cache, _)] = panel.cells.values()
    text = _series_csv(
        ["j", "minres", "mr2", "operator"],
        [list(range(1, panel.k_max + 1))]
        + [list(linalg._svd_small(cache.get(solvers.KINDS[solver]).tridiag.dense())[0])
           for solver in ("minres", "mr2")]
        + [list(panel.decomp.sigmas[: panel.k_max])],
    )
    return [(f"{tag}_projected_singular_values_{panel.pname}.csv", text,
             [(2, "minres"), (3, "mr2"), (4, "operator")])]


def _lcurves(tag, panel):
    [(_, _, traces)] = panel.cells.values()
    files = []
    for sname in ("minres", "mr2"):
        xs, ys = diagnostics.lcurve_points(traces[sname].residual_norms,
                                           traces[sname].solution_norms)
        text = _series_csv(["k", "log_residual", "log_solution_norm"],
                           [range(1, len(xs) + 1), xs, ys])
        files.append((f"{tag}_lcurve_{sname}.csv", text, [(3, f"lcurve {sname}")]))
    return files


def _rank_k_errors(tag, panel):
    files = []
    for eps, (_, cache, _) in panel.cells.items():
        gam = diagnostics.lowrank_error_sequence(panel.prob.a, cache.get(solvers.KINDS["mr2"]))
        text = _series_csv(
            ["k", "lowrank_error", "next_eigenvalue_magnitude"],
            [list(range(1, len(gam) + 1)), list(gam), list(panel.decomp.sigmas[1 : len(gam) + 1])],
        )
        files.append((f"{tag}_lowrank_{panel.pname}_{eps:g}.csv", text,
                      [(2, "rank-k error"), (3, "|next eigenvalue|")]))
    return files


def _decay(tag, panel):
    [(_, cache, _)] = panel.cells.values()
    fact = cache.get(solvers.KINDS["mr2"])
    alpha, beta = fact.tridiag.alpha, fact.tridiag.beta
    ks = list(range(2, fact.k))
    text = _series_csv(
        ["k", "offdiag", "diag_next", "sigma"],
        [ks, [beta[k - 2] for k in ks], [abs(alpha[k - 1]) for k in ks],
         [panel.decomp.sigmas[k - 1] for k in ks]],
    )
    return [(f"{tag}_decay_{panel.pname}.csv", text,
             [(2, "offdiag"), (3, "next diag"), (4, "sigma")])]


def _images(tag, panel):
    """The true image, the noisy data and hybrid-mr2's best iterate."""
    [(noise, _, traces)] = panel.cells.values()
    hy = traces["hybrid-mr2"]
    restored = hy.solutions[diagnostics.semiconvergence_index(hy) - 1]
    m = panel.prob.a.m
    return [(f"{tag}_{stem}.pgm", _pgm(image.reshape((m, m), order="F")), [])
            for stem, image in zip(("original", "blurred_noisy", "restored"),
                                   (panel.prob.x_true, noise.b, restored))]


_SPECTRAL_WRITERS = {_singular_values, _rank_k_errors, _decay}

# figure id -> (problems with their noise levels, solvers, series writers in
# file order, k_max cap, blur (band, sigma) or None)
_Figure = namedtuple("_Figure", "problems solvers writers k_cap blur", defaults=(30, None))
_EPS = (1e-3,)
_FOUR = tuple((p, _EPS) for p in ("shaw", "foxgood", "gravity", "phillips"))
_SWEEP = (1e-2, 1e-3, 1e-4)
_MR = ("minres", "mr2")
FIGURES = {
    "fig1": _Figure(_FOUR[:2], _MR, (_errors, _singular_values)),
    "fig2": _Figure(_FOUR[2:], _MR, (_errors, _singular_values)),
    "fig3": _Figure((("deriv2", _EPS),), _MR + ("hybrid-minres", "hybrid-mr2"),
                    (_errors, _lcurves)),
    "fig4": _Figure(_FOUR, ("mr2", "hybrid-mr2", "hybrid-minres"), (_errors,)),
    "fig5": _Figure((("shaw", (1e-2, 1e-3)), ("foxgood", (1e-3, 1e-4))), (), (_rank_k_errors,)),
    "fig6": _Figure((("shaw", _SWEEP), ("foxgood", _SWEEP)), ("mr2",), (_errors,)),
    "fig7": _Figure((("gravity", (1e-2, 1e-3)), ("phillips", (1e-3, 1e-4))), (),
                    (_rank_k_errors,)),
    "fig8": _Figure((("gravity", _SWEEP), ("phillips", _SWEEP)), ("mr2",), (_errors,)),
    "figpl": _Figure(_FOUR, (), (_decay,), 60),
    "fig11": _Figure((("blur", (5e-3,)),), ("minres", "hybrid-minres", "mr2", "hybrid-mr2"),
                     (_errors, _images), 20, (3, 0.7)),
    "fig12": _Figure((("blur", (5e-3,)),), ("minres", "hybrid-minres", "mr2", "hybrid-mr2"),
                     (_errors, _images), 20, (7, 2.0)),
}
FIGURE_IDS = tuple(FIGURES)


def reproduce_figure(figure_id, out_dir, n=None):
    """Emit the data series (CSV + gnuplot script) for a canonical figure;
    returns the names of the files written.

    Every cell is computed and every document built before the output
    directory is made, so a figure that fails writes nothing.  Files of
    the same names in out_dir are replaced; other files are kept."""
    if figure_id not in FIGURES:
        raise ConfigError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
    fig = FIGURES[figure_id]
    if n is None:  # for blur, n is the image side m
        n = 64 if fig.blur else 1024
    k_max = min(fig.k_cap, n - 2)
    if k_max < 1:
        raise ConfigError(f"problem size {n} is too small: {figure_id} needs at least 3")
    panels = []
    for pname, eps_list in fig.problems:
        prob, _ = _build_problem(pname, n, *(fig.blur or ()))
        decomp = _decompose(prob.a) if _SPECTRAL_WRITERS & set(fig.writers) else None
        cells = {eps: cell for (eps, _), cell, _ in _run_cells(
            prob, decomp, [(eps, 1) for eps in eps_list], k_max, fig.solvers)}
        panels.append(_Panel(pname, prob, decomp, k_max, cells))
    files = [entry for write in fig.writers for panel in panels
             for entry in write(figure_id, panel)]
    files.append((f"{figure_id}.gp", _gnuplot_script(files, f"{figure_id} data series"), []))
    _make_output_dir(out_dir)
    _write_files(out_dir, [(name, data) for name, data, _ in files])
    return [name for name, _, _ in files]


# ---------------------------------------------------------------------------
# click entry points


@click.group()
def main():
    """Krylov regularization experiments on symmetric ill-posed problems."""


def _exit_on_error(action, *args, **kwargs):
    """action(*args, **kwargs); a ConfigError exits 2, a NumericalError 3."""
    try:
        return action(*args, **kwargs)
    except ConfigError as exc:
        raise click.exceptions.UsageError(str(exc))
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


@main.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def run_command(config_path):
    """Run the solver sweep described by a JSON config file."""
    try:
        with open(config_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise click.exceptions.UsageError(f"cannot read config: {exc.strerror or exc}")
    except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
        raise click.exceptions.UsageError(f"config is not valid JSON: {exc}")
    summary = _exit_on_error(lambda: run_experiment(ExperimentConfig.from_dict(doc)))
    click.echo(f"wrote {len(summary['manifest']) + 1} files to {summary['config']['output_dir']}")


@main.command("reproduce")
@click.argument("figure_id")
@click.option("--out", "out_dir", default="figures", type=click.Path())
@click.option("--n", default=None, type=int,
              help="problem size n, or the blur image side m (default 1024; blur 64)")
def reproduce_command(figure_id, out_dir, n):
    """Emit the data series for one canonical figure."""
    written = _exit_on_error(reproduce_figure, figure_id, out_dir, n=n)
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
    try:
        problems.save_problem(prob, out_path)
    except OSError as exc:
        raise click.exceptions.UsageError(f"cannot write {out_path}: {exc.strerror or exc}")
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
