"""Correctness gate: checks the files one sweep wrote, cell by cell.

A cell is one (noise level, seed) pair.  It fails when any of its files
breaks an invariant:

- every number in its trace CSVs and diagnostics JSON is finite;
- residual norms never increase for minres, mr2 and lsqr;
- summary.json agrees with the trace CSVs: best k, best error, iteration
  count and a matvec count that follows the solver's rule at the trace's
  last k (k for minres and hybrid-minres, k+1 for mr2 and hybrid-mr2, 2k for
  lsqr, 0 for tsvd).  A trace that stopped before k_max broke down; it may
  also count the one product that revealed the breakdown;
- the diagnostics JSON names the same semi-convergence index as the summary;
- with a reference (the default seed at full size), best k matches exactly
  and best error within REFERENCE_RTOL.
"""

import json
import math
import os

# Relative tolerance on best error against the stored reference.  Results
# are deterministic at a fixed BLAS thread count; this allows for another
# OpenBLAS kernel or a reordered but equivalent computation.
REFERENCE_RTOL = 1e-6

MONOTONE_RESIDUAL = ("minres", "mr2", "lsqr")


def matvec_rule(solver, k):
    return {
        "minres": k, "hybrid-minres": k,
        "mr2": k + 1, "hybrid-mr2": k + 1,
        "lsqr": 2 * k, "tsvd": 0,
    }[solver]


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _finite_numbers(doc):
    """True when every number nested in a parsed JSON document is finite."""
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != "k,residual_norm,solution_norm,relative_error" or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    return {
        "k": [int(r[0]) for r in rows],
        "residual": [float(r[1]) for r in rows],
        "solution": [float(r[2]) for r in rows],
        "error": [float(r[3]) for r in rows],
    }


def cell_key(eps, seed):
    return f"{eps:g}_{seed}"


def trace_name(solver, key):
    return f"trace_{solver}_{key}.csv"


def diagnostics_name(key):
    return f"diagnostics_{key}.json"


def _check_solver(out_dir, solver, key, k_max, entry, reference):
    name = trace_name(solver, key)
    if entry is None:
        return f"{name}: no summary entry"
    try:
        t = read_csv(os.path.join(out_dir, name))
    except (OSError, ValueError, IndexError) as exc:
        return f"{name}: unreadable ({exc})"
    rows = len(t["k"])
    if not 0 < rows <= k_max or t["k"] != list(range(1, rows + 1)):
        return f"{name}: k column is not 1..{rows} with {rows} <= k_max"
    values = t["residual"] + t["solution"] + t["error"]
    if not all(math.isfinite(v) for v in values):
        return f"{name}: non-finite value"
    if solver in MONOTONE_RESIDUAL:
        r = t["residual"]
        if any(b > a for a, b in zip(r, r[1:])):
            return f"{name}: residual norm increases"
    best_err = min(t["error"])
    best_k = t["error"].index(best_err) + 1
    if (entry["best_k"], entry["best_error"]) != (best_k, best_err):
        return f"{name}: summary best ({entry['best_k']}, {entry['best_error']}) " \
               f"!= CSV best ({best_k}, {best_err})"
    if entry["iterations"] != rows or entry["trace_file"] != name:
        return f"{name}: summary iterations or file name disagree with the CSV"
    rule = matvec_rule(solver, rows)
    allowed = (rule,) if rows == k_max or solver == "tsvd" else (rule, rule + 1)
    if entry["matvec_count"] not in allowed:
        return f"{name}: {entry['matvec_count']} matvecs at k={rows}, rule gives {rule}"
    if reference is not None:
        ref_k, ref_err = reference
        if best_k != ref_k or abs(best_err - ref_err) > REFERENCE_RTOL * ref_err:
            return f"{name}: best ({best_k}, {best_err!r}) differs from the " \
                   f"reference ({ref_k}, {ref_err!r})"
    return None


def check_sweep(out_dir, cfg, reference=None):
    """Gate every cell of a finished sweep.

    Returns {cell key: [failure messages]} with an entry for every cell of
    the config; an empty list means the cell passed.  reference maps
    "<solver>/<cell key>" to (best k, best error).
    """
    failures = {cell_key(e, s): [] for e in cfg["noise_levels"] for s in cfg["seeds"]}
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=_reject_constant)
        entries = {
            (c["solver"], cell_key(c["eps"], c["seed"])): c for c in summary["cells"]
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        for msgs in failures.values():
            msgs.append(f"summary.json unreadable ({exc!r})")
        return failures
    for eps in cfg["noise_levels"]:
        for seed in cfg["seeds"]:
            key = cell_key(eps, seed)
            for solver in cfg["solvers"]:
                ref = None if reference is None else reference[f"{solver}/{key}"]
                try:
                    msg = _check_solver(out_dir, solver, key, cfg["k_max"],
                                        entries.get((solver, key)), ref)
                except (KeyError, TypeError) as exc:
                    msg = f"{solver}: malformed summary entry ({exc!r})"
                if msg:
                    failures[key].append(msg)
            if cfg["diagnostics"]:
                failures[key].extend(_check_diagnostics(out_dir, key, cfg, entries))
    return failures


def _check_diagnostics(out_dir, key, cfg, entries):
    name = diagnostics_name(key)
    try:
        with open(os.path.join(out_dir, name)) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"]
    msgs = []
    if not _finite_numbers(doc):
        msgs.append(f"{name}: non-finite value")
    for solver in cfg["solvers"]:
        entry = entries.get((solver, key))
        got = doc.get("semiconvergence", {}).get(solver)
        if entry is not None and got != entry.get("semiconvergence_index"):
            msgs.append(f"{name}: semi-convergence index of {solver} disagrees with summary")
    return msgs


def best_errors(out_dir):
    """{"<solver>/<cell key>": (best k, best error)} from a sweep's summary."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    return {
        f"{c['solver']}/{cell_key(c['eps'], c['seed'])}": (c["best_k"], c["best_error"])
        for c in summary["cells"]
    }
