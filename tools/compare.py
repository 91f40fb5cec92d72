"""Compare the files a reference commit writes with the working tree's.

    python tools/compare.py REF

Exports REF's `src/` with `git archive`, then runs one fixed set of
`regkrylov run` and `regkrylov reproduce` commands on the export and on
the working tree's `src/`, each command in a fresh process with
OPENBLAS_NUM_THREADS=1.  It prints the files that only one tree wrote and
the files whose bytes differ.  `summary.json` is compared without its
config's `output_dir`, which names the tree.  For a changed CSV or JSON
file it prints the largest absolute and relative change of each column or
key.  Exits 0 when every file is the same, 1 when a file differs or a
command fails, and 2 when REF cannot be exported.

The set: seed-1 sweep-dense and diagnostics-dense (their configs are read
from perfbench/workloads.py, and nothing is written under perfbench/);
shaw n = 128 with every solver and diagnostic and eps in {0, 1e-3, 1e-2};
shaw n = 512; blur m = 16; phillips n = 300; and `reproduce fig3`, `fig5`,
`figpl`, `fig7 --n 256` and `fig11 --n 24`.
"""

import argparse
import csv
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALL_DIAGNOSTICS = ["lowrank", "angles", "filters", "decay", "lcurve", "picard"]
FIGURES = {"fig3": [], "fig5": [], "figpl": [], "fig7": ["--n", "256"], "fig11": ["--n", "24"]}


def run_configs():
    """Run name -> `regkrylov run` config without its output_dir."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    configs = {w: workloads["config"](w, 1) for w in ("sweep-dense", "diagnostics-dense")}
    every = {"solvers": workloads["ALL_SOLVERS"], "k_max": 30}
    configs["shaw-128"] = {"problem": "shaw", "n": 128, "noise_levels": [0.0, 1e-3, 1e-2],
                           "seeds": [1, 2], "diagnostics": ALL_DIAGNOSTICS, **every}
    configs["shaw-512"] = {"problem": "shaw", "n": 512, "noise_levels": [1e-3, 1e-2],
                           "seeds": [1, 2, 3], "diagnostics": ["lcurve"], **every}
    configs["blur-16"] = {"problem": "blur", "n": 16, "noise_levels": [5e-3], "seeds": [1, 2],
                          "solvers": ["minres", "mr2"], "k_max": 20,
                          "diagnostics": ["lowrank", "decay", "angles", "picard"]}
    configs["phillips-300"] = {"problem": "phillips", "n": 300, "noise_levels": [1e-3],
                               "seeds": list(range(1, 9)), "solvers": ["tsvd"], "k_max": 30,
                               "diagnostics": ["lowrank", "decay", "picard"]}
    return configs


def export(ref, dest):
    """Extract REF's src/ into dest; returns the path of its src/."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True)
    if archive.returncode:
        print(f"cannot export {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(2)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def run_set(src, out, work):
    """Run the set with the package in src, writing under out; returns the
    commands that failed, with their exit status and last line of error."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    commands = []
    for name, cfg in run_configs().items():
        path = work / f"{out.name}-{name}.json"
        path.write_text(json.dumps({**cfg, "output_dir": str(out / name)}))
        commands.append(["run", "--config", str(path)])
    for fig, args in FIGURES.items():
        commands.append(["reproduce", fig, *args, "--out", str(out / fig)])
    failed = []
    for command in commands:
        done = subprocess.run([sys.executable, "-m", "regkrylov", *command], env=env, cwd=work,
                              capture_output=True, text=True)
        if done.returncode:
            lines = done.stderr.strip().splitlines() or [""]
            failed.append(f"{' '.join(command[:2])}: exit {done.returncode}: {lines[-1]}")
    return failed


# ---------------------------------------------------------------------------
# comparison


def _files(tree):
    return {p.relative_to(tree).as_posix(): p for p in tree.rglob("*") if p.is_file()}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def numeric_change(old, new):
    """(largest absolute change, largest relative change) between two
    equally long lists of numbers, relative to the old value (inf where
    it is 0); None when they do not pair up as numbers.  Equal entries,
    None beside None and NaN beside NaN count as unchanged."""
    if len(old) != len(new):
        return None
    largest_abs = largest_rel = 0.0
    for x, y in zip(old, new):
        if x == y or (_is_number(x) and _is_number(y) and math.isnan(x) and math.isnan(y)):
            continue
        if not (_is_number(x) and _is_number(y)):
            return None
        step = abs(y - x)
        largest_abs = max(largest_abs, step)
        largest_rel = max(largest_rel, step / abs(x) if x else math.inf)
    return largest_abs, largest_rel


def _json_columns(doc):
    """Key path -> the leaves under it in document order; list positions
    are not part of the key, so an array is one column."""
    columns = defaultdict(list)

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else str(k))
        elif isinstance(node, list):
            for v in node:
                walk(v, key + "[]")
        else:
            columns[key].append(node)

    walk(doc, "")
    return columns


def _csv_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return {head: [float(r[i]) if i < len(r) and r[i] else None for r in body]
            for i, head in enumerate(header)}


def _without_output_dir(doc):
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        doc["config"].pop("output_dir", None)
    return doc


def describe_change(name, old, new):
    """Lines that describe how file `name` changed from bytes old to new,
    one per changed column or key; [] when only a summary's output_dir
    differs."""
    try:
        if name.endswith(".csv"):
            before, after = _csv_columns(old.decode()), _csv_columns(new.decode())
        elif name.endswith(".json"):
            before, after = json.loads(old), json.loads(new)
            if name.rsplit("/", 1)[-1] == "summary.json":
                before, after = _without_output_dir(before), _without_output_dir(after)
                if before == after:
                    return []
            before, after = _json_columns(before), _json_columns(after)
        else:
            return ["bytes differ"]
    except ValueError:  # not UTF-8, not JSON, or a field that is no number
        return ["bytes differ (not parsed)"]
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if key not in after:
            lines.append(f"{key}: only in the reference")
        elif key not in before:
            lines.append(f"{key}: only in the working tree")
        elif before[key] != after[key]:
            change = numeric_change(before[key], after[key])
            if change is not None:
                lines.append(f"{key}: max abs {change[0]:.3e}, max rel {change[1]:.3e}")
            elif len(before[key]) != len(after[key]):
                lines.append(f"{key}: {len(before[key])} -> {len(after[key])} entries")
            else:
                lines.append(f"{key}: values that are no numbers differ")
    return lines or ["bytes differ (same values)"]


def compare_trees(ref, new):
    """(files only in ref, files only in new, {changed file: lines}) of
    two output trees, by path relative to their roots."""
    before, after = _files(ref), _files(new)
    changed = {}
    for name in sorted(before.keys() & after.keys()):
        old, cur = before[name].read_bytes(), after[name].read_bytes()
        if old != cur:
            lines = describe_change(name, old, cur)
            if lines:
                changed[name] = lines
    return sorted(before.keys() - after.keys()), sorted(after.keys() - before.keys()), changed


def report(ref, new):
    """The comparison of two output trees as text, and whether they match."""
    removed, added, changed = compare_trees(ref, new)
    total = len(_files(ref).keys() | _files(new).keys())
    lines = [f"{total} files: {len(added)} added, {len(removed)} removed, "
             f"{len(changed)} changed (summary.json compared without output_dir)"]
    lines += [f"added {name}" for name in added]
    lines += [f"removed {name}" for name in removed]
    for name, detail in changed.items():
        lines.append(f"changed {name}")
        lines += [f"    {line}" for line in detail]
    return "\n".join(lines), not (added or removed or changed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the reference commit, e.g. HEAD~")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="regkrylov-compare-") as tmp:
        work = Path(tmp)
        trees = {"ref": export(args.ref, work / "export"), "new": ROOT / "src"}
        failed = []
        for label, src in trees.items():
            failed += [f"{label}: {line}" for line in run_set(src, work / label, work)]
        text, same = report(work / "ref", work / "new")
    print(f"{args.ref} (ref) against the working tree (new)")
    print("\n".join(f"failed {line}" for line in failed) or "every command succeeded")
    print(text)
    return 0 if same and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
