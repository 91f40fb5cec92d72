"""The comparison logic of tools/compare.py on toy output trees.

The full run set of the tool stays out of this suite: it runs every
command twice, in fresh processes."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare.py"
spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return root


def summary(output_dir, best=0.25):
    return json.dumps({"config": {"n": 8, "output_dir": output_dir},
                       "cells": [{"solver": "minres", "best_error": best}], "manifest": []})


TRACE = "k,residual_norm,relative_error\n1,0.5,0.25\n2,0.125,\n"
DIAG = json.dumps({"lowrank_error": [1.0, 0.5], "semiconvergence": {"minres": 2}})


@pytest.fixture
def ref(tmp_path):
    return write_tree(tmp_path / "ref", {
        "run/trace_minres_0.001_1.csv": TRACE, "run/diagnostics_0.001_1.json": DIAG,
        "run/summary.json": summary("/a/run"), "fig/fig11_original.pgm": b"P5\n1 1\n255\n\x07"})


def new_tree(tmp_path, ref, **changes):
    files = {p.relative_to(ref).as_posix(): p.read_bytes() for p in ref.rglob("*") if p.is_file()}
    files["run/summary.json"] = summary("/b/run")
    files.update(changes)
    return write_tree(tmp_path / "new", {k: v for k, v in files.items() if v is not None})


def test_trees_that_differ_only_in_output_dir_match(tmp_path, ref):
    text, same = compare.report(ref, new_tree(tmp_path, ref))
    assert same
    assert text.startswith("4 files: 0 added, 0 removed, 0 changed")


def test_a_one_ulp_change_is_reported_with_its_file_and_column(tmp_path, ref):
    ulp = float(np.nextafter(0.125, 1.0))
    new = new_tree(tmp_path, ref, **{"run/trace_minres_0.001_1.csv": TRACE.replace(
        "0.125", repr(ulp))})
    removed, added, changed = compare.compare_trees(ref, new)
    assert (removed, added) == ([], [])
    assert changed == {"run/trace_minres_0.001_1.csv": [
        f"residual_norm: max abs {ulp - 0.125:.3e}, max rel {(ulp - 0.125) / 0.125:.3e}"]}
    assert not compare.report(ref, new)[1]


def test_json_keys_are_reported_by_path(tmp_path, ref):
    doc = {"lowrank_error": [1.0, 0.75, 0.5], "semiconvergence": {"minres": 3}, "extra": 1}
    new = new_tree(tmp_path, ref, **{"run/diagnostics_0.001_1.json": json.dumps(doc),
                                     "run/summary.json": summary("/b/run", best=0.5)})
    _, _, changed = compare.compare_trees(ref, new)
    assert changed == {
        "run/diagnostics_0.001_1.json": ["extra: only in the working tree",
                                         "lowrank_error[]: 2 -> 3 entries",
                                         "semiconvergence.minres: max abs 1.000e+00, "
                                         "max rel 5.000e-01"],
        "run/summary.json": ["cells[].best_error: max abs 2.500e-01, max rel 1.000e+00"]}


def test_added_removed_and_binary_files(tmp_path, ref):
    new = new_tree(tmp_path, ref, **{"fig/fig11_original.pgm": b"P5\n1 1\n255\n\x08",
                                     "run/diagnostics_0.001_1.json": None,
                                     "run/spectrum.json": "{}"})
    text, same = compare.report(ref, new)
    assert not same
    assert text.splitlines() == [
        "5 files: 1 added, 1 removed, 1 changed (summary.json compared without output_dir)",
        "added run/spectrum.json", "removed run/diagnostics_0.001_1.json",
        "changed fig/fig11_original.pgm", "    bytes differ"]


def test_numeric_change_pairs_numbers_only():
    assert compare.numeric_change([1.0, None, float("nan")], [1.0, None, float("nan")]) == (
        0.0, 0.0)
    assert compare.numeric_change([0.0, 2.0], [1e-300, 3.0]) == (1.0, float("inf"))
    assert compare.numeric_change([1.0], [None]) is None
    assert compare.numeric_change(["minres"], ["mr2"]) is None
    assert compare.numeric_change([1.0], [1.0, 2.0]) is None


def test_the_run_set_reads_the_workloads_of_the_benchmark():
    workloads = {}
    exec((TOOL.parents[1] / "perfbench" / "workloads.py").read_text(), workloads)
    configs = compare.run_configs()
    assert configs["sweep-dense"] == workloads["config"]("sweep-dense", 1)
    assert configs["diagnostics-dense"] == workloads["config"]("diagnostics-dense", 1)
    assert {"shaw-128", "shaw-512", "blur-16", "phillips-300"} <= configs.keys()
    assert not any("output_dir" in cfg for cfg in configs.values())
