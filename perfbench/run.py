"""Benchmark runner for regkrylov experiment sweeps.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 60 --trace 0

Run from the root of a regkrylov checkout.  Each sweep runs in a fresh
process (perfbench/sweep.py) with every BLAS thread pool pinned to one
thread; sweeps repeat back to back for about --seconds.  Untraced runs pair
every sweep of the program (src/) with one of the frozen baseline
(perfbench/baseline/) and report host-corrected times; the times as measured
are printed too.  Every program sweep's output goes through the correctness
gate, and repeated sweeps must write byte-identical files.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Human-readable lines before it give every metric with its
unit and the environment; the full record goes to perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"
# regkrylov as it was when this benchmark was defined; never edit it
BASELINE = HERE / "baseline"

BLAS_THREADS = 1
# a run must end within 180 s; no sweep may start after this
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "best_error_geomean": "ratio",
    "pass_share": "fraction",
}


def layer_unit(name):
    if name.startswith("raw."):
        return END_TO_END_UNITS[name[len("raw."):]]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "fraction"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def child_env(src_dir):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(src_dir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sweep(cfg, sweep_dir, trace_path=None, timeout=DEADLINE_S, src_dir=ROOT / "src"):
    """One sweep in a fresh process, importing regkrylov from src_dir;
    returns its timing record.

    Raises RuntimeError when the process fails or times out.
    """
    sweep_dir.mkdir(parents=True)
    cfg = dict(cfg, output_dir=str(sweep_dir / "out"))
    cfg_path = sweep_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    result_path = sweep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "sweep.py"), str(cfg_path), str(result_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(src_dir), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"sweep did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"sweep exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    src = Path(src_dir).resolve()
    if not Path(result["regkrylov_file"]).resolve().is_relative_to(src):
        raise RuntimeError(f"imported regkrylov from {result['regkrylov_file']}, not {src}")
    return result


def cell_digests(out_dir, cfg):
    """SHA-256 over each cell's trace CSVs and diagnostics JSON."""
    digests = {}
    for eps in cfg["noise_levels"]:
        for seed in cfg["seeds"]:
            key = gate.cell_key(eps, seed)
            h = hashlib.sha256()
            names = [gate.trace_name(s, key) for s in cfg["solvers"]]
            if cfg["diagnostics"]:
                names.append(gate.diagnostics_name(key))
            for name in names:
                try:
                    h.update((out_dir / name).read_bytes())
                except OSError:
                    h.update(b"missing")
            digests[key] = h.hexdigest()
    return digests


def sweep_kind(index, trace):
    """What the index-th sweep of a run measures.

    Untraced runs pair each program sweep with a baseline sweep, in the order
    program, baseline, baseline, program, ... so that a steady drift of the
    host's speed hits both kinds alike.  Traced runs alternate untraced and
    traced program sweeps.
    """
    if trace:
        return "traced" if index % 2 else "program"
    return "program" if index % 4 in (0, 3) else "baseline"


def cells_s(rec):
    return rec["total_s"] - rec["setup_s"]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bytes_written(out_dir):
    return sum(p.stat().st_size for p in out_dir.iterdir())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes (self-test); no reference check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's best k and best error as the reference")
    args = parser.parse_args(argv)
    if args.write_reference and (args.toy or args.seed != workloads.DEFAULT_SEED):
        parser.error("the reference is written at full size with the default seed")
    return args


def main(argv=None):
    # a SIGTERM unwinds like an error, so the running sweep is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (ROOT / "src" / "regkrylov" / "__init__.py").is_file():
        print(f"error: no regkrylov sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    env = environment(args.seed)
    cfg = workloads.config(args.workload, args.seed, toy=args.toy)
    reference = None
    ref_path = REFERENCE / f"{args.workload}.json"
    if not args.toy and args.seed == workloads.DEFAULT_SEED and not args.write_reference:
        reference = {k: tuple(v) for k, v in json.loads(ref_path.read_text())["best"].items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{tag}-spans.json"

    sweeps = []  # untraced program timing records
    traced = []  # traced program timing records
    baseline = []  # baseline timing records, the i-th paired with sweeps[i]
    failures = []  # (sweep index, cell key, message)
    first_digests = None
    best = None
    n_cells = len(cfg["noise_levels"]) * len(cfg["seeds"])
    attempted = failed = 0
    index = 0
    try:
        while True:
            kind = sweep_kind(index, args.trace)
            sweep_dir = run_dir / f"sweep{index}"
            if index % 2 == 0:
                t_pair = time.monotonic()
            timeout = max(DEADLINE_S - (time.monotonic() - t_start), 1.0)
            if kind == "baseline":
                try:
                    baseline.append(run_sweep(cfg, sweep_dir, timeout=timeout,
                                              src_dir=BASELINE))
                except RuntimeError as exc:
                    failures.append((index, "*", f"baseline: {exc}"))
                    break
            else:
                attempted += n_cells
                try:
                    rec = run_sweep(cfg, sweep_dir, spans_path if kind == "traced" else None,
                                    timeout=timeout)
                except RuntimeError as exc:
                    failed += n_cells
                    failures.append((index, "*", str(exc)))
                    break
                out_dir = sweep_dir / "out"
                cell_fail = gate.check_sweep(out_dir, cfg, reference)
                digests = cell_digests(out_dir, cfg)
                if first_digests is None:
                    try:
                        best = gate.best_errors(out_dir)
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        failures.append((index, "*", f"summary.json unusable ({exc!r})"))
                        break
                    first_digests = digests
                    rec["bytes_written"] = bytes_written(out_dir)
                for key, digest in digests.items():
                    if digest != first_digests[key]:
                        cell_fail[key].append("output differs from the first sweep")
                for key, msgs in cell_fail.items():
                    failures.extend((index, key, m) for m in msgs)
                failed += sum(1 for msgs in cell_fail.values() if msgs)
                (traced if kind == "traced" else sweeps).append(rec)
            shutil.rmtree(sweep_dir)
            index += 1
            if index % 2:
                continue
            now = time.monotonic()
            elapsed = now - t_start
            # stop at the end of the pair that ends nearest --seconds
            if elapsed + 0.5 * (now - t_pair) >= args.seconds:
                break
            # never start a pair that could not finish before the deadline
            if elapsed + 1.5 * (now - t_pair) > DEADLINE_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if not sweeps or not (traced if args.trace else baseline):
        for idx, key, msg in failures:
            print(f"FAIL sweep {idx} cell {key}: {msg}", file=sys.stderr)
        print("error: no sweep completed", file=sys.stderr)
        return 1

    if args.write_reference:
        if failures:
            print("error: the gate failed; no reference written", file=sys.stderr)
            return 1
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "best": best},
            indent=1, sort_keys=True) + "\n")

    med = statistics.median
    # as measured, over the run's untraced program sweeps
    raw = {
        "setup_s": med(r["setup_s"] for r in sweeps),
        "cells_per_s": n_cells * len(sweeps) / sum(cells_s(r) for r in sweeps),
        "total_s": med(r["total_s"] for r in sweeps),
    }
    # Host-corrected: program time times the baseline's reference time over
    # the time of the baseline sweeps paired with it.  Slow phases of the
    # shared host stretch both sweeps of a pair alike and cancel.  Cell and
    # total times are pooled over the pairs (steadier than a median of two
    # or three ratios); set-up takes the median.  Traced runs run no
    # baseline and report no corrected times.
    ref = workloads.BASELINE_S[args.workload]
    pairs = list(zip(sweeps, baseline))

    def pooled(time_of):
        return sum(time_of(p) for p, _ in pairs) / sum(time_of(b) for _, b in pairs)

    e2e = {
        "setup_s": med(p["setup_s"] * ref["setup_s"] / b["setup_s"] for p, b in pairs),
        "cells_per_s": n_cells / (ref["cells_s"] * pooled(cells_s)),
        "total_s": ref["total_s"] * pooled(lambda r: r["total_s"]),
    } if pairs else {}
    e2e |= {
        "peak_rss_mb": med(r["peak_rss_mb"] for r in sweeps),
        "best_error_geomean": geomean([err for _, err in best.values()]),
        "pass_share": (attempted - failed) / attempted,
    }
    layers = {}
    if traced:
        names = traced[0]["layers"].keys()
        layers = {n: med(r["layers"][n] for r in traced) for n in names}
        layers["cli.bytes_written"] = sweeps[0]["bytes_written"]
        layers["trace.overhead_s"] = med(r["total_s"] for r in traced) - raw["total_s"]
        layers.update({f"raw.{n}": v for n, v in raw.items()})
        if any(r["layers"]["trace.cell_wall_s"] != r["layers"]["trace.cell_self_sum_s"]
               for r in traced):
            failures.append((-1, "*", "per-layer self times of the first cell do not "
                                      "add up to its wall time"))

    correct = not failures
    record = {
        "workload": args.workload,
        "toy": args.toy,
        "env": env,
        "config": cfg,
        "sweeps": sweeps,
        "traced_sweeps": traced,
        "baseline_sweeps": baseline,
        "raw": raw,
        "end_to_end": e2e,
        "per_layer": layers,
        "failed_share": failed / attempted,
        "failures": [list(f) for f in failures],
        "correct": correct,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for k, v in env.items():
        print(f"env {k}: {v}")
    print(f"sweeps: {len(sweeps)} untraced, {len(traced)} traced, {len(baseline)} baseline; "
          f"{attempted} cells attempted, {failed} failed")
    for idx, key, msg in failures[:20]:
        print(f"FAIL sweep {idx} cell {key}: {msg}")
    if not args.trace:  # traced runs list them among the per-layer metrics
        for name, value in raw.items():
            print(f"raw.{name} = {value:.6g} {END_TO_END_UNITS[name]} (as measured)")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"failed_share = {failed / attempted:.6g} fraction")
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {layer_unit(name)}")

    chosen = layers if args.trace else e2e
    units = {n: layer_unit(n) for n in layers} if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
