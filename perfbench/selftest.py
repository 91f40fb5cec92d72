"""Self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

1. Runs every workload at toy size through run.py, untraced and traced, and
   checks that the last line is a passing result that carries every metric
   BENCHMARK.json names.
2. Runs one toy sweep, checks that the gate passes it, then corrupts one
   trace CSV (a residual norm that increases) and checks that the gate
   fails exactly that cell.
"""

import json
import shutil
import subprocess
import sys

import gate
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")
    print(f"ok   {msg}")


def toy_runs():
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--toy",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            check(proc.returncode == 0, f"{name} --trace {trace}: run.py exits 0 "
                                        f"{proc.stderr.strip()[-300:]}")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} --trace {trace}: toy run passes the gate")
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == expected, f"{name} --trace {trace}: reports exactly the "
                                   f"{kind} metrics of BENCHMARK.json with their units")


def corrupted_csv():
    name = "sweep-dense"
    cfg = workloads.config(name, workloads.DEFAULT_SEED, toy=True)
    sweep_dir = run.WORK / "selftest"
    shutil.rmtree(sweep_dir, ignore_errors=True)
    try:
        run.run_sweep(cfg, sweep_dir)
        out_dir = sweep_dir / "out"
        failures = gate.check_sweep(out_dir, cfg)
        check(not any(failures.values()), "clean toy sweep passes the gate")

        eps, seed = cfg["noise_levels"][0], cfg["seeds"][0]
        victim = gate.cell_key(eps, seed)
        path = out_dir / gate.trace_name("minres", victim)
        lines = path.read_text().split("\n")
        # row k=3 gets twice the residual norm of row k=2
        prev_res = float(lines[2].split(",")[1])
        k, _, sol, err = lines[3].split(",")
        lines[3] = ",".join([k, repr(2.0 * prev_res), sol, err])
        path.write_text("\n".join(lines))

        failures = gate.check_sweep(out_dir, cfg)
        failed = sorted(key for key, msgs in failures.items() if msgs)
        check(failed == [victim], f"corrupted CSV fails exactly cell {victim}: {failures[victim]}")
    finally:
        shutil.rmtree(sweep_dir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    toy_runs()
    corrupted_csv()
    print("selftest passed")
