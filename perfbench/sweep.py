"""One sweep of one workload in a fresh process (started by run.py).

    python3 perfbench/sweep.py CONFIG.json RESULT.json [--trace SPANS.json]

Reads a `regkrylov run` config, calls the public `cli.run_experiment` on it
and writes the sweep's timings as JSON.  The clock starts before regkrylov
is imported, so set-up covers the import, problem generation and the
spectral decomposition.
"""

import time

T0 = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", metavar="SPANS_JSON")
    args = parser.parse_args()

    import tracer  # imports regkrylov
    from regkrylov import cli

    with open(args.config) as fh:
        cfg = cli.ExperimentConfig.from_dict(json.load(fh))
    rec = tracer.Tracer(spans=args.trace is not None)
    rec.install()
    rec.run(cli.run_experiment, cfg)
    t_end = time.perf_counter_ns()

    starts = rec.cell_starts
    result = {
        "regkrylov_file": cli.__file__,
        "setup_s": (starts[0] - T0) / 1e9,
        "total_s": (t_end - T0) / 1e9,
        "cell_s": [(b - a) / 1e9 for a, b in zip(starts, starts[1:] + [t_end])],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(rec)
        with open(args.trace, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "cell"],
                       "spans": rec.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
