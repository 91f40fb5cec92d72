"""Workload definitions: each one is a `regkrylov run` config built from a seed.

A workload is one experiment sweep, run closed loop: the cells, one per
(noise level, noise seed) pair, execute in sequence inside one
`run_experiment` call.  The benchmark seed only picks the noise seeds; the
problem, its size and the solver list are fixed per workload.
"""

ALL_SOLVERS = ["minres", "mr2", "lsqr", "tsvd", "hybrid-minres", "hybrid-mr2"]
ALL_DIAGNOSTICS = ["lowrank", "angles", "filters", "decay", "lcurve"]

# Why each workload exists, in one line (mirrored in BENCHMARK.json, which
# leaves out sweep-blur: it is run by hand, see NOTES.md).
WORKLOADS = {
    # The documented `run` sweep: the n=1024 dense eigensolve dominates set-up,
    # the hybrids' inner SVDs and L-curve searches dominate the cells.
    "sweep-dense": {
        "problem": "shaw",
        "n": 1024,
        "solvers": ALL_SOLVERS,
        "noise_levels": [1e-2, 1e-3, 1e-4],
        "seed_count": 8,
        "k_max": 30,
        "diagnostics": ["lcurve"],
    },
    # Every diagnostic on: the dense rank-k error diagnostic dominates the
    # cells, and set-up takes the Rayleigh-polished eigensolve path (n <= 512).
    "diagnostics-dense": {
        "problem": "shaw",
        "n": 256,
        "solvers": ["tsvd", "minres", "mr2"],
        "noise_levels": [1e-3],
        "seed_count": 32,
        "k_max": 30,
        "diagnostics": ALL_DIAGNOSTICS,
    },
    # Matrix-free blur at n = 65,536: Krylov basis building, Kronecker
    # matvecs and stored iterates dominate; the eigensolver sees only the
    # order-256 factor, so an eigensolver change should not move it.
    "sweep-blur": {
        "problem": "blur",
        "n": 256,
        "solvers": ALL_SOLVERS,
        "noise_levels": [5e-3],
        "seed_count": 4,
        "k_max": 20,
        "diagnostics": ["lcurve"],
    },
}

# Toy sizes for the self-test: same code paths, a second or less per sweep.
TOY = {
    "sweep-dense": {"n": 64, "seed_count": 2},
    "diagnostics-dense": {"n": 64, "seed_count": 2},
    "sweep-blur": {"n": 16, "seed_count": 2},
}

# Set-up, cell and total time of one sweep of perfbench/baseline, the frozen
# copy of regkrylov, in a fast phase of a 2-vCPU Xeon VM (1 BLAS thread).
# Host-corrected times are the program's times at this speed of the host.
# Never change them: they fix the scale on which later commits are compared.
BASELINE_S = {
    "sweep-dense": {"setup_s": 4.7, "cells_s": 4.5, "total_s": 9.2},
    "diagnostics-dense": {"setup_s": 0.6, "cells_s": 10.6, "total_s": 11.2},
    "sweep-blur": {"setup_s": 0.9, "cells_s": 8.1, "total_s": 9.0},
}

# The seed whose results are pinned in reference/<workload>.json.
DEFAULT_SEED = 1


def noise_seeds(seed, count):
    """Noise seeds of one sweep; distinct benchmark seeds never share one."""
    return [1000 * seed + i for i in range(1, count + 1)]


def config(workload, seed, toy=False):
    """The `regkrylov run` config of one sweep, without its output_dir."""
    spec = dict(WORKLOADS[workload])
    if toy:
        spec.update(TOY[workload])
    return {
        "problem": spec["problem"],
        "n": spec["n"],
        "noise_levels": list(spec["noise_levels"]),
        "seeds": noise_seeds(seed, spec["seed_count"]),
        "solvers": list(spec["solvers"]),
        "k_max": spec["k_max"],
        "diagnostics": list(spec["diagnostics"]),
    }
