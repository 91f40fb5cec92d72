"""Spans around the calls one regkrylov layer makes into the next.

Nothing inside the package is edited: `install` replaces, at run time, the
module bindings through which a layer reaches the next one (for example
`solvers.lanczos` or `diagnostics.spectral_norm`) with wrappers that record
a span (name, start, end, parent, cell).  Spans stay in memory until the
sweep ends.

Untraced sweeps install only the cell marker on `problems.add_noise`, the
first call of every (noise level, seed) cell; it records one clock reading
per cell and nothing else.
"""

import functools
import time

from regkrylov import cli, diagnostics, linalg, problems, solvers

# Span names of the public calls, by (module, attribute).
_LAYER_CALLS = [
    (problems, "generate", "problems.generate"),
    (cli, "symmetric_eig", "linalg.symmetric_eig"),
    (diagnostics, "spectral_norm", "linalg.spectral_norm"),
    (solvers, "minres_trace", "solvers.minres"),
    (solvers, "mr2_trace", "solvers.mr2"),
    (solvers, "lsqr_trace", "solvers.lsqr"),
    (solvers, "tsvd_trace", "solvers.tsvd"),
    (solvers, "hybrid_trace", "solvers.hybrid"),
    (diagnostics, "lowrank_error_sequence", "diagnostics.lowrank_error_sequence"),
    (diagnostics, "harmonic_ritz", "diagnostics.harmonic_ritz"),
    (diagnostics, "angle_sine", "diagnostics.angle_sine"),
    (diagnostics, "coefficient_profile", "diagnostics.coefficient_profile"),
    (diagnostics, "lcurve_corner", "diagnostics.lcurve_corner"),
    # the remaining cheap diagnostics the CLI calls, so their time is not
    # booked as CLI self time
    (diagnostics, "lcurve_points", "diagnostics.other"),
    (diagnostics, "semiconvergence_index", "diagnostics.other"),
    (diagnostics, "lanczos_decay_table", "diagnostics.other"),
    (diagnostics, "filter_factors", "diagnostics.other"),
    (problems, "transition_index", "diagnostics.other"),
]

# _svd_small is imported by name into three modules; wrap every binding.
_SVD_MODULES = (linalg, solvers, diagnostics)

CELL = "cell"
RUN = "cli.run_experiment"


class Tracer:
    """Span recorder for one sweep.  With spans=False it only marks cells."""

    def __init__(self, spans):
        self.spans_on = spans
        self.cell_starts = []
        # span: [name, start_ns, end_ns, parent index or -1, cell id or -1]
        self.spans = []
        self.counts = {"fallbacks": 0, "matvecs": 0, "breakdowns": 0}
        self._stack = []
        self._open_cell = None

    # -- span bookkeeping ---------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        cell = len(self.cell_starts) - 1 if self.cell_starts else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, cell])
        self._stack.append(idx)
        return idx

    def _end(self, idx):
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][2] = time.perf_counter_ns()

    def _close_cell(self):
        if self._open_cell is not None:
            self._end(self._open_cell)
            self._open_cell = None

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch the layer bindings for the rest of this process."""
        add_noise = problems.add_noise

        def marked_add_noise(*args, **kwargs):
            if self.spans_on:
                self._close_cell()
                self.cell_starts.append(time.perf_counter_ns())
                self._open_cell = self._begin(CELL)
                idx = self._begin("problems.add_noise")
                try:
                    return add_noise(*args, **kwargs)
                finally:
                    self._end(idx)
            self.cell_starts.append(time.perf_counter_ns())
            return add_noise(*args, **kwargs)

        problems.add_noise = marked_add_noise
        if self.spans_on:
            for owner, attr, name in _LAYER_CALLS:
                setattr(owner, attr, self.span(name, getattr(owner, attr)))
            svd = self.span("linalg.svd_small", linalg._svd_small)
            for owner in _SVD_MODULES:
                setattr(owner, "_svd_small", svd)
            linalg._gram_top_eigenvalue = self._counted(linalg._gram_top_eigenvalue)
            linalg.SymmetricMatrix.matvec = self.span("linalg.matvec",
                                                      linalg.SymmetricMatrix.matvec)
            for attr in ("lanczos", "golub_kahan"):
                setattr(solvers, attr, self.span(f"krylov.{attr}", getattr(solvers, attr),
                                                 self._count_factorization))

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["fallbacks"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_factorization(self, fact):
        self.counts["matvecs"] += int(fact.matvec_count)
        self.counts["breakdowns"] += int(bool(fact.breakdown))

    def run(self, fn, *args):
        """Call fn (run_experiment) inside the root span."""
        if not self.spans_on:
            return fn(*args)
        idx = self._begin(RUN)
        try:
            return fn(*args)
        finally:
            self._close_cell()
            self._end(idx)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Self time (ns) of each span: its duration minus the part of its
    interval that its direct children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


LAYER_SECONDS = [
    "problems.generate", "problems.add_noise",
    "linalg.symmetric_eig", "linalg.svd_small", "linalg.spectral_norm", "linalg.matvec",
    "krylov.lanczos", "krylov.golub_kahan",
    "solvers.minres", "solvers.mr2", "solvers.lsqr", "solvers.tsvd", "solvers.hybrid",
    "diagnostics.lowrank_error_sequence", "diagnostics.harmonic_ritz",
    "diagnostics.angle_sine", "diagnostics.coefficient_profile",
    "diagnostics.lcurve_corner", "diagnostics.other",
]
LAYER_CALLS = [
    "linalg.symmetric_eig", "linalg.svd_small", "linalg.spectral_norm",
    "linalg.matvec", "diagnostics.lcurve_corner",
]


def layer_metrics(tracer):
    """Per-layer totals of one traced sweep, keyed by metric name."""
    spans = tracer.spans
    selfs = self_times(spans)
    secs = {}
    calls = {}
    for (name, *_), st in zip(spans, selfs):
        secs[name] = secs.get(name, 0) + st
        calls[name] = calls.get(name, 0) + 1
    out = {f"{name}.s": secs.get(name, 0) / 1e9 for name in LAYER_SECONDS}
    out.update({f"{name}.calls": calls.get(name, 0) for name in LAYER_CALLS})
    norms = calls.get("linalg.spectral_norm", 0)
    out["linalg.spectral_norm.fallback_share"] = (
        tracer.counts["fallbacks"] / norms if norms else 0.0
    )
    # inclusive time: the rank-k diagnostic's work sits in its spectral_norm calls
    lowrank = "diagnostics.lowrank_error_sequence"
    out[f"{lowrank}.total_s"] = sum(s[2] - s[1] for s in spans if s[0] == lowrank) / 1e9
    out["krylov.matvecs"] = tracer.counts["matvecs"]
    out["krylov.breakdowns"] = tracer.counts["breakdowns"]
    out["cli.run_experiment.self_s"] = (secs.get(RUN, 0) + secs.get(CELL, 0)) / 1e9
    # the self-time identity, checked on the first cell
    c = next((i for i, s in enumerate(spans) if s[0] == CELL), None)
    if c is not None:
        out["trace.cell_wall_s"] = (spans[c][2] - spans[c][1]) / 1e9
        out["trace.cell_self_sum_s"] = sum(
            st for s, st in zip(spans, selfs) if s[4] == spans[c][4]
        ) / 1e9
    return out
