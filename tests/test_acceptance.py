"""Acceptance suite: the exit criteria, each at its stated tolerance.

Every test prints one `[criterion NN] PASS/FAIL` line (shown with
`pytest -s`, or in captured output).  Criteria are asserted exactly as
stated.  Where a criterion fails on an exact property of the problem
instance, an evidence test next to it recomputes every listed miss with an
independent oracle and fails if the miss is not reproduced.
"""

import numpy as np
import pytest

from regkrylov import cli, diagnostics, problems, rng, solvers
from regkrylov.krylov import START_FILTERED, START_RESIDUAL, lanczos
from regkrylov.linalg import SymmetricMatrix

from conftest import needs_extended_precision
from oracles import (
    arnoldi_basis,
    arnoldi_minimizers,
    formula_sine,
    krylov_residual_minimizer,
    krylov_subspace_minimizer,
    spectral_twin,
)

SEVERE_MODERATE = ("shaw", "foxgood", "gravity", "phillips")
ORDERING_PROBLEMS = {"shaw": 1024, "foxgood": 1024, "gravity": 1024,
                     "phillips": 1024, "deriv2": 1024, "blur": 64}

_trace_cache = {}


def _verdict(num, ok, description, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def _trace(kind, prob, decomp, eps, seed, k_max):
    key = (kind, prob.name, prob.n, eps, seed, k_max)
    if key not in _trace_cache:
        nz = problems.add_noise(prob, eps, seed)
        if kind == "tsvd":
            k_max = min(80, prob.n)
        _trace_cache[key] = solvers.SOLVERS[kind](prob.a, nz.b, k_max, prob.x_true, decomp)
    return _trace_cache[key]


def _rel_error(x, x_true):
    return float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))


# The eigenvalue maps of the spectral twins: signed eigenvalues give the
# problem itself up to rounding, |lambda| the same eigenvectors and
# singular values with a definite spectrum.
TWIN_MAPS = {"signed": np.positive, "abs": np.abs}


def _twin(get_problem, get_decomp, name, label):
    """The n = 1024 kernel's spectral twin and its decomposition, rebuilt
    on each call so that no dense twin outlives its test."""
    return spectral_twin(get_problem(name, 1024), get_decomp(name, 1024), TWIN_MAPS[label])


# ---------------------------------------------------------------------------
# shared sweep for criteria 1 and 2: rank-k errors at n=256


_sweeps = {}


def _decay_sweep(get_problem, get_decomp, name):
    if name not in _sweeps:
        prob = get_problem(name, 256)
        decomp = get_decomp(name, 256)
        nz = problems.add_noise(prob, 1e-3, seed=0)
        fact = lanczos(prob.a, START_FILTERED, nz.b, 50)
        floor = diagnostics.roundoff_floor(256, decomp.sigmas[0])
        gam = diagnostics.lowrank_error_sequence(prob.a, fact)
        _sweeps[name] = (prob, decomp, fact, gam, floor)
    return _sweeps[name]


def test_criterion_01_lanczos_entry_bounds(get_problem, get_decomp):
    """Off-diagonal and next-diagonal entries never exceed the rank-k error."""
    violations = []
    rows_checked = 0
    for name in SEVERE_MODERATE:
        _, decomp, fact, gam, _ = _decay_sweep(get_problem, get_decomp, name)
        rows, bad = diagnostics.lanczos_decay_table(fact, gam, decomp.sigmas)
        rows_checked += len(rows)
        violations.extend((name, k) for k in bad)
    _verdict(
        1,
        not violations,
        "entry decay bounded by the rank-k error on all four kernels",
        f"{rows_checked} rows, violations: {violations[:6]}",
    )


def test_criterion_02_rank_error_optimality(get_problem, get_decomp):
    """Rank-k error is bounded below by the optimum and within 10x of it."""
    lower_bad = []
    ratio_bad = []
    for name in SEVERE_MODERATE:
        _, decomp, _, gam, floor = _decay_sweep(get_problem, get_decomp, name)
        sig1 = decomp.sigmas[0]
        for k in range(1, len(gam) + 1):
            if gam[k - 1] < decomp.sigmas[k] - 1e-10 * sig1:
                lower_bad.append((name, k))
        if name in ("shaw", "gravity"):
            for k in range(1, len(gam) + 1):
                if min(gam[k - 1], decomp.sigmas[k]) <= 10 * floor:
                    continue
                if gam[k - 1] / decomp.sigmas[k] > 10.0:
                    ratio_bad.append((name, k))
    _verdict(
        2,
        not lower_bad and not ratio_bad,
        "rank-k error lower bound and near-optimality",
        f"lower-bound violations {lower_bad[:4]}, ratio violations {ratio_bad[:4]}",
    )


@needs_extended_precision
def test_criterion_03_filter_reconstruction(get_problem, get_decomp):
    """Filtered spectral expansion reproduces the k-step iterate, k <= 8.

    The harmonic Ritz values come from the extended-precision projection:
    those of the double Lanczos tridiagonal carry its O(eps ||A||) errors,
    which the expansion amplifies past 1e-6 at k = 8.
    """
    prob = get_problem("shaw", 128)
    decomp = get_decomp("shaw", 128)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    tr = solvers.minres_trace(prob.a, nz.b, 8, x_true=prob.x_true)
    tridiag = lanczos(prob.a.astype(np.longdouble), START_RESIDUAL, nz.b, 8).tridiag
    worst = 0.0
    for k in range(1, 9):
        theta = diagnostics.harmonic_ritz(tridiag.head(k))
        f = diagnostics.filter_factors(theta, decomp.eigenvalues)
        x_ff = diagnostics.filtered_solution(decomp, nz.b, f)
        gap = np.linalg.norm(x_ff - tr.solutions[k - 1]) / np.linalg.norm(
            tr.solutions[k - 1]
        )
        worst = max(worst, gap)
    _verdict(3, worst <= 1e-6, "filter-factor expansion matches the iterate",
             f"worst relative gap {worst:.3e} vs 1e-6")


def test_criterion_04_angle_formula_consistency():
    """Direct and coupling-formula subspace angles agree to 1e-8."""
    worst = 0.0
    for seed in range(3):
        spec = problems.SyntheticSpec(n=32, decay="severe", alpha=1.0, beta=1.0,
                                      basis="random", seed=7 + seed)
        prob, decomp = problems.generate_synthetic(spec)
        nz = problems.add_noise(prob, 1e-3, seed=seed)
        fact = lanczos(prob.a, START_FILTERED, nz.b, 8)
        for k in range(1, 9):
            direct = diagnostics.angle_sine(decomp, k, fact)
            formula = formula_sine(decomp, nz.b, k)
            worst = max(worst, abs(direct - formula))
    _verdict(4, worst <= 1e-8, "angle formula consistency", f"worst gap {worst:.3e}")


def _ordering_rule(tm, t2):
    """(k, gap) where minres's k-step error exceeds mr2's (k-1)-step error
    before minres semi-converges."""
    violations = []
    for k in range(2, diagnostics.semiconvergence_index(tm)):
        lhs = tm.relative_errors[k - 1]
        rhs = t2.relative_errors[k - 2]
        if lhs > rhs + 1e-12:
            violations.append((k, float(lhs - rhs)))
    return violations


def _ordering_violations(get_problem):
    """(problem, seed, k, gap) where the k-step residual-space error exceeds
    the (k-1)-step filtered-space one before semi-convergence."""
    violations = []
    for name, n in ORDERING_PROBLEMS.items():
        prob = get_problem(name, n)
        for seed in range(5):
            tm = _trace("minres", prob, None, 1e-3, seed, 25)
            t2 = _trace("mr2", prob, None, 1e-3, seed, 25)
            violations += [(name, seed, k, gap) for k, gap in _ordering_rule(tm, t2)]
    return violations


def test_criterion_05_iterate_ordering(get_problem, get_decomp):
    """Residual-space iterates lead the filtered-space ones by one index
    until the former semi-converge."""
    violations = _ordering_violations(get_problem)
    _verdict(
        5,
        not violations,
        "pre-semiconvergence iterate ordering across all six problems",
        f"{len(violations)} violations, first: {violations[:3]}",
    )


def test_criterion_05_violations_are_exact_minimizer_properties(get_problem):
    """Every ordering violation criterion 05 lists holds for the exact
    subspace minimizers: brute-force solves over K_k(A, b) and
    K_{k-1}(A, Ab) give the traced errors to 1e-6 and the same violation."""
    violations = _ordering_violations(get_problem)
    unconfirmed = []
    for name, seed, k, _ in violations:
        prob = get_problem(name, ORDERING_PROBLEMS[name])
        nz = problems.add_noise(prob, 1e-3, seed)
        traced = np.array([
            _trace("minres", prob, None, 1e-3, seed, 25).relative_errors[k - 1],
            _trace("mr2", prob, None, 1e-3, seed, 25).relative_errors[k - 2],
        ])
        exact = np.array([
            _rel_error(krylov_residual_minimizer(prob.a.matvec, nz.b, k), prob.x_true),
            _rel_error(krylov_subspace_minimizer(prob.a.matvec, nz.b, k - 1), prob.x_true),
        ])
        agree = np.all(np.abs(exact - traced) <= 1e-6 * traced)
        if not (agree and exact[0] > exact[1] + 1e-12):
            unconfirmed.append((name, seed, k, exact.tolist(), traced.tolist()))
    print(f"[criterion 05 evidence] {len(violations) - len(unconfirmed)} of "
          f"{len(violations)} violations reproduced by brute-force minimizers")
    assert not unconfirmed, unconfirmed


def test_criterion_05_rule_depends_on_the_signs_of_the_spectrum():
    """05's rule on synthetic problems with the same spectra but different
    signs (n = 256, random basis, spec seeds 0-2, noise draws 0-4,
    eps = 1e-3, k_max 25): a definite spectrum breaks it under no decay,
    alternating signs break it under severe and moderate decay."""
    counts = {}
    for signs in ("definite", "alternating"):
        for decay, alpha in (("severe", 1.0), ("moderate", 2.0), ("mild", 0.8)):
            count = 0
            for seed in range(3):
                prob, _ = problems.generate_synthetic(problems.SyntheticSpec(
                    n=256, decay=decay, alpha=alpha, sign_pattern=signs, basis="random",
                    seed=seed))
                for draw in range(5):
                    b = problems.add_noise(prob, 1e-3, draw).b
                    tm = solvers.minres_trace(prob.a, b, 25, prob.x_true)
                    t2 = solvers.mr2_trace(prob.a, b, 25, prob.x_true)
                    count += len(_ordering_rule(tm, t2))
            counts[signs, decay] = count
    print(f"[criterion 05 evidence] synthetic violations by (signs, decay): {counts}")
    assert not any(counts["definite", decay] for decay in ("severe", "moderate", "mild"))
    assert counts["alternating", "severe"] and counts["alternating", "moderate"]


def test_criterion_05_violations_follow_the_signs_of_the_spectrum(get_problem, get_decomp):
    """05's rule on the spectral twins of its five dense kernels: the signed
    twin gives the criterion's violations, the |lambda| twin none.  blur's
    spectrum has no negative eigenvalue, so its |lambda| twin is blur."""
    found = {label: [] for label in TWIN_MAPS}
    for name, n in ORDERING_PROBLEMS.items():
        if name == "blur":
            assert np.all(get_decomp(name, n).eigenvalues >= 0.0)
            continue
        for label in TWIN_MAPS:
            prob, _ = _twin(get_problem, get_decomp, name, label)
            for seed in range(5):
                b = problems.add_noise(prob, 1e-3, seed).b
                tm = solvers.minres_trace(prob.a, b, 25, prob.x_true)
                t2 = solvers.mr2_trace(prob.a, b, 25, prob.x_true)
                found[label] += [(name, seed, k, gap) for k, gap in _ordering_rule(tm, t2)]
    listed = _ordering_violations(get_problem)
    print(f"[criterion 05 evidence] spectral twins: {len(found['signed'])} violations "
          f"signed, {len(found['abs'])} with |lambda|")
    assert [v[:3] for v in found["signed"]] == [v[:3] for v in listed]
    np.testing.assert_allclose([v[3] for v in found["signed"]], [v[3] for v in listed],
                               rtol=1e-6)
    assert not found["abs"]


def test_criterion_06_semiconvergence_indices(get_problem):
    """Semi-convergence lands where expected across ten noise draws."""
    shaw = get_problem("shaw", 1024)
    fox = get_problem("foxgood", 1024)
    shaw_idx = []
    fox_idx = []
    for seed in range(10):
        shaw_idx.append(
            diagnostics.semiconvergence_index(_trace("mr2", shaw, None, 1e-3, seed, 15))
        )
        fox_idx.append(
            diagnostics.semiconvergence_index(_trace("mr2", fox, None, 1e-3, seed, 10))
        )
    ok = all(5 <= i <= 9 for i in shaw_idx) and all(2 <= i <= 4 for i in fox_idx)
    _verdict(6, ok, "semi-convergence indices", f"shaw {shaw_idx}, foxgood {fox_idx}")


def _parity_miss(e2, es):
    """mr2's best error e2 over TSVD's es, to 4 digits, where it breaks
    criterion 07's parity clause (e2 above 1.1 es); else None."""
    return round(e2 / es, 4) if e2 > 1.1 * es else None


def _full_regularization_misses(get_problem, get_decomp):
    """TSVD-parity misses (mr2 best error above 1.1 x TSVD's) and hybrid
    misses (hybrid-mr2 more than 2% below the best-possible level, the
    smaller of the mr2 and TSVD best errors), as (problem, seed, ratio)."""
    tsvd_bad = []
    hybrid_bad = []
    for name in SEVERE_MODERATE:
        prob = get_problem(name, 1024)
        decomp = get_decomp(name, 1024)
        for seed in range(5):
            e2 = _trace("mr2", prob, decomp, 1e-3, seed, 30).best()[1]
            es = _trace("tsvd", prob, decomp, 1e-3, seed, 30).best()[1]
            eh = _trace("hybrid-mr2", prob, decomp, 1e-3, seed, 30).best()[1]
            if ratio := _parity_miss(e2, es):
                tsvd_bad.append((name, seed, ratio))
            best_possible = min(e2, es)
            if eh < 0.98 * best_possible:
                hybrid_bad.append((name, seed, round(eh / best_possible, 4)))
    return tsvd_bad, hybrid_bad


def test_criterion_07_full_regularization(get_problem, get_decomp):
    """Filtered-start solver is TSVD-competitive and its hybrid merely
    stabilizes (never more than 2% better than the best-possible level)."""
    tsvd_bad, hybrid_bad = _full_regularization_misses(get_problem, get_decomp)
    _verdict(
        7,
        not tsvd_bad and not hybrid_bad,
        "full regularization: TSVD parity and hybrid stabilization",
        f"tsvd-parity violations {tsvd_bad[:5]}, hybrid-improvement violations {hybrid_bad[:4]}",
    )


def _tsvd_best_error(lams, v, b, x_true, k_max):
    """Best relative error of the TSVD solutions from a LAPACK eigh basis,
    taken in order of decreasing |lambda|."""
    order = np.argsort(-np.abs(lams), kind="stable")
    lams = lams[order][:k_max]
    v = v[:, order[:k_max]]
    steps = v * ((v.T @ b) / lams)
    x_k = np.cumsum(steps, axis=1)
    errs = np.linalg.norm(x_k - x_true[:, None], axis=0) / np.linalg.norm(x_true)
    return float(errs.min())


def test_criterion_07_parity_misses_match_independent_solves(get_problem, get_decomp):
    """Every TSVD-parity miss criterion 07 lists holds for independent
    solves: TSVD from np.linalg.eigh and MR-II from an Arnoldi basis with
    lstsq reproduce both best errors to 1e-9 and the miss."""
    tsvd_bad, _ = _full_regularization_misses(get_problem, get_decomp)
    eigh = {}
    unconfirmed = []
    for name, seed, ratio in tsvd_bad:
        prob = get_problem(name, 1024)
        decomp = get_decomp(name, 1024)
        if name not in eigh:
            eigh[name] = np.linalg.eigh(prob.a.dense())
        nz = problems.add_noise(prob, 1e-3, seed)
        t2 = _trace("mr2", prob, decomp, 1e-3, seed, 30)
        ts = _trace("tsvd", prob, decomp, 1e-3, seed, 30)
        tsvd_err = _tsvd_best_error(*eigh[name], nz.b, prob.x_true, ts.iterations)
        iterates = arnoldi_minimizers(prob.a.matvec, prob.a.matvec(nz.b), nz.b, t2.iterations)
        mr2_err = min(_rel_error(x, prob.x_true) for x in iterates)
        exact = np.array([mr2_err, tsvd_err])
        traced = np.array([t2.best()[1], ts.best()[1]])
        agree = np.all(np.abs(exact - traced) <= 1e-9 * traced)
        if not (agree and mr2_err > 1.1 * tsvd_err):
            unconfirmed.append((name, seed, ratio, exact.tolist(), traced.tolist()))
    print(f"[criterion 07 evidence] {len(tsvd_bad) - len(unconfirmed)} of "
          f"{len(tsvd_bad)} parity misses reproduced by independent solves")
    assert not unconfirmed, unconfirmed


def test_criterion_07_parity_misses_follow_the_signs_of_the_spectrum(get_problem, get_decomp):
    """07's parity clause on the spectral twins of its four kernels: the
    signed twin gives the criterion's misses; with |lambda| both foxgood
    misses are gone and phillips misses on seeds 1 and 3 only."""
    found = {label: [] for label in TWIN_MAPS}
    for name in SEVERE_MODERATE:
        for label in TWIN_MAPS:
            prob, decomp = _twin(get_problem, get_decomp, name, label)
            for seed in range(5):
                b = problems.add_noise(prob, 1e-3, seed).b
                e2 = solvers.mr2_trace(prob.a, b, 30, prob.x_true).best()[1]
                es = solvers.tsvd_trace(decomp, b, prob.x_true, min(80, prob.n)).best()[1]
                if ratio := _parity_miss(e2, es):
                    found[label].append((name, seed, ratio))
    tsvd_bad, _ = _full_regularization_misses(get_problem, get_decomp)
    print(f"[criterion 07 evidence] spectral twins: parity misses signed {found['signed']}, "
          f"with |lambda| {found['abs']}")
    assert found["signed"] == tsvd_bad
    assert [miss[:2] for miss in found["abs"]] == [("phillips", 1), ("phillips", 3)]
    assert [miss[2] for miss in found["abs"]] == pytest.approx([1.736, 1.592], abs=1e-3)


def test_criterion_08_partial_regularization(get_problem, get_decomp):
    """The mild problem needs the hybrid to reach the best-possible (TSVD)
    level; the residual-start solver never beats the filtered-start one on
    the severe/moderate kernels."""
    deriv2 = get_problem("deriv2", 1024)
    deriv2_decomp = get_decomp("deriv2", 1024)
    hybrid_fail = []
    for seed in range(5):
        hy = _trace("hybrid-mr2", deriv2, deriv2_decomp, 1e-3, seed, 30)
        ts = _trace("tsvd", deriv2, deriv2_decomp, 1e-3, seed, 30)
        ratio = hy.best()[1] / ts.best()[1]
        if not ratio <= 1.0:
            hybrid_fail.append((seed, round(ratio, 4), hy.best()[0]))
    ordering_fail = []
    for name in SEVERE_MODERATE:
        prob = get_problem(name, 1024)
        for seed in range(5):
            tm = _trace("minres", prob, None, 1e-3, seed, 30)
            t2 = _trace("mr2", prob, None, 1e-3, seed, 30)
            if not tm.best()[1] > t2.best()[1]:
                ordering_fail.append((name, seed))
    _verdict(
        8,
        not hybrid_fail and not ordering_fail,
        "partial regularization on the mild problem",
        f"hybrid (ratio to TSVD, k_opt) misses {hybrid_fail[:5]}, "
        f"best-error ordering misses {ordering_fail[:4]}",
    )


def test_criterion_08_projection_bound(get_problem):
    """No vector of K_k(A, Ab) with k <= 8 comes within 10% of mr2's best
    error on deriv2, so no hybrid can gain 10% with its optimum there: the
    orthogonal projection of x_true onto the hybrid's Lanczos basis (equal,
    to 1e-8, to that onto an Arnoldi basis) stays above 0.9 x that error."""
    deriv2 = get_problem("deriv2", 1024)
    x_true = deriv2.x_true
    misses = []
    ratios = []
    for seed in range(5):
        nz = problems.add_noise(deriv2, 1e-3, seed)
        mr2_err = _trace("mr2", deriv2, None, 1e-3, seed, 30).best()[1]
        lanczos_q = _trace("hybrid-mr2", deriv2, None, 1e-3, seed, 30).factorization.basis
        arnoldi_q = arnoldi_basis(deriv2.a.matvec, deriv2.a.matvec(nz.b), 8)
        proj = []
        for k in range(1, 9):
            pair = [_rel_error(q[:, :k] @ (q[:, :k].T @ x_true), x_true)
                    for q in (lanczos_q, arnoldi_q)]
            if abs(pair[0] - pair[1]) > 1e-8 * pair[1]:
                misses.append((seed, k, pair))
            proj.append(pair[0])
        ratios.append(round(min(proj) / mr2_err, 3))
        if min(proj) < 0.9 * mr2_err:
            misses.append((seed, min(proj), mr2_err))
    print(f"[criterion 08 evidence] best projection error for k <= 8 over "
          f"mr2 best error: {ratios}")
    assert not misses, misses


def test_criterion_09_roundoff_floor(get_problem):
    """Rank-k error and recurrence entries hit the round-off floor on cue."""
    prob = get_problem("shaw", 1024)
    nz = problems.add_noise(prob, 1e-3, seed=0)
    fact = lanczos(prob.a, START_FILTERED, nz.b, 30)
    from regkrylov.linalg import spectral_norm

    sig1 = spectral_norm(prob.a.dense())
    floor = diagnostics.roundoff_floor(1024, sig1)
    gam = diagnostics.lowrank_error_sequence(prob.a, fact)

    def first_at_floor(seq):
        for i, v in enumerate(seq):
            if v <= floor:
                return i + 1
        return None

    hits = {
        "rank_error": first_at_floor(gam),
        "offdiag": first_at_floor(fact.tridiag.beta),
        "next_diag": first_at_floor(np.abs(fact.tridiag.alpha[1:])),
    }
    ok = all(h is not None and 15 <= h <= 25 for h in hits.values())
    _verdict(9, ok, "round-off floor reached in the expected window", f"{hits}")


def test_criterion_10_lsqr_parity(get_problem):
    """Two-product baseline matches accuracy at twice the operator cost.

    Stated for a single realization (no seed sweep in the criterion); the
    canonical first draw is used.
    """
    prob = get_problem("gravity", 1024)
    t2 = _trace("mr2", prob, None, 1e-3, 0, 30)
    tl = _trace("lsqr", prob, None, 1e-3, 0, 30)
    b2, e2 = t2.best()
    bl, el = tl.best()
    ok = (
        abs(e2 - el) <= 0.1 * el
        and abs(b2 - bl) <= 2
        and tl.matvecs[19] >= 1.8 * t2.matvecs[19]
    )
    _verdict(
        10,
        ok,
        "LSQR accuracy parity at twice the matvec cost",
        f"errors {e2:.5f} vs {el:.5f}, indices {b2} vs {bl}, "
        f"matvecs at k=20: {tl.matvecs[19]} vs {t2.matvecs[19]}",
    )


def test_criterion_11_oracle_equivalence():
    """Lanczos-path iterates equal the explicit subspace minimizer."""
    worst = 0.0
    for trial in range(20):
        n = 6 + trial % 7
        g = rng.normal(rng.derive(900, trial), n * n).reshape(n, n)
        a = SymmetricMatrix(dense=0.5 * (g + g.T))
        b = rng.normal(rng.derive(901, trial), n)
        tr = solvers.mr2_trace(a, b, n - 2)
        for k in range(1, tr.iterations + 1):
            want = krylov_subspace_minimizer(a.matvec, b, k)
            gap = np.linalg.norm(tr.solutions[k - 1] - want)
            worst = max(worst, gap / max(np.linalg.norm(want), 1e-30))
    _verdict(11, worst <= 1e-9, "iterates equal the brute-force minimizer",
             f"worst relative gap {worst:.3e}")


def test_criterion_12_infrastructure_determinism(tmp_path):
    """Reruns are byte-identical; the JSON container round-trips bitwise."""
    doc = {
        "problem": "shaw",
        "n": 128,
        "noise_levels": [1e-3, 1e-2],
        "seeds": [3],
        "solvers": ["minres", "mr2", "tsvd"],
        "k_max": 12,
        "diagnostics": ["lowrank", "decay", "lcurve"],
        "output_dir": str(tmp_path / "run"),
    }
    cfg = cli.ExperimentConfig.from_dict(doc)
    cli.run_experiment(cfg)
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    cli.run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "run").iterdir())}
    same_bytes = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )

    prob = problems.generate("gravity", 64)
    path = tmp_path / "prob.json"
    problems.save_problem(prob, path)
    loaded = problems.load_problem(path)
    roundtrip = (
        np.array_equal(loaded.a.dense(), prob.a.dense())
        and np.array_equal(loaded.x_true, prob.x_true)
        and np.array_equal(loaded.b_hat, prob.b_hat)
    )
    _verdict(12, same_bytes and roundtrip, "byte determinism and container round-trip",
             f"identical bytes: {same_bytes}, bitwise round-trip: {roundtrip}")

