"""The randomized suites sweep their trials as stacked rows: bitwise the per-trial loops.

Each reference below is the one-trial-at-a-time form of a suite: it draws a
trial's random numbers, solves that trial's claims or windows one sweep at a
time and records its margins before drawing the next.  The suites must report
exactly what the references report, for any seed, trial count, driver and
topology, and whether their trials fill one block of the stacked sweep or
several.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice.conjugate import GRID_POINTS_1D
from glattice.drivers import Driver
from conftest import random_control

# examples per property test: a fifth of the profile's (20 by default, 200 under `ci`)
EXAMPLES = max(1, settings().max_examples // 5)

DRIVERS = {
    "abs": lambda: gl.abs_scaled(0.5),
    "entropic": lambda: gl.entropic(0.5, radius=4.0),
    # concave in z, so the concavity check fails and its margins are compared too
    "nonconvex": lambda: Driver(name="nonconvex",
                                evaluate=lambda t, z: -np.asarray(z, dtype=float) ** 2 / 2.0,
                                lipschitz=4.0, convex=True, validity_radius=8.0),
}

INTEGRANDS = {
    "entropic": lambda: gl.fenchel(gl.entropic(1.0, radius=8.0)),
    "box": lambda: gl.fenchel(gl.abs_scaled(0.5)),  # +inf where |q| > 0.5
    # negative costs break the supermartingale inequality, so violations are compared
    "negative": lambda: dataclasses.replace(
        gl.fenchel(gl.entropic(1.0, radius=8.0)), name="negative",
        evaluate=lambda t, q: -np.asarray(q, dtype=float) ** 2),
}

# block sizes: one trial a block, a few trials a block, and the library's own
BLOCK_NODES = st.sampled_from([1, 3000, gl.lattice.BATCH_NODES])


# -- per-trial references ------------------------------------------------------


def reference_stopping_time(lat, rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return gl.StoppingTime.deterministic(lat, int(rng.integers(lat.steps + 1)))
    if kind == 1:
        barrier = float(rng.uniform(0.3, 2.0)) * math.sqrt(lat.horizon)
        return gl.hitting_time(lat, [np.abs(lat.level_values(k)) >= barrier
                                     for k in range(lat.steps + 1)])
    p = float(rng.uniform(0.02, 0.25))
    return gl.hitting_time(lat, [rng.uniform(size=lat.node_count(k)) < (p if k > 0 else 0.0)
                                 for k in range(lat.steps + 1)])


def reference_stopping_pair(lat, rng):
    a, b = reference_stopping_time(lat, rng), reference_stopping_time(lat, rng)
    return a.minimum(b), a.maximum(b)


def reference_axiom_suite(driver, lat, trials, seed, claim_bound=1.0):
    """(trials, violations, worst) per check, one trial and one claim at a time."""
    rng = np.random.default_rng(seed)
    n_term = lat.node_count(lat.steps)
    dominating = gl.abs_scaled(driver.lipschitz)
    names = ["monotonicity", "strict_monotonicity", "translation_invariance", "concavity",
             "zero_normalisation", "domination", "local_property", "time_consistency"]
    if driver.positively_homogeneous:
        names.append("positive_homogeneity")
    checks = {n: gl.bsde.CheckStat(n) for n in names}

    def u_process(vec):
        return gl.utility_solution(driver, gl.AdaptedField(lat, [vec], start=lat.steps)).y

    def field_max(combine, *fields):
        return max(float(np.max(combine(*step))) for step in zip(*(f.values for f in fields)))

    checks["zero_normalisation"].record(field_max(np.abs, u_process(np.zeros(n_term))), 1e-12)
    for _ in range(trials):
        xi = rng.uniform(-claim_bound, claim_bound, size=n_term)
        eta = rng.uniform(-claim_bound, claim_bound, size=n_term)
        u_xi, u_eta = u_process(xi), u_process(eta)
        const = float(rng.uniform(-claim_bound, claim_bound))
        checks["zero_normalisation"].record(
            field_max(lambda v: np.abs(v - const), u_process(np.full(n_term, const))), 1e-12)
        bump = rng.uniform(0.0, claim_bound, size=n_term)
        checks["monotonicity"].record(field_max(np.subtract, u_xi, u_process(xi + bump)), 1e-10)
        atom = int(rng.integers(n_term))
        spike = np.zeros(n_term)
        spike[atom] = 0.25 * claim_bound
        gain = float(u_process(xi + spike).values[0][0] - u_xi.values[0][0])
        checks["strict_monotonicity"].record(0.0 if gain > 0.0 else 1.0, 0.5)
        k = int(rng.integers(1, lat.steps))
        shift = rng.uniform(-claim_bound, claim_bound, size=lat.node_count(k))
        u_shifted = u_process(xi + shift[lat.terminal_ancestors(k)])
        worst, shift_at_j = 0.0, shift
        for j in range(k, lat.steps + 1):
            if j > k:
                shift_at_j = lat.push(shift_at_j, 1.0, 1.0)
            worst = max(worst, float(np.max(np.abs(u_shifted[j] - u_xi[j] - shift_at_j))))
        checks["translation_invariance"].record(worst, 1e-12)
        alpha = float(rng.uniform(0.0, 1.0))
        u_mix = u_process(alpha * xi + (1.0 - alpha) * eta)
        checks["concavity"].record(
            field_max(lambda a, b, m: alpha * a + (1.0 - alpha) * b - m, u_xi, u_eta, u_mix),
            1e-10)
        dom = gl.solve(dominating, gl.AdaptedField(lat, [eta], start=lat.steps)).y
        checks["domination"].record(
            field_max(lambda s, a, d: s - a - d, u_process(xi + eta), u_xi, dom), 1e-10)
        event = rng.uniform(size=lat.node_count(k)) < 0.5
        u_mixed = u_process(np.where(event[lat.terminal_ancestors(k)], xi, eta))[k]
        checks["local_property"].record(
            float(np.max(np.abs(u_mixed - np.where(event, u_xi[k], u_eta[k])))), 1e-12)
        restarted = gl.utility_solution(driver, gl.AdaptedField(lat, [u_xi[k].copy()],
                                                                start=k)).y
        checks["time_consistency"].record(
            field_max(lambda r, u: np.abs(r - u), restarted, u_xi), 1e-12)
        if driver.positively_homogeneous:
            lam = float(rng.uniform(0.1, 3.0))
            checks["positive_homogeneity"].record(
                field_max(lambda s, a: np.abs(s - lam * a), u_process(lam * xi), u_xi),
                1e-12 * max(1.0, lam))
    return {n: (c.trials, c.violations, c.worst) for n, c in checks.items()}


def reference_value_at_stop(values, stop):
    """Per-path value at a stopping time of a process given as its steps 0..N."""
    lat = stop.lattice
    steps = stop.step_on_paths()
    out = np.empty(steps.size)
    for k in np.unique(steps):
        sel = steps == k
        out[sel] = values[int(k)][lat.terminal_ancestors(int(k))[sel]]
    return out


def reference_supermartingale_suite(f, Q, trials, seed, driver=None):
    """The suite's report fields, one stopping pair and one window sweep at a time."""
    lat = Q.lattice
    rng = np.random.default_rng(seed)
    horizon = gl.StoppingTime.deterministic(lat, lat.steps)
    inequality = gl.bsde.CheckStat("supermartingale")
    bound = gl.bsde.CheckStat("near_optimal_bound", worst=-math.inf)
    oracle_part = driver is not None and lat.topology is gl.TreeTopology.FULL_BINARY
    acceptance = gap = None
    if oracle_part:
        full = gl.penalty_formula(f, Q, 0, lat.steps).initial()
        oracle_part = math.isfinite(full)
    if oracle_part:
        oracle = gl.penalty_primal_oracle(driver, Q, seed=seed)
        claim = oracle.maximizer + gl.g_expectation(
            driver, gl.AdaptedField(lat, [-oracle.maximizer], start=lat.steps))
        eps = max(full - oracle.value, 0.0) + 1e-12
        gap = full - oracle.value
        weights = Q.node_probabilities()[lat.steps]
        u = gl.utility_solution(driver, gl.AdaptedField(lat, [claim], start=lat.steps)).y.values
        step = gl.bsde.driver_step(driver, lat, -1.0, check_radius=False)
        acceptance = 0.0
    for _ in range(trials):
        sigma, tau = reference_stopping_pair(lat, rng)
        early = gl.window_penalty_process(f, Q, sigma, horizon)
        late = gl.window_penalty_process(f, Q, tau, horizon)
        for a, b in zip(early.values[::-1], late.values[::-1]):  # steps N .. 0
            finite = np.isfinite(a) & np.isfinite(b)
            if np.any(finite):
                inequality.record(float(np.max(b[finite] - a[finite])), 1e-12)
        if oracle_part:
            root = gl.window_penalty_process(f, Q, sigma, tau)[0][0]
            u_sigma, u_tau = reference_value_at_stop(u, sigma), reference_value_at_stop(u, tau)
            bound.record(float(root) - (float(weights @ (u_sigma - u_tau)) + eps), 1e-12)
            tail = gl.utility_solution(driver, gl.AdaptedField(lat, [claim - u_tau],
                                                               start=lat.steps)).y.values
            res = float(np.max(np.abs(reference_value_at_stop(tail, tau))))
            # the claim u_tau - u_sigma, each stopped, step by step
            middle = [reference_frozen(u, tau, k) - reference_frozen(u, sigma, k)
                      for k in range(lat.steps + 1)]
            sweep = [v for _, v in lat.sweep(
                lat.steps, middle[lat.steps],
                lambda k, down, up: np.where(tau.reached[k], middle[k], step(k, down, up)))]
            res = max(res, float(np.max(np.abs(reference_value_at_stop(sweep[::-1], sigma)))))
            acceptance = max(acceptance, res)
    return gl.penalty.SupermartingaleReport(
        trials, inequality.violations, inequality.worst,
        bound.violations if oracle_part else None,
        bound.worst if oracle_part and bound.worst > -math.inf else None,
        acceptance, gap, not oracle_part)


def reference_frozen(values, stop, k):
    """Step k of a process stopped at `stop`: u at the node where each path stopped, if by k."""
    lat = stop.lattice
    out = values[k].copy()
    for j in reversed(range(k)):
        ancestors = np.arange(lat.node_count(k)) >> (k - j)
        out = np.where(stop.reached[j][ancestors], values[j][ancestors], out)
    return out


def reference_cocycle_residual(f, Q, sigma, tau, upsilon):
    """The cocycle residual over three window processes swept one at a time."""
    worst = 0.0
    for w, h, t in zip(gl.window_penalty_process(f, Q, sigma, upsilon).values,
                       gl.window_penalty_process(f, Q, sigma, tau).values,
                       gl.window_penalty_process(f, Q, tau, upsilon).values):
        combined_inf = np.isinf(h) | np.isinf(t)
        if not np.array_equal(np.isinf(w), combined_inf):
            return math.inf
        ok = ~combined_inf
        if np.any(ok):
            worst = max(worst, float(np.max(np.abs(w[ok] - h[ok] - t[ok]))))
    return worst


def report_bits(report):
    """Every field of a report, floats by their bits."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def measure_case(topology, steps, seed):
    lat = gl.build_grid(1.0, steps, topology)
    rng = np.random.default_rng(seed)
    return lat, gl.density_from_control(random_control(lat, rng, 1.0)), rng


# -- the suites against their references --------------------------------------


@given(topology=st.sampled_from(list(gl.TreeTopology)), steps=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4))
@settings(max_examples=EXAMPLES, deadline=None)
def test_random_stopping_pair_is_the_per_time_draw(topology, steps, seed, count):
    lat = gl.build_grid(1.0, steps, topology)
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(count):  # consecutive pairs: the rng advances exactly as per time
        pairs = zip(gl.random_stopping_pair(lat, got), reference_stopping_pair(lat, want))
        for mine, theirs in pairs:
            assert all(a.shape == b.shape and np.array_equal(a, b)
                       for a, b in zip(mine.reached, theirs.reached))
    assert got.random() == want.random()


@given(driver=st.sampled_from(sorted(DRIVERS)), steps=st.integers(2, 6),
       trials=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), block=BLOCK_NODES)
@settings(max_examples=EXAMPLES, deadline=None)
def test_axiom_suite_is_the_per_trial_loop(driver, steps, trials, seed, block):
    lat = gl.build_grid(1.0, steps, gl.TreeTopology.FULL_BINARY)
    drv = DRIVERS[driver]()
    bound = 0.5 if driver == "entropic" else 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl.lattice, "BATCH_NODES", block)
        report = gl.axiom_suite(drv, lat, trials=trials, seed=seed, claim_bound=bound)
    assert report.trials == trials
    assert {n: (c.trials, c.violations, c.worst) for n, c in report.checks.items()} == \
        reference_axiom_suite(drv, lat, trials, seed, claim_bound=bound)


@given(topology=st.sampled_from(list(gl.TreeTopology)), steps=st.integers(1, 8),
       trials=st.integers(0, 10), seed=st.integers(0, 2**32 - 1),
       integrand=st.sampled_from(sorted(INTEGRANDS)), block=BLOCK_NODES)
@settings(max_examples=EXAMPLES, deadline=None)
def test_supermartingale_suite_is_the_per_trial_loop(topology, steps, trials, seed, integrand,
                                                     block):
    lat, Q, _ = measure_case(topology, steps, seed)
    f = INTEGRANDS[integrand]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl.lattice, "BATCH_NODES", block)
        report = gl.supermartingale_suite(f, Q, trials=trials, seed=seed)
    assert report.skipped_oracle_part
    assert report_bits(report) == report_bits(reference_supermartingale_suite(f, Q, trials, seed))


@given(steps=st.integers(1, 3), trials=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       level=st.sampled_from([0.0, 0.2, 0.4]), block=BLOCK_NODES)
@settings(max_examples=max(1, EXAMPLES // 4), deadline=None)
def test_supermartingale_oracle_part_is_the_per_trial_loop(steps, trials, seed, level, block):
    lat = gl.build_grid(1.0, steps, gl.TreeTopology.FULL_BINARY)
    driver = gl.entropic(1.0, radius=16.0)
    f = gl.fenchel(driver)
    Q = gl.density_from_control(gl.PredictableControl.constant(lat, level))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl.lattice, "BATCH_NODES", block)
        report = gl.supermartingale_suite(f, Q, trials=trials, seed=seed, driver=driver)
    assert not report.skipped_oracle_part
    assert report_bits(report) == report_bits(
        reference_supermartingale_suite(f, Q, trials, seed, driver))


@given(topology=st.sampled_from(list(gl.TreeTopology)), steps=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), integrand=st.sampled_from(sorted(INTEGRANDS)))
@settings(max_examples=EXAMPLES, deadline=None)
def test_cocycle_residual_is_three_sweeps(topology, steps, seed, integrand):
    lat, Q, rng = measure_case(topology, steps, seed)
    f = INTEGRANDS[integrand]()
    sigma, tau = gl.random_stopping_pair(lat, rng)
    upsilon = tau.maximum(gl.random_stopping_pair(lat, rng)[1])
    assert gl.cocycle_residual(f, Q, sigma, tau, upsilon).hex() == \
        reference_cocycle_residual(f, Q, sigma, tau, upsilon).hex()


def test_trials_span_several_blocks_at_the_library_block_size():
    # 10 claims of 8191 nodes a trial: 12 trials fill a block, so 13 take two
    lat = gl.build_grid(1.0, 12, gl.TreeTopology.FULL_BINARY)
    assert 12 * 10 * 8191 <= gl.lattice.BATCH_NODES < 13 * 10 * 8191
    report = gl.axiom_suite(gl.abs_scaled(0.5), lat, trials=13, seed=5)
    assert {n: (c.trials, c.violations, c.worst) for n, c in report.checks.items()} == \
        reference_axiom_suite(gl.abs_scaled(0.5), lat, 13, 5)
    # two windows of 131841 nodes a trial: 3 trials a block, so 7 take three
    lat, Q, _ = measure_case(gl.TreeTopology.RECOMBINING, 512, 6)
    assert 3 * 2 * 131841 <= gl.lattice.BATCH_NODES < 4 * 2 * 131841
    f = INTEGRANDS["entropic"]()
    assert report_bits(gl.supermartingale_suite(f, Q, trials=7, seed=6)) == \
        report_bits(reference_supermartingale_suite(f, Q, 7, 6))


# -- faults inside a batch still name their node ---------------------------------


def test_radius_breach_inside_a_batch_names_its_node(full8):
    driver = gl.entropic(1.0, radius=0.5)
    with pytest.raises(gl.ValidityRadiusError) as caught:
        gl.axiom_suite(driver, full8, trials=20, seed=0)
    node = caught.value.node
    assert 0 <= node.step < full8.steps and 0 <= node.index < full8.node_count(node.step)
    assert abs(caught.value.z_value) > driver.validity_radius


def test_nan_inside_a_batch_names_its_row_and_node(full8):
    nan_above = Driver(name="nan-above",
                       evaluate=lambda t, z: np.where(np.abs(z) > 2.0, np.nan, 0.0),
                       lipschitz=1.0, convex=True)
    with pytest.raises(ValueError, match=r"NaN in row \d+ at node\(step=\d, index=\d+\)"):
        gl.axiom_suite(nan_above, full8, trials=20, seed=0)


@pytest.mark.parametrize("topology", list(gl.TreeTopology))
def test_stacked_sweep_reports_the_nan_row_and_node(topology):
    lat = gl.build_grid(1.0, 4, topology)
    rows = np.zeros((3, lat.node_count(4)))

    def step(k, down, up):
        out = (down + up) / 2.0
        if k == 2:
            out[1, lat.node_count(2) - 1] = np.nan
        return out

    with pytest.raises(ValueError, match=rf"NaN in row 1 at node\(step=2, index="
                                         rf"{lat.node_count(2) - 1}\)"):
        list(lat.sweep(4, rows, step))
    with pytest.raises(ValueError, match=r"NaN at node\(step=2, index=0\)"):
        list(lat.sweep(4, rows[0], lambda k, down, up: np.full(down.shape, np.nan if k == 2
                                                               else 0.0)))


def test_nan_integrand_inside_a_batch_names_its_row_and_node(rec8):
    nan_cost = dataclasses.replace(INTEGRANDS["entropic"](), name="nan-cost",
                                   evaluate=lambda t, q: np.full(np.shape(q), np.nan))
    Q = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.1))
    with pytest.raises(ValueError, match=r"NaN in row \d+ at node\(step=\d, index=\d+\)"):
        gl.supermartingale_suite(nan_cost, Q, trials=30, seed=0)


# -- the numeric conjugate evaluates its coarse grid once per time ----------------


def counted_quadratic(calls):
    def evaluate(t, z):
        calls.append(np.size(z))
        return np.asarray(z, dtype=float) ** 2 / 2.0
    return Driver(name="counted", evaluate=evaluate, lipschitz=4.0, convex=True,
                  validity_radius=4.0)


def test_numeric_conjugate_reuses_its_coarse_grid_at_one_time():
    calls = []
    driver = counted_quadratic(calls)
    f = gl.fenchel(driver)
    q = np.linspace(-1.0, 1.0, 7)
    calls.clear()
    first = f(0.5, q)
    assert calls.count(GRID_POINTS_1D) == 1 and len(calls) == 3  # coarse, then two refinements
    again = f(0.5, q)
    assert calls.count(GRID_POINTS_1D) == 1 and len(calls) == 5
    f(0.25, q)
    assert calls.count(GRID_POINTS_1D) == 2 and len(calls) == 8
    direct = gl.grid_sup_of_linear_minus(driver.evaluate, 0.5, q, 4.0)
    assert first.tobytes() == again.tobytes() == direct.tobytes()


def test_golden_dual_evaluates_one_coarse_grid_per_step(rec8):
    calls = []
    f = gl.fenchel(counted_quadratic(calls))  # the construction evaluates at t = 0 once
    claim = gl.terminal_field(rec8, lambda x: np.tanh(x))
    gl.dual_utility(f, claim)
    assert calls.count(GRID_POINTS_1D) == 1 + rec8.steps


# -- the margin counter folds a batch as it folds one margin at a time -----------


@given(margins=st.lists(st.sampled_from([-0.0, 0.0, 1e-13, 2e-12, -1.0, math.nan, math.inf])
                        | st.floats(-1.0, 1.0), max_size=12),
       start=st.sampled_from([0.0, -math.inf]), tol=st.sampled_from([0.0, 1e-12]))
@settings(max_examples=EXAMPLES * 5, deadline=None)
def test_record_many_is_record_in_order(margins, start, tol):
    one, many = gl.bsde.CheckStat("one", worst=start), gl.bsde.CheckStat("many", worst=start)
    for margin in margins:
        one.worst = max(one.worst, margin)  # the fold `record` keeps, signed zeros and NaN included
        one.trials += 1
        one.violations += margin > tol
    many.record_many(np.array(margins, dtype=float), tol)
    assert (many.trials, many.violations, many.worst.hex()) == \
        (one.trials, one.violations, one.worst.hex())
