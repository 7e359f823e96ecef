"""Penalty of a measure change: integral formula, primal oracle, and structure checks.

The penalty of a window [sigma, tau) under a measure Q built from control q is
the conditional expectation of the accumulated integrand f(t_k, q_k) dt.  The
whole module works with the value process

    R_k = E_Q[ sum_{max(sigma,k) <= j < tau} f(t_j, q_j) dt | F_k ],

computed by one backward sweep: evaluating R at the sigma frontier gives the
window penalty, and the cocycle, supermartingale and Doob statements all turn
into nodewise identities between such processes, exact up to roundoff.
Infinite integrand values propagate through the sweep to exactly the
ancestors of the offending nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import bsde
from .conjugate import PenaltyIntegrand, fenchel
from .drivers import Driver
from .lattice import (
    AdaptedField,
    Lattice,
    PredictableControl,
    StoppingTime,
    TreeTopology,
    hitting_time,
)
from .measure import (
    MeasureChange,
    between_masks,
    density_from_control,
    paste_controls,
    restrict_control,
    stop_control,
    truncate_control,
)


def integrand_on_control(integrand: PenaltyIntegrand, control: PredictableControl) -> list[np.ndarray]:
    """f(t_k, q_k) per node, with +inf wherever the control leaves the domain."""
    lat = control.lattice
    return [np.asarray(integrand(lat.grid.time(k), control[k]), dtype=float)
            for k in range(lat.steps)]


def window_penalty_process(integrand: PenaltyIntegrand, measure: MeasureChange,
                           sigma: StoppingTime, tau: StoppingTime) -> AdaptedField:
    """The value process R of the window ]]sigma, tau]]; R at sigma is the penalty."""
    if not sigma.is_before(tau):
        raise ValueError("window needs sigma <= tau pointwise")
    sweep = _window_sweep(integrand_on_control(integrand, measure.control), measure, sigma, tau)
    return AdaptedField(measure.lattice, [v for _, v in sweep][::-1], start=0)


def _window_sweep(fq: list[np.ndarray], measure: MeasureChange,
                  sigma: StoppingTime, tau: StoppingTime) -> Iterator[tuple[int, np.ndarray]]:
    """Lazily (k, R_k) for k = N .. 0, given f(t_k, q_k) and an ordered window."""
    lat = measure.lattice

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        inside = sigma.reached[k] & ~tau.reached[k]
        return np.where(inside, fq[k] * lat.dt, 0.0) + measure.one_step_expectation(k, down, up)

    return lat.sweep(lat.steps, np.zeros(lat.node_count(lat.steps)), step)


@dataclass
class PenaltyField:
    """Penalty values c_{k,t}(Q) for k = s..t, nonnegative and zero at the right endpoint."""

    values: AdaptedField
    integrand: PenaltyIntegrand
    control: PredictableControl

    @property
    def start(self) -> int:
        return self.values.start

    @property
    def stop(self) -> int:
        return self.values.stop

    def at(self, step: int) -> np.ndarray:
        return self.values[step]

    def initial(self) -> float:
        """The step-s value at the first node; the unconditional penalty when s = 0."""
        return float(self.values[self.start][0])


def penalty_formula(integrand: PenaltyIntegrand, measure: MeasureChange,
                    start: int, stop: int) -> PenaltyField:
    """Window penalty with deterministic endpoints, as a field of c_{k,stop} values."""
    lat = measure.lattice
    if not 0 <= start <= stop <= lat.steps:
        raise ValueError(f"need 0 <= start <= stop <= {lat.steps}, got ({start}, {stop})")
    process = window_penalty_process(
        integrand, measure,
        StoppingTime.deterministic(lat, start),
        StoppingTime.deterministic(lat, stop),
    )
    window = AdaptedField(lat, [process[k] for k in range(start, stop + 1)], start=start)
    return PenaltyField(values=window, integrand=integrand, control=measure.control)


def cocycle_residual(integrand: PenaltyIntegrand, measure: MeasureChange,
                     sigma: StoppingTime, tau: StoppingTime, upsilon: StoppingTime) -> float:
    """Max nodewise residual of the window additivity across sigma <= tau <= upsilon.

    The full-window process must split into the two sub-window processes at
    every node and step, which contains the frontier identity as the special
    case of evaluation at sigma.  Returns +inf if the infinite-penalty node
    sets of the three processes are inconsistent.
    """
    if not (sigma.is_before(tau) and tau.is_before(upsilon)):
        raise ValueError("cocycle needs sigma <= tau <= upsilon pointwise")
    fq = integrand_on_control(integrand, measure.control)
    worst = 0.0
    for (_, w), (_, h), (_, t) in zip(_window_sweep(fq, measure, sigma, upsilon),
                                      _window_sweep(fq, measure, sigma, tau),
                                      _window_sweep(fq, measure, tau, upsilon)):
        combined_inf = np.isinf(h) | np.isinf(t)
        if not np.array_equal(np.isinf(w), combined_inf):
            return math.inf
        ok = ~combined_inf
        if np.any(ok):
            worst = max(worst, float(np.max(np.abs(w[ok] - h[ok] - t[ok]))))
    return worst


@dataclass
class IncreasingProcess:
    """Pathwise nondecreasing adapted process with predictable increments and a_0 = 0."""

    a: AdaptedField

    def __post_init__(self):
        lat = self.a.lattice
        if self.a.start != 0 or self.a.stop != lat.steps:
            raise ValueError("increasing process must span all steps")
        if float(self.a[0][0]) != 0.0:
            raise ValueError("increasing process must start at zero")
        for k in range(lat.steps):
            down, up = lat.child_values(self.a[k + 1])
            inc_down = down - self.a[k]
            inc_up = up - self.a[k]
            if np.any(np.abs(inc_down - inc_up) > 1e-12):
                raise ValueError(f"increments over step {k} are not predictable")
            if np.any(inc_down < -1e-15):
                raise ValueError(f"process decreases over step {k}")

    def increments(self) -> list[np.ndarray]:
        lat = self.a.lattice
        return [lat.child_values(self.a[k + 1])[0] - self.a[k] for k in range(lat.steps)]


def accumulated_cost(integrand: PenaltyIntegrand, control: PredictableControl) -> IncreasingProcess:
    """The running integral A_k = sum_{j<k} f(t_j, q_j) dt as a node field.

    The cumulative sum is a path functional, so it lives on the full binary
    tree; on the recombining tree it exists only for deterministic controls.
    """
    return _accumulate(integrand_on_control(integrand, control), control)


def _accumulate(fq: list[np.ndarray], control: PredictableControl) -> IncreasingProcess:
    """The sums behind `accumulated_cost`, given f(t_k, q_k)."""
    lat = control.lattice
    if not all(np.all(np.isfinite(v)) for v in fq):
        raise ValueError("integrand infinite along the control: accumulated cost undefined")
    vals = [np.zeros(1)]
    if lat.topology is TreeTopology.FULL_BINARY:
        for k in range(lat.steps):
            vals.append(lat.push(vals[k] + fq[k] * lat.dt, 1.0, 1.0))
    elif control.is_deterministic():
        running = 0.0
        for k in range(lat.steps):
            running += float(fq[k][0]) * lat.dt
            vals.append(np.full(lat.node_count(k + 1), running))
    else:
        raise ValueError("accumulated cost is path-dependent: use a full binary tree "
                         "or a deterministic control")
    return IncreasingProcess(AdaptedField(lat, vals, start=0))


@dataclass
class DoobReport:
    increasing: IncreasingProcess
    residual: float


def doob_decomposition(integrand: PenaltyIntegrand, measure: MeasureChange) -> DoobReport:
    """Potential representation of the penalty: c_k = E_Q[A_N - A_k | F_k].

    A is the accumulated cost; the residual is the largest nodewise error of
    the identity against the penalty process of the full window.
    """
    lat = measure.lattice
    fq = integrand_on_control(integrand, measure.control)
    acc = _accumulate(fq, measure.control)
    a_n = acc.a[lat.steps]
    if not np.all(np.isfinite(a_n)):
        raise ValueError("infinite accumulated cost: the Doob identity needs a finite penalty")
    penalty = _window_sweep(fq, measure, StoppingTime.deterministic(lat, 0),
                            StoppingTime.deterministic(lat, lat.steps))
    expected_tail = lat.sweep(lat.steps, a_n, measure.one_step_expectation)
    residual = max(float(np.max(np.abs(c - (tail - acc.a[k]))))
                   for (k, c), (_, tail) in zip(penalty, expected_tail))
    return DoobReport(increasing=acc, residual=residual)


@dataclass
class PastingReport:
    paste_max_error: float
    restriction_max_error: float | None
    passed: bool


def pasting_check(integrand: PenaltyIntegrand, first: PredictableControl,
                  second: PredictableControl, sigma: StoppingTime, tau: StoppingTime,
                  *, restriction_level: float | None = None) -> PastingReport:
    """Increment-level pasting: dA = dA1 outside ]]sigma, tau]], dA2 inside.

    Increments are per-node functions of the control, so the identity is
    checked exactly on either topology; optionally also verifies the
    restriction form dA^H = 1_H dA for H = {|q| <= level} on the pasted
    control.
    """
    lat = first.lattice
    pasted = paste_controls(first, second, sigma, tau)
    masks = between_masks(sigma, tau)
    inc_first = integrand_on_control(integrand, first)
    inc_second = integrand_on_control(integrand, second)
    inc_pasted = integrand_on_control(integrand, pasted)
    worst = 0.0
    for k in range(lat.steps):
        expected = np.where(masks[k], inc_second[k], inc_first[k]) * lat.dt
        worst = max(worst, _extended_gap(inc_pasted[k] * lat.dt, expected))

    restriction_worst = None
    if restriction_level is not None:
        keep = [np.abs(pasted[k]) <= restriction_level for k in range(lat.steps)]
        restricted = restrict_control(pasted, keep)
        inc_restricted = integrand_on_control(integrand, restricted)
        restriction_worst = 0.0
        for k in range(lat.steps):
            expected = np.where(keep[k], inc_pasted[k] * lat.dt, 0.0)
            restriction_worst = max(restriction_worst,
                                    _extended_gap(inc_restricted[k] * lat.dt, expected))

    passed = worst == 0.0 and (restriction_worst is None or restriction_worst == 0.0)
    return PastingReport(worst, restriction_worst, passed)


def _extended_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute gap between extended-real arrays; +inf entries must coincide."""
    if not np.array_equal(np.isinf(a), np.isinf(b)):
        return math.inf
    finite = np.isfinite(a)
    if not np.any(finite):
        return 0.0
    return float(np.max(np.abs(a[finite] - b[finite])))


# -- primal oracle ----------------------------------------------------------


@dataclass
class PrimalOracleResult:
    value: float
    maximizer: np.ndarray
    converged: bool
    iterations: int


def penalty_primal_oracle(driver: Driver, measure: MeasureChange, *, seed: int = 0) -> PrimalOracleResult:
    """Sup over bounded claims of E_Q[-claim] + u_0(claim), by projected ascent.

    This is the defining supremum of the unconditional penalty, evaluated by
    brute force and entirely independent of the integral formula.  The
    objective is concave near the optimum, low-dimensional (at most 16
    variables), and maximised by supergradient ascent with step halving from
    the zero claim and 5 random restarts inside the box [-10, 10]^nodes, each
    run stopping after 20000 iterations or a gain below 1e-9.
    """
    lat = measure.lattice
    if lat.topology is not TreeTopology.FULL_BINARY:
        raise ValueError("the primal oracle enumerates claims per path: full binary only")
    if lat.steps > 4:
        raise ValueError(f"primal oracle limited to 4 steps, got {lat.steps}")

    weights = measure.node_probabilities()[lat.steps]
    sdt = lat.sqrt_dt
    n = lat.node_count(lat.steps)

    if driver.subgradient is not None:
        slope = driver.subgradient
    else:
        def slope(t, z, _h=1e-7):
            up = np.asarray(driver(t, z + _h), dtype=float)
            down = np.asarray(driver(t, z - _h), dtype=float)
            return (up - down) / (2.0 * _h)

    # Box claims can leave a quadratic driver's radius; the oracle never checks it.
    utility_step = bsde.driver_step(driver, lat, -1.0, check_radius=False)

    def utility_and_gradient(claim: np.ndarray, want_grad: bool) -> tuple[float, np.ndarray | None]:
        sweep = lat.sweep(lat.steps, claim, utility_step)
        if not want_grad:
            return float(next(u for k, u in sweep if k == 0)[0]), None
        ys = [u for _, u in sweep][::-1]
        lam = np.ones(1)
        for k in range(lat.steps):
            down, up = lat.child_values(ys[k + 1])
            z = lat.increment(down, up)
            # the driver saw -z: the edge weights of the negated claim's solve
            tilt = np.asarray(slope(lat.grid.time(k), -z), dtype=float) * sdt / 2.0
            lam = lat.push(lam, 0.5 - tilt, 0.5 + tilt)
        return float(ys[0][0]), lam

    def objective(claim: np.ndarray, want_grad: bool = False):
        u_val, u_grad = utility_and_gradient(claim, want_grad)
        value = float(-weights @ claim) + u_val
        grad = None if u_grad is None else u_grad - weights
        return value, grad

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n)] + [rng.normal(scale=1.0, size=n) for _ in range(5)]

    best_value = -math.inf
    best_claim = np.zeros(n)
    total_iters = 0
    all_converged = True
    for start in starts:
        xi = np.clip(start, -10.0, 10.0)
        value, grad = objective(xi, want_grad=True)
        step = 1.0
        converged = False
        for _ in range(20000):
            total_iters += 1
            improved = False
            while step >= 1e-14:
                candidate = np.clip(xi + step * grad, -10.0, 10.0)
                cand_value, _ = objective(candidate)
                if cand_value > value:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                converged = True  # no ascent direction at step tolerance: at the max
                break
            gain = cand_value - value
            xi = candidate
            value, grad = objective(xi, want_grad=True)
            if gain < 1e-9:
                converged = True
                break
            step = min(step * 2.0, 64.0)
        all_converged &= converged
        if value > best_value:
            best_value = value
            best_claim = xi
    return PrimalOracleResult(best_value, best_claim, all_converged, total_iters)


# -- truncation and stopping limits -----------------------------------------


@dataclass
class TruncationReport:
    levels: tuple[float, ...]
    gated_values: tuple[float, ...]
    full_value: float
    monotone: bool
    saturated_exactly: bool
    stopped_values: tuple[float, ...] | None
    stopped_monotone: bool | None
    stopped_cost_bound_ok: bool | None
    stopping_skipped: bool

    @property
    def passed(self) -> bool:
        ok = self.monotone and self.saturated_exactly
        if not self.stopping_skipped:
            ok = ok and bool(self.stopped_monotone) and bool(self.stopped_cost_bound_ok)
        return ok


def truncation_convergence(integrand: PenaltyIntegrand, control: PredictableControl,
                           levels: Sequence[float]) -> TruncationReport:
    """Penalties of gated controls rise to the full penalty and saturate exactly.

    For gates H_n = {|q| <= n} the report checks monotone approach and exact
    equality once the gate clears max |q| (the gated control is then bitwise
    the original).  The stopping variant uses the first time the accumulated
    cost reaches n; it needs pathwise accumulation, so it runs on full binary
    trees or deterministic controls and is otherwise skipped.
    """
    lat = control.lattice
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")

    start, stop = StoppingTime.deterministic(lat, 0), StoppingTime.deterministic(lat, lat.steps)

    def root_penalty(ctrl: PredictableControl, fq: list[np.ndarray] | None = None) -> float:
        fq = integrand_on_control(integrand, ctrl) if fq is None else fq
        sweep = _window_sweep(fq, density_from_control(ctrl), start, stop)
        return float(next(v for k, v in sweep if k == 0)[0])

    fq = integrand_on_control(integrand, control)
    full_value = root_penalty(control, fq)
    gated_values = tuple(root_penalty(truncate_control(control, n)) for n in levels)
    monotone = all(b >= a - bsde.TOL_IDENTITY for a, b in zip(gated_values, gated_values[1:]))
    max_control = control.max_abs()
    saturated = all(v == full_value for n, v in zip(levels, gated_values) if n >= max_control)

    stopped_values = None
    stopped_monotone = None
    bound_ok = None
    finite_cost = all(np.all(np.isfinite(v)) for v in fq)
    skipped = not (finite_cost and (lat.topology is TreeTopology.FULL_BINARY
                                    or control.is_deterministic()))
    if not skipped:
        acc = _accumulate(fq, control)
        max_increment = max(float(np.max(inc)) for inc in acc.increments())
        vals = []
        bound_ok = True
        for n in levels:
            stop_at = hitting_time(lat, [acc.a[k] >= n for k in range(lat.steps + 1)])
            vals.append(root_penalty(stop_control(control, stop_at)))
            if lat.topology is TreeTopology.FULL_BINARY:
                stopped_cost = _stopped_process(acc.a, stop_at)[lat.steps]
            else:
                step = int(np.flatnonzero([bool(m[0]) for m in stop_at.reached])[0])
                stopped_cost = acc.a[step][:1]
            bound_ok &= bool(np.all(stopped_cost <= n + max_increment + 1e-12))
        stopped_values = tuple(vals)
        stopped_monotone = all(b >= a - bsde.TOL_IDENTITY for a, b in zip(vals, vals[1:]))
        stopped_monotone &= all(v <= full_value + bsde.TOL_IDENTITY for v in vals)

    return TruncationReport(levels, gated_values, full_value, monotone, saturated,
                            stopped_values, stopped_monotone, bound_ok, skipped)


# -- pathwise helpers (full binary) ------------------------------------------


def _stopped_process(process: AdaptedField, stop: StoppingTime) -> AdaptedField:
    """Freeze an adapted process at a stopping time (full binary); the last step is X at tau per path."""
    lat = process.lattice
    vals = [process[0].copy()]
    for k in range(lat.steps):
        stopped = lat.push(stop.reached[k], True, True)
        vals.append(np.where(stopped, lat.push(vals[k], 1.0, 1.0), process[k + 1]))
    return AdaptedField(lat, vals, start=0)


def _window_utility_at_stop(driver: Driver, claim_frozen: AdaptedField,
                            sigma: StoppingTime, tau: StoppingTime) -> np.ndarray:
    """u over the window ]]sigma, tau]] of a claim frozen at tau, per path at sigma."""
    lat = claim_frozen.lattice
    utility_step = bsde.driver_step(driver, lat, -1.0, check_radius=False)

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        return np.where(tau.reached[k], claim_frozen[k], utility_step(k, down, up))

    fields = [v for _, v in lat.sweep(lat.steps, claim_frozen[lat.steps], step)]
    return _stopped_process(AdaptedField(lat, fields[::-1], start=0), sigma)[lat.steps]


# -- supermartingale / appendix suite ----------------------------------------


def _random_stopping_time(lattice: Lattice, rng: np.random.Generator) -> StoppingTime:
    kind = int(rng.integers(3))
    if kind == 0:
        return StoppingTime.deterministic(lattice, int(rng.integers(lattice.steps + 1)))
    if kind == 1:
        barrier = float(rng.uniform(0.3, 2.0)) * math.sqrt(lattice.horizon)
        event = [np.abs(lattice.level_values(k)) >= barrier for k in range(lattice.steps + 1)]
        return hitting_time(lattice, event)
    p = float(rng.uniform(0.02, 0.25))
    event = [rng.uniform(size=lattice.node_count(k)) < (p if k > 0 else 0.0)
             for k in range(lattice.steps + 1)]
    return hitting_time(lattice, event)


def random_stopping_pair(lattice: Lattice, rng: np.random.Generator) -> tuple[StoppingTime, StoppingTime]:
    """An ordered pair sigma <= tau of stopping times, via the min/max combinators."""
    a = _random_stopping_time(lattice, rng)
    b = _random_stopping_time(lattice, rng)
    return a.minimum(b), a.maximum(b)


@dataclass
class SupermartingaleReport:
    trials: int
    inequality_violations: int
    inequality_worst: float
    lemma_bound_violations: int | None
    lemma_bound_worst: float | None
    acceptance_residual: float | None
    oracle_gap: float | None
    skipped_oracle_part: bool

    @property
    def passed(self) -> bool:
        ok = self.inequality_violations == 0
        if not self.skipped_oracle_part:
            ok = ok and self.lemma_bound_violations == 0 and self.acceptance_residual <= 1e-12
        return ok


def supermartingale_suite(integrand: PenaltyIntegrand, measure: MeasureChange, *,
                          trials: int, seed: int, driver: Driver | None = None) -> SupermartingaleReport:
    """Random stopping pairs against the supermartingale and near-optimal-claim bounds.

    Always checks, node by node, that shrinking the window start from tau back
    to sigma never lowers the penalty process (the supermartingale property at
    stopping times).  On full binary trees with the inducing driver supplied,
    additionally runs the near-optimal-claim bound
    E_Q[c_{sigma,tau}] <= E_Q[u_sigma - u_tau] + eps with the claim and gap eps
    taken from the primal oracle, plus the exact acceptance-set decomposition
    residuals built from translation invariance.
    """
    lat = measure.lattice
    rng = np.random.default_rng(seed)
    horizon = StoppingTime.deterministic(lat, lat.steps)

    worst_inequality = 0.0
    violations = 0

    oracle_part = driver is not None and lat.topology is TreeTopology.FULL_BINARY
    lemma_violations = None
    lemma_worst = None
    acceptance_residual = None
    oracle_gap = None

    if oracle_part:
        full_penalty = penalty_formula(integrand, measure, 0, lat.steps).initial()
        if not math.isfinite(full_penalty):
            oracle_part = False
    if oracle_part:
        oracle = penalty_primal_oracle(driver, measure, seed=seed)
        u0_of_max = bsde.g_expectation(driver, AdaptedField(lat, [-oracle.maximizer],
                                                            start=lat.steps))
        acceptable_claim = oracle.maximizer + u0_of_max  # translate into the acceptance set
        eps = max(full_penalty - oracle.value, 0.0) + 1e-12
        oracle_gap = full_penalty - oracle.value
        weights = measure.node_probabilities()[lat.steps]
        u_process = bsde.utility_solution(
            driver, AdaptedField(lat, [acceptable_claim], start=lat.steps)).y
        lemma_violations = 0
        lemma_worst = -math.inf
        acceptance_residual = 0.0

    # random_stopping_pair orders sigma <= tau, and every time is <= the horizon
    fq = integrand_on_control(integrand, measure.control)
    for _ in range(trials):
        sigma, tau = random_stopping_pair(lat, rng)
        for (_, a), (_, b) in zip(_window_sweep(fq, measure, sigma, horizon),
                                  _window_sweep(fq, measure, tau, horizon)):
            finite = np.isfinite(a) & np.isfinite(b)
            if np.any(finite):
                gap = float(np.max(b[finite] - a[finite]))
                worst_inequality = max(worst_inequality, gap)
                if gap > bsde.TOL_IDENTITY:
                    violations += 1

        if oracle_part:
            window_root = next(v for k, v in _window_sweep(fq, measure, sigma, tau) if k == 0)[0]
            sigma_frozen = _stopped_process(u_process, sigma)
            frozen = _stopped_process(u_process, tau)
            u_tau = frozen[lat.steps]
            bound = float(weights @ (sigma_frozen[lat.steps] - u_tau)) + eps
            margin = float(window_root) - bound
            lemma_worst = max(lemma_worst, margin)
            if margin > bsde.TOL_IDENTITY:
                lemma_violations += 1

            # xi - u_tau(xi) is acceptable over [tau, T]: utility zero at tau.
            tail_claim = acceptable_claim - u_tau
            tail_u = bsde.utility_solution(
                driver, AdaptedField(lat, [tail_claim], start=lat.steps)).y
            res = float(np.max(np.abs(_stopped_process(tail_u, tau)[lat.steps])))
            # u_tau(xi) - u_sigma(xi) is acceptable over [sigma, tau].
            middle_claim = AdaptedField(
                lat, [frozen[k] - sigma_frozen[k] for k in range(lat.steps + 1)], start=0)
            res = max(res, float(np.max(np.abs(
                _window_utility_at_stop(driver, middle_claim, sigma, tau)))))
            acceptance_residual = max(acceptance_residual, res)

    return SupermartingaleReport(
        trials=trials,
        inequality_violations=violations,
        inequality_worst=worst_inequality,
        lemma_bound_violations=lemma_violations,
        lemma_bound_worst=None if lemma_worst in (None, -math.inf) else lemma_worst,
        acceptance_residual=acceptance_residual,
        oracle_gap=oracle_gap,
        skipped_oracle_part=not oracle_part,
    )


@dataclass
class UpperBoundReport:
    formula_value: float
    primal_value: float
    upper_bound_holds: bool
    equality_gap: float | None

    @property
    def passed(self) -> bool:
        ok = self.upper_bound_holds
        if self.equality_gap is not None:
            ok = ok and self.equality_gap <= 1e-6
        return ok


def upper_bound_check(driver: Driver, control: PredictableControl, *, seed: int = 0) -> UpperBoundReport:
    """Primal value never exceeds the formula; equality whenever the formula is finite.

    With the control leaving the integrand's domain the formula reports +inf
    and the bound is vacuous; the primal value over a bounded claim box stays
    finite, which is exactly the expected one-sided picture.
    """
    measure = density_from_control(control)
    formula = penalty_formula(fenchel(driver), measure, 0, control.lattice.steps).initial()
    oracle = penalty_primal_oracle(driver, measure, seed=seed)
    holds = oracle.value <= formula + 1e-6
    gap = abs(oracle.value - formula) if math.isfinite(formula) else None
    return UpperBoundReport(formula, oracle.value, holds, gap)
