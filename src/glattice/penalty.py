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
from functools import cached_property, reduce
from itertools import islice
from typing import Callable, Iterator, Sequence

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
    _LazySteps,
    _trial_blocks,
    hitting_time,
    node_total,
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
    return list(_integrand_at(integrand, control))


def _integrand_at(integrand: PenaltyIntegrand, control: PredictableControl) -> _LazySteps:
    """`integrand_on_control`, each step evaluated when it is read."""
    time = control.lattice.grid.time
    return _LazySteps(control.lattice.steps,
                      lambda k: np.asarray(integrand(time(k), control[k]), dtype=float))


def window_penalty_process(integrand: PenaltyIntegrand, measure: MeasureChange,
                           sigma: StoppingTime, tau: StoppingTime) -> AdaptedField:
    """The value process R of the window ]]sigma, tau]]; R at sigma is the penalty."""
    sweep = _window_sweep(_integrand_at(integrand, measure.control), measure,
                          between_masks(sigma, tau))
    return AdaptedField(measure.lattice, [v for _, v in sweep][::-1], start=0)


def _window_sweep(cost: Sequence[np.ndarray], measure: MeasureChange,
                  inside: Sequence) -> Iterator[tuple[int, np.ndarray]]:
    """Lazily (k, R_k) for k = N .. 0, given f(t_k, q_k) per step and the window's indicators.

    `inside[k]` flags the step-k nodes whose transition lies in the window: a
    `between_masks` mask, or one bool per step for a deterministic window.
    Masks stacked on a leading axis sweep one window per row.
    """
    lat = measure.lattice

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        charge = cost[k] * lat.dt
        if inside[k] is not True:  # a step wholly inside the window keeps its charge as is
            charge = np.where(inside[k], charge, 0.0)
        return charge + measure.one_step_expectation(k, down, up)

    rows = np.shape(inside[lat.steps - 1])[:-1]  # () for a bool or one mask a step
    return lat.sweep(lat.steps, np.zeros((*rows, lat.node_count(lat.steps))), step)


class PenaltyField:
    """Penalty values c_{k,t}(Q) for k = s..t, nonnegative and zero at the right endpoint.

    Holds the root c_{s,t}; the values of steps s..t are swept again from
    `sweep` (a fresh window sweep of steps N .. 0) the first time `values`
    or `at` reads them, and kept from then on.
    """

    def __init__(self, lattice: Lattice, start: int, stop: int, root: float,
                 sweep: Callable[[], Iterator[tuple[int, np.ndarray]]]):
        self.start = start
        self.stop = stop
        self._lattice = lattice
        self._root = root
        self._sweep = sweep

    @cached_property
    def values(self) -> AdaptedField:
        n = self._lattice.steps
        window = islice(self._sweep(), n - self.stop, n - self.start + 1)
        return AdaptedField(self._lattice, [v for _, v in window][::-1], start=self.start)

    def at(self, step: int) -> np.ndarray:
        return self.values[step]

    def initial(self) -> float:
        """The step-s value at the first node; the unconditional penalty when s = 0."""
        return self._root


def penalty_formula(integrand: PenaltyIntegrand, measure: MeasureChange,
                    start: int, stop: int) -> PenaltyField:
    """Window penalty with deterministic endpoints, as a field of c_{k,stop} values.

    The call sweeps the window once, keeping one step at a time, for the root
    (a NaN raises here); the whole field is built only when it is read.
    """
    lat = measure.lattice
    if not 0 <= start <= stop <= lat.steps:
        raise ValueError(f"need 0 <= start <= stop <= {lat.steps}, got ({start}, {stop})")
    inside = [start <= k < stop for k in range(lat.steps)]

    def sweep() -> Iterator[tuple[int, np.ndarray]]:
        return _window_sweep(_integrand_at(integrand, measure.control), measure, inside)

    root = float(next(v for k, v in sweep() if k == start)[0])
    return PenaltyField(lat, start, stop, root, sweep)


def cocycle_residual(integrand: PenaltyIntegrand, measure: MeasureChange,
                     sigma: StoppingTime, tau: StoppingTime, upsilon: StoppingTime) -> float:
    """Max nodewise residual of the window additivity across sigma <= tau <= upsilon.

    The full-window process must split into the two sub-window processes at
    every node and step, which contains the frontier identity as the special
    case of evaluation at sigma.  Returns +inf if the infinite-penalty node
    sets of the three processes are inconsistent.
    """
    return _cocycle_worst(integrand, measure, [
        np.stack((h | t, h, t))
        for h, t in zip(between_masks(sigma, tau), between_masks(tau, upsilon))])


def _deterministic_cocycle(integrand: PenaltyIntegrand, measure: MeasureChange,
                           start: int, mid: int, stop: int) -> float:
    """`cocycle_residual` at the deterministic times start <= mid <= stop, one bool a step."""
    windows = [[[start <= k < stop], [start <= k < mid], [mid <= k < stop]]
               for k in range(measure.lattice.steps)]
    return _cocycle_worst(integrand, measure, windows)


def _cocycle_worst(integrand: PenaltyIntegrand, measure: MeasureChange, windows: Sequence) -> float:
    """`cocycle_residual` from each step's indicators of the whole window and its two halves."""
    worst = 0.0
    for _, (w, h, t) in _window_sweep(_integrand_at(integrand, measure.control), measure,
                                      windows):
        worst = max(worst, _extended_gap(w, h, t))
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


def _pathwise_cost(control: PredictableControl) -> bool:
    """Whether the accumulated cost A is a node field: full binary tree or deterministic control."""
    return control.lattice.topology is TreeTopology.FULL_BINARY or control.is_deterministic()


def _accumulate(fq: Sequence[np.ndarray], control: PredictableControl) -> IncreasingProcess:
    """The sums behind `accumulated_cost`, given f(t_k, q_k).

    On the recombining tree A_k is one sum a step, spread over the step's nodes when read.
    A non-finite f(t_k, q_k) reaches every later sum through its node's paths,
    so A_N alone decides whether the cost is finite.
    """
    lat = control.lattice
    if not _pathwise_cost(control):
        raise ValueError("accumulated cost is path-dependent: use a full binary tree "
                         "or a deterministic control")
    vals = [np.zeros(1)]
    if lat.topology is TreeTopology.FULL_BINARY:
        for k in range(lat.steps):
            vals.append(lat.push(vals[k] + fq[k] * lat.dt, 1.0, 1.0))
    else:
        sums = [0.0]
        for k in range(lat.steps):
            sums.append(sums[k] + float(fq[k][0]) * lat.dt)
        vals = _LazySteps(lat.steps + 1, lambda k: np.full(lat.node_count(k), sums[k]))
    if not np.all(np.isfinite(vals[-1])):
        raise ValueError("integrand infinite along the control: accumulated cost undefined")
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
    # the recombining tree takes only a deterministic control, whose f(t, q) is evaluated on
    # each read so that the check holds no field
    fq = (integrand_on_control if lat.topology is TreeTopology.FULL_BINARY
          else _integrand_at)(integrand, measure.control)
    acc = _accumulate(fq, measure.control)
    penalty = _window_sweep(fq, measure, [True] * lat.steps)
    expected_tail = lat.sweep(lat.steps, acc.a[lat.steps], measure.one_step_expectation)
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
    dt = first.lattice.dt

    def worst_gap(inc, masks, inside, outside) -> float:
        """Largest gap of the increments from `inside` on the masks and `outside` off them."""
        return max(0.0, *(_extended_gap(f * dt, np.where(mask, f_in, f_out) * dt)
                          for f, mask, f_in, f_out in zip(inc, masks, inside, outside)))

    pasted = paste_controls(first, second, sigma, tau)
    inc_pasted = integrand_on_control(integrand, pasted)
    worst = worst_gap(inc_pasted, between_masks(sigma, tau),
                      integrand_on_control(integrand, second),
                      integrand_on_control(integrand, first))

    restriction_worst = None
    if restriction_level is not None:
        keep = [np.abs(q) <= restriction_level for q in pasted.values]
        restricted = restrict_control(pasted, keep)
        restriction_worst = worst_gap(integrand_on_control(integrand, restricted), keep,
                                      inc_pasted, [0.0] * len(keep))

    passed = worst == 0.0 and (restriction_worst is None or restriction_worst == 0.0)
    return PastingReport(worst, restriction_worst, passed)


def _extended_gap(a: np.ndarray, *parts: np.ndarray) -> float:
    """Max |a - part_1 - part_2 ...|, subtracted left to right, over the finite entries of a.

    Extended reals: +inf must be in a exactly where it is in some part, else the gap is +inf.
    """
    if not np.array_equal(np.isinf(a), np.any(np.isinf(parts), axis=0)):
        return math.inf
    finite = np.isfinite(a)
    gap = reduce(np.subtract, [part[finite] for part in parts], a[finite])
    return float(np.max(np.abs(gap), initial=0.0))


# -- primal oracle ----------------------------------------------------------

ORACLE_MAX_STEPS = 4  # full binary steps the oracle enumerates claims on: 2**4 variables


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
    if lat.steps > ORACLE_MAX_STEPS:
        raise ValueError(f"primal oracle limited to {ORACLE_MAX_STEPS} steps, got {lat.steps}")

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
    cost reaches n; it needs a finite pathwise cost, so it runs on full binary
    trees or deterministic controls of finite penalty and is otherwise skipped.
    """
    lat = control.lattice
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")

    whole = [True] * lat.steps

    def root_penalty(ctrl: PredictableControl, fq: Sequence[np.ndarray] | None = None) -> float:
        sweep = _window_sweep(_integrand_at(integrand, ctrl) if fq is None else fq,
                              density_from_control(ctrl), whole)
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
    # every node has positive probability, so the root is finite exactly when every f(t, q) is
    skipped = not (math.isfinite(full_value) and _pathwise_cost(control))
    if not skipped:
        acc = _accumulate(fq, control)
        max_increment = max(float(np.max(inc)) for inc in acc.increments())
        vals = []
        bound_ok = True
        for n in levels:
            stop_at = hitting_time(lat, [acc.a[k] >= n for k in range(lat.steps + 1)])
            vals.append(root_penalty(stop_control(control, stop_at)))
            # A at tau: its values where tau first stops, reached with no parent reached
            for k, reached in enumerate(stop_at.reached):
                first = reached & ~lat.push(stop_at.reached[k - 1], True, True) if k else reached
                bound_ok &= bool(np.all(acc.a[k][first] <= n + max_increment + 1e-12))
        stopped_values = tuple(vals)
        stopped_monotone = all(b >= a - bsde.TOL_IDENTITY for a, b in zip(vals, vals[1:]))
        stopped_monotone &= all(v <= full_value + bsde.TOL_IDENTITY for v in vals)

    return TruncationReport(levels, gated_values, full_value, monotone, saturated,
                            stopped_values, stopped_monotone, bound_ok, skipped)


# -- pathwise helpers (full binary) ------------------------------------------


def _stopped_process(process, stop: StoppingTime) -> list[np.ndarray]:
    """Freeze a process (its steps 0..N by index) at a stopping time (full binary), step by step.

    The last step is X at tau per path.  A stacked stopping time, or a
    process stacked on a leading axis, freezes one row per trial.
    """
    lat = stop.lattice
    vals = [process[0].copy()]
    for k in range(lat.steps):
        stopped = lat.push(stop.reached[k], True, True)
        vals.append(np.where(stopped, lat.push(vals[k], 1.0, 1.0), process[k + 1]))
    return vals


def _window_utility_at_stop(driver: Driver, claim_frozen: Sequence[np.ndarray],
                            sigma: StoppingTime, tau: StoppingTime) -> np.ndarray:
    """u over the window ]]sigma, tau]] of a claim (steps 0..N) frozen at tau, per path at sigma."""
    lat = sigma.lattice
    utility_step = bsde.driver_step(driver, lat, -1.0, check_radius=False)

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        return np.where(tau.reached[k], claim_frozen[k], utility_step(k, down, up))

    fields = [v for _, v in lat.sweep(lat.steps, claim_frozen[lat.steps], step)]
    return _stopped_process(fields[::-1], sigma)[lat.steps]


# -- supermartingale / appendix suite ----------------------------------------


def _random_stopping_pairs(lattice: Lattice, rng: np.random.Generator,
                           count: int) -> tuple[StoppingTime, StoppingTime]:
    """`count` ordered pairs sigma <= tau, stacked one pair per row.

    Each pair draws two random times a, b in turn; a time is a deterministic
    step, the first exit of the walk from a random band, or the first hit of
    a random node set, and (sigma, tau) = (a min b, a max b).  All events
    are drawn first, then one stacked `hitting_time` builds every time.
    """
    steps = lattice.steps
    sizes = [lattice.node_count(k) for k in range(steps + 1)]
    step_of = np.repeat(np.arange(steps + 1), sizes)
    levels = None
    events = np.empty((2 * count, step_of.size), dtype=bool)
    for event in events:
        kind = int(rng.integers(3))
        if kind == 0:
            np.greater_equal(step_of, int(rng.integers(steps + 1)), out=event)
        elif kind == 1:
            if levels is None:
                levels = np.abs(np.concatenate([lattice.level_values(k) for k in range(steps + 1)]))
            np.greater_equal(levels, float(rng.uniform(0.3, 2.0)) * math.sqrt(lattice.horizon),
                             out=event)
        else:
            # one draw of all steps is the draws step by step; step 0 is never hit
            p = float(rng.uniform(0.02, 0.25))
            np.less(rng.uniform(size=step_of.size), p, out=event)
            event[0] = False
    starts = np.cumsum([0] + sizes)
    both = hitting_time(lattice, [events[:, lo:hi] for lo, hi in zip(starts, starts[1:])]).reached
    return (StoppingTime._trusted(lattice, [m[0::2] | m[1::2] for m in both]),
            StoppingTime._trusted(lattice, [m[0::2] & m[1::2] for m in both]))


def random_stopping_pair(lattice: Lattice, rng: np.random.Generator) -> tuple[StoppingTime, StoppingTime]:
    """An ordered pair sigma <= tau of stopping times, via the min/max combinators."""
    return tuple(StoppingTime._trusted(lattice, [m[0] for m in stop.reached])
                 for stop in _random_stopping_pairs(lattice, rng, 1))


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

    inequality = bsde.CheckStat("supermartingale")
    bound = bsde.CheckStat("near_optimal_bound", worst=-math.inf)

    oracle_part = driver is not None and lat.topology is TreeTopology.FULL_BINARY
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
        acceptance_residual = 0.0

    # ]]sigma, N]] is sigma.reached, and each drawn pair is ordered sigma <= tau
    fq = integrand_on_control(integrand, measure.control)
    for block in _trial_blocks(trials, 2 * node_total(lat.topology, lat.steps)):
        sigma, tau = _random_stopping_pairs(lat, rng, len(block))
        rows = len(block)
        # every trial's window from sigma, then every trial's from tau, as rows of one sweep
        both = [np.concatenate((s, t)) for s, t in zip(sigma.reached, tau.reached)]
        for _, r in _window_sweep(fq, measure, both):
            a, b = r[:rows], r[rows:]
            finite = np.isfinite(a) & np.isfinite(b)
            gaps = np.subtract(b, a, out=np.full(a.shape, -np.inf), where=finite)
            inequality.record_many(np.max(gaps, axis=-1)[np.any(finite, axis=-1)],
                                   bsde.TOL_IDENTITY)

        if oracle_part:
            window = _window_sweep(fq, measure, between_masks(sigma, tau))
            window_root = next(v for k, v in window if k == 0)[:, 0]
            sigma_frozen = _stopped_process(u_process, sigma)
            frozen = _stopped_process(u_process, tau)
            u_tau = frozen[lat.steps]
            below = sigma_frozen[lat.steps] - u_tau
            # one dot product a row: a matrix product may sum in another order
            lemma_bound = np.array([float(weights @ row) for row in below]) + eps
            bound.record_many(window_root - lemma_bound, bsde.TOL_IDENTITY)

            # xi - u_tau(xi) is acceptable over [tau, T]: utility zero at tau.
            tail_u = [v for _, v in lat.sweep(lat.steps, acceptable_claim - u_tau,
                                              bsde.driver_step(driver, lat, -1.0))]
            res = np.max(np.abs(_stopped_process(tail_u[::-1], tau)[lat.steps]), axis=-1)
            # u_tau(xi) - u_sigma(xi) is acceptable over [sigma, tau].
            middle_claim = [f - s for f, s in zip(frozen, sigma_frozen)]
            res = np.maximum(res, np.max(np.abs(
                _window_utility_at_stop(driver, middle_claim, sigma, tau)), axis=-1))
            acceptance_residual = max(acceptance_residual, float(np.max(res)))

    return SupermartingaleReport(
        trials=trials,
        inequality_violations=inequality.violations,
        inequality_worst=inequality.worst,
        lemma_bound_violations=bound.violations if oracle_part else None,
        lemma_bound_worst=bound.worst if oracle_part and bound.worst > -math.inf else None,
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
