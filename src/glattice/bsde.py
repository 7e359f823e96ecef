"""Backward dynamic programming: discrete g-expectations and concave utilities.

The one-step scheme is explicit because the drivers never depend on the value
level: z comes from the conditional increment covariance, then the driver is
evaluated once.  Every identity downstream (duality, penalty representation,
axioms) is exact for this scheme up to float roundoff; discretisation error
enters only through dt when comparing against continuous-time closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .drivers import Driver, abs_scaled
from .lattice import (AdaptedField, Lattice, NodeId, TreeTopology, _LazySteps, _swept_steps,
                      _trial_blocks, field_max, node_total)

UtilityOperator = Callable[[AdaptedField, int], AdaptedField]


class ValidityRadiusError(ValueError):
    """An encountered z left the driver's declared validity range."""

    def __init__(self, node: NodeId, z_value: float, radius: float):
        self.node = node
        self.z_value = z_value
        self.radius = radius
        super().__init__(
            f"driver validity radius breached at {node}: |z| = {abs(z_value):.6g} > {radius:.6g}"
        )


@dataclass
class BsdeSolution:
    """Value field y over steps 0..t and the derived increment field z over 0..t-1.

    At every node y_k = (y_up + y_down)/2 + s g(t_k, s z_k) dt with
    z_k = (y_up - y_down) / (2 sqrt(dt)), s = +1 for `solve` and s = -1 for
    `utility_solution`; the terminal step reproduces the claim.  `solve` and
    `utility_solution` keep y at checkpoints (`lattice._swept_steps`) and
    sweep a step again when it is read; every array of y is read-only.
    """

    y: AdaptedField
    driver: Driver

    @cached_property
    def z(self) -> AdaptedField | None:
        """The increment field, from y by the sweep's own arithmetic when read; None at t = 0."""
        lattice = self.y.lattice
        zs = _LazySteps(self.y.stop, lambda k: lattice.increment(*lattice.child_values(self.y[k + 1])))
        return AdaptedField(lattice, zs, start=0) if len(zs) else None


def driver_step(driver: Driver, lattice: Lattice, sign: float, *, check_radius: bool = True):
    """The sweep step y_k = mean + sign * g(t_k, sign * z_k) dt.

    sign = +1 is the g-expectation, sign = -1 the utility -E_g(-claim) stepped on
    the claim itself: negation is exact, so this is negate-solve-negate bit for
    bit.  A radius breach reports the z handed to the driver and its node (the
    node within its row when claims are stacked on a leading axis).
    """
    scale = sign * lattice.dt
    radius = driver.validity_radius if check_radius else np.inf

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        arg = lattice._signed_increment(down, up, sign)
        # fmax skips NaN, as the test |z| > radius does
        if radius < np.inf and np.fmax.reduce(size := np.abs(arg), axis=None) > radius:
            flat = int(np.argmax(size))
            raise ValidityRadiusError(NodeId(k, flat % arg.shape[-1]), float(arg.flat[flat]), radius)
        return (up + down) * 0.5 + np.asarray(driver(lattice.grid.time(k), arg), dtype=float) * scale

    return step


def _solution(driver: Driver, terminal: AdaptedField, sign: float) -> BsdeSolution:
    lattice = terminal.lattice
    # a re-sweep repeats, bit for bit, the arithmetic whose radius the first sweep checked
    ys = _swept_steps(lattice, terminal.start, terminal.bounded_values().copy(),
                      driver_step(driver, lattice, sign),
                      again=driver_step(driver, lattice, sign, check_radius=False))
    return BsdeSolution(y=AdaptedField(lattice, ys, start=0), driver=driver)


def _value_at(driver: Driver, terminal: AdaptedField, sign: float, step: int) -> AdaptedField:
    """One step of the solution, swept down to that step only."""
    if not 0 <= step <= terminal.start:
        raise ValueError(f"step {step} outside [0, {terminal.start}]")
    lattice = terminal.lattice
    sweep = lattice.sweep(terminal.start, terminal.bounded_values().copy(),
                          driver_step(driver, lattice, sign))
    return AdaptedField(lattice, [next(y for k, y in sweep if k == step)], start=step)


def solve(driver: Driver, terminal: AdaptedField) -> BsdeSolution:
    """Backward sweep from a single-step terminal claim down to step 0."""
    return _solution(driver, terminal, 1.0)


def g_expectation(driver: Driver, terminal: AdaptedField) -> float:
    """Root value of the backward solution: the nonlinear expectation of the claim."""
    return float(_value_at(driver, terminal, 1.0, 0)[0][0])


def utility_solution(driver: Driver, terminal: AdaptedField) -> BsdeSolution:
    """Concave utility process u = -E_g(-claim | .) over all steps, by the mirrored step."""
    return _solution(driver, terminal, -1.0)


def utility(driver: Driver, terminal: AdaptedField, step: int) -> AdaptedField:
    return _value_at(driver, terminal, -1.0, step)


def make_utility_operator(driver: Driver) -> UtilityOperator:
    """Black-box conditional utility: (claim at step t, step s) -> value field at s."""

    def op(claim: AdaptedField, at_step: int) -> AdaptedField:
        return utility(driver, claim, at_step)

    return op


def recover_driver(utility_op: UtilityOperator, lattice: Lattice, z: float, step: int) -> float:
    """Read the driver off a black-box utility through a one-step window.

    The claim -z*B_{step+1} is a node field on either topology; subtracting
    the translation by the step-measurable -z*B_step isolates the increment
    claim, and one backward step of the utility then returns exactly
    g(t_step, z) * dt for utilities built from a driver g.
    """
    if not 0 <= step < lattice.steps:
        raise ValueError(f"need a one-step window inside the grid, got step {step}")
    claim = AdaptedField(lattice, [-z * lattice.level_values(step + 1)], start=step + 1)
    vals = utility_op(claim, step)[step]
    recovered = -(vals + z * lattice.level_values(step)) / lattice.dt
    return float(recovered[0])


# -- randomized axiom suite -------------------------------------------------

TOL_INEQUALITY = 1e-10
TOL_IDENTITY = 1e-12


@dataclass
class CheckStat:
    name: str
    trials: int = 0
    violations: int = 0
    worst: float = 0.0

    def record(self, margin: float, tol: float):
        # margin <= tol means the check held; positive margins measure violation.
        self.record_many(np.array([margin], dtype=float), tol)

    def record_many(self, margins: np.ndarray, tol) -> None:
        """`record` each margin in order (`tol` scalar or one per margin).

        `worst` ends as the fold worst = max(worst, margin) leaves it: the
        first margin equal to the largest one that rises above it (so of
        0.0 and -0.0 the earlier), NaN never.
        """
        self.trials += margins.size
        self.violations += int(np.count_nonzero(margins > tol))
        rises = margins > self.worst
        if np.any(rises):
            self.worst = float(margins[np.argmax(margins == np.max(margins[rises]))])

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class AxiomSuiteReport:
    driver_name: str
    trials: int
    checks: dict[str, CheckStat]

    @property
    def passed(self) -> bool:
        return all(stat.passed for stat in self.checks.values())

    def summary(self) -> str:
        lines = [f"axiom suite for {self.driver_name}: "
                 f"{'PASS' if self.passed else 'FAIL'} ({self.trials} trials)"]
        for stat in self.checks.values():
            lines.append(f"  {stat.name:<24} violations={stat.violations:<4} worst={stat.worst:.3e}")
        return "\n".join(lines)


def axiom_suite(driver: Driver, lattice: Lattice, *, trials: int, seed: int,
                claim_bound: float = 1.0, domination_lipschitz: float | None = None) -> AxiomSuiteReport:
    """Randomized verification of the utility axioms on a full binary lattice.

    Checks per trial: monotonicity (with a strict-inequality probe),
    translation invariance for step-measurable shifts, concavity, the zero
    normalisation, domination by the scaled-norm expectation, the local
    property, time consistency via solve restart, and positive homogeneity
    for positively homogeneous drivers.  Inequalities use tolerance 1e-10;
    lattice-exact identities use 1e-12.  Violations are reported, not raised.

    Each trial draws its random numbers in a fixed order; blocks of trials
    (`lattice.BATCH_NODES`) then solve all their claims as the rows of one
    utility sweep, beside one sweep of the dominating expectation, and
    reduce every margin per step as the sweeps run.
    """
    if lattice.topology is not TreeTopology.FULL_BINARY:
        raise ValueError("the randomized axiom suite needs the full binary topology "
                         "(step-measurable claims must lift to the terminal step)")
    rng = np.random.default_rng(seed)
    n_term = lattice.node_count(lattice.steps)
    mu = domination_lipschitz if domination_lipschitz is not None else driver.lipschitz
    if mu is None:
        raise ValueError("domination check needs a Lipschitz constant")
    dominating = abs_scaled(mu)

    names = ["monotonicity", "strict_monotonicity", "translation_invariance", "concavity",
             "zero_normalisation", "domination", "local_property", "time_consistency"]
    if driver.positively_homogeneous:
        names.append("positive_homogeneity")
    checks = {n: CheckStat(n) for n in names}

    u_zero = utility_solution(driver, AdaptedField(lattice, [np.zeros(n_term)],
                                                   start=lattice.steps)).y
    checks["zero_normalisation"].record(field_max(np.abs, u_zero), TOL_IDENTITY)

    tolerance = {**dict.fromkeys(names, TOL_IDENTITY), "strict_monotonicity": 0.5,
                 **dict.fromkeys(("monotonicity", "concavity", "domination"), TOL_INEQUALITY)}
    claims_per_trial = 9 + driver.positively_homogeneous
    for block in _trial_blocks(trials, claims_per_trial * node_total(lattice.topology,
                                                                     lattice.steps)):
        draws = _AxiomDraws(lattice, rng, len(block), claim_bound,
                            driver.positively_homogeneous)
        if driver.positively_homogeneous:
            tolerance["positive_homogeneity"] = TOL_IDENTITY * np.maximum(1.0, draws.lam)
        for name, margins in _axiom_margins(driver, dominating, lattice, draws).items():
            checks[name].record_many(margins, tolerance[name])

    return AxiomSuiteReport(driver.name, trials, checks)


class _AxiomDraws:
    """The random numbers of `count` axiom trials, drawn trial by trial, one row each.

    A step-k shift or event is kept lifted to the terminal step, where its
    value at a step-j node (j >= k) sits every 2**(N - j) entries.
    """

    def __init__(self, lattice: Lattice, rng: np.random.Generator, count: int,
                 bound: float, homogeneous: bool):
        n = lattice.node_count(lattice.steps)
        self.xi, self.eta, bump, self.lifted = (np.empty((count, n)) for _ in range(4))
        self.event_lift = np.empty((count, n), dtype=bool)
        self.const, self.alpha, self.lam = np.empty(count), np.empty(count), np.ones(count)
        atom, self.k = np.empty(count, dtype=int), np.empty(count, dtype=int)
        for i in range(count):
            self.xi[i] = rng.uniform(-bound, bound, size=n)
            self.eta[i] = rng.uniform(-bound, bound, size=n)
            self.const[i] = rng.uniform(-bound, bound)
            bump[i] = rng.uniform(0.0, bound, size=n)
            atom[i] = rng.integers(n)
            k = self.k[i] = int(rng.integers(1, lattice.steps))
            ancestors = lattice.terminal_ancestors(k)
            self.lifted[i] = rng.uniform(-bound, bound, size=lattice.node_count(k))[ancestors]
            self.alpha[i] = rng.uniform(0.0, 1.0)
            self.event_lift[i] = (rng.uniform(size=lattice.node_count(k)) < 0.5)[ancestors]
            if homogeneous:
                self.lam[i] = rng.uniform(0.1, 3.0)
        spike = np.zeros((count, n))
        spike[np.arange(count), atom] = 0.25 * bound  # one strictly better terminal atom
        xi, eta = self.xi, self.eta
        alpha = self.alpha[:, None]
        # (claim, trial, node), in the order `_axiom_margins` unpacks the utilities
        self.claims = np.stack([xi, eta, np.repeat(self.const[:, None], n, axis=1),
                                xi + bump, xi + spike, xi + self.lifted,
                                alpha * xi + (1.0 - alpha) * eta, xi + eta,
                                np.where(self.event_lift, xi, eta)]
                               + ([self.lam[:, None] * xi] if homogeneous else []))


def _axiom_margins(driver: Driver, dominating: Driver, lattice: Lattice,
                   draws: _AxiomDraws) -> dict[str, np.ndarray]:
    """Every axiom check's margin per trial, reduced step by step over the sweeps."""
    steps = lattice.steps
    count = draws.xi.shape[0]
    alpha, const, lam = draws.alpha[:, None], draws.const[:, None], draws.lam[:, None]
    utility_step = driver_step(driver, lattice, -1.0)
    sweep = lattice.sweep(steps, draws.claims.reshape(-1, draws.claims.shape[-1]), utility_step)
    dominated = lattice.sweep(steps, draws.eta, driver_step(dominating, lattice, 1.0))

    margins = {name: np.full(count, -np.inf) for name in
               ("zero_normalisation", "monotonicity", "concavity", "domination")}
    if driver.positively_homogeneous:
        margins["positive_homogeneity"] = np.full(count, -np.inf)
    shifted, local, drift = np.zeros(count), np.zeros(count), np.zeros(count)
    restarts = []  # (trials, sweep restarted at their step k from u(xi)_k)

    def fold(name: str, gaps: np.ndarray):
        np.maximum(margins[name], np.max(gaps, axis=-1), out=margins[name])

    for (j, values), (_, dom) in zip(sweep, dominated):
        u_xi, u_eta, u_const, u_higher, u_spiked, u_shifted, u_mix, u_sum, u_mixed, *u_scaled = \
            values.reshape(len(draws.claims), count, -1)
        # u(c) = c contains u(0) = 0; adding a nonnegative claim never lowers u
        fold("zero_normalisation", np.abs(u_const - const))
        fold("monotonicity", u_xi - u_higher)
        fold("concavity", alpha * u_xi + (1.0 - alpha) * u_eta - u_mix)
        # u(xi + eta) - u(xi) <= E^mu(eta) node by node
        fold("domination", u_sum - u_xi - dom)
        if u_scaled:
            fold("positive_homogeneity", np.abs(u_scaled[0] - lam * u_xi))
        # a step-k shift passes through u from step k on
        stride = 2 ** (steps - j)
        gap = np.max(np.abs(u_shifted - u_xi - draws.lifted[:, ::stride]), axis=-1)
        np.maximum(shifted, np.where(draws.k <= j, gap, 0.0), out=shifted)

        # time consistency: the solve restarted at step k from u(xi)_k is u(xi) below k
        for trials, restarted in restarts:
            _, again = next(restarted)
            drift[trials] = np.maximum(drift[trials], np.max(np.abs(again - u_xi[trials]), axis=-1))
        at_k = np.flatnonzero(draws.k == j)
        if at_k.size:  # local property: mixing along a step-k event mixes the utilities
            expected = np.where(draws.event_lift[at_k, ::stride], u_xi[at_k], u_eta[at_k])
            local[at_k] = np.max(np.abs(u_mixed[at_k] - expected), axis=-1)
            restarted = lattice.sweep(j, u_xi[at_k], utility_step)
            next(restarted)  # the restart's own step k is u(xi)_k itself: drift 0
            restarts.append((at_k, restarted))
        if j == 0:
            gain = u_spiked[:, 0] - u_xi[:, 0]
            margins["strict_monotonicity"] = np.where(gain > 0.0, 0.0, 1.0)

    margins.update(translation_invariance=shifted, local_property=local, time_consistency=drift)
    return margins
