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
from .lattice import AdaptedField, Lattice, NodeId, TreeTopology, field_max

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
    `utility_solution`; the terminal step reproduces the claim.
    """

    y: AdaptedField
    driver: Driver

    @cached_property
    def z(self) -> AdaptedField | None:
        """The increment field, derived from y with the sweep's own arithmetic; None at t = 0."""
        lattice = self.y.lattice
        zs = []
        for k in range(self.y.stop):
            down, up = lattice.child_values(self.y[k + 1])
            zs.append(lattice.increment(down, up))
        return AdaptedField(lattice, zs, start=0) if zs else None


def driver_step(driver: Driver, lattice: Lattice, sign: float, *, check_radius: bool = True):
    """The sweep step y_k = mean + sign * g(t_k, sign * z_k) dt.

    sign = +1 is the g-expectation, sign = -1 the utility -E_g(-claim) stepped on
    the claim itself: negation is exact, so this is negate-solve-negate bit for
    bit.  A radius breach reports the z handed to the driver.
    """
    scale = sign * lattice.dt

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        z = lattice.increment(down, up)
        arg = z if sign > 0 else -z
        if check_radius and np.any(np.abs(z) > driver.validity_radius):
            idx = int(np.argmax(np.abs(z)))
            raise ValidityRadiusError(NodeId(k, idx), float(arg[idx]), driver.validity_radius)
        return (up + down) / 2.0 + np.asarray(driver(lattice.grid.time(k), arg), dtype=float) * scale

    return step


def _solution(driver: Driver, terminal: AdaptedField, sign: float) -> BsdeSolution:
    lattice = terminal.lattice
    step = driver_step(driver, lattice, sign)
    ys = [y for _, y in lattice.sweep(terminal.start, terminal.bounded_values().copy(), step)]
    return BsdeSolution(y=AdaptedField(lattice, ys[::-1], start=0), driver=driver)


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


def conditional_g_expectation(driver: Driver, terminal: AdaptedField, step: int) -> AdaptedField:
    return _value_at(driver, terminal, 1.0, step)


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
        self.trials += 1
        self.worst = max(self.worst, margin)
        if margin > tol:
            self.violations += 1

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

    def u_process(vec: np.ndarray) -> AdaptedField:
        return utility_solution(driver, AdaptedField(lattice, [vec], start=lattice.steps)).y

    u_zero = u_process(np.zeros(n_term))
    checks["zero_normalisation"].record(field_max(np.abs, u_zero), TOL_IDENTITY)

    for _ in range(trials):
        xi = rng.uniform(-claim_bound, claim_bound, size=n_term)
        eta = rng.uniform(-claim_bound, claim_bound, size=n_term)
        u_xi = u_process(xi)
        u_eta = u_process(eta)

        # normalisation, randomized through constancy: u(c) = c contains u(0) = 0.
        const = float(rng.uniform(-claim_bound, claim_bound))
        u_const = u_process(np.full(n_term, const))
        checks["zero_normalisation"].record(
            field_max(lambda v: np.abs(v - const), u_const), TOL_IDENTITY)

        # (a) monotonicity: adding a nonnegative claim never lowers the utility.
        bump = rng.uniform(0.0, claim_bound, size=n_term)
        u_higher = u_process(xi + bump)
        checks["monotonicity"].record(field_max(np.subtract, u_xi, u_higher), TOL_INEQUALITY)

        # strict version: one strictly better terminal atom moves the root value.
        atom = int(rng.integers(n_term))
        spike = np.zeros(n_term)
        spike[atom] = 0.25 * claim_bound
        gain = float(u_process(xi + spike).values[0][0] - u_xi.values[0][0])
        checks["strict_monotonicity"].record(0.0 if gain > 0.0 else 1.0, 0.5)

        # (b) translation invariance for a claim measurable at a random step.
        k = int(rng.integers(1, lattice.steps))
        shift = rng.uniform(-claim_bound, claim_bound, size=lattice.node_count(k))
        lifted = shift[lattice.terminal_ancestors(k)]
        u_shifted = u_process(xi + lifted)
        worst = 0.0
        shift_at_j = shift
        for j in range(k, lattice.steps + 1):
            if j > k:
                shift_at_j = lattice.push(shift_at_j, 1.0, 1.0)
            worst = max(worst, float(np.max(np.abs(u_shifted[j] - u_xi[j] - shift_at_j))))
        checks["translation_invariance"].record(worst, TOL_IDENTITY)

        # (c) concavity at a random mixing weight.
        alpha = float(rng.uniform(0.0, 1.0))
        u_mix = u_process(alpha * xi + (1.0 - alpha) * eta)
        short = field_max(lambda a, b, m: alpha * a + (1.0 - alpha) * b - m, u_xi, u_eta, u_mix)
        checks["concavity"].record(short, TOL_INEQUALITY)

        # domination: u(xi + eta) - u(xi) <= E^mu(eta) node by node.
        u_sum = u_process(xi + eta)
        dom = solve(dominating, AdaptedField(lattice, [eta], start=lattice.steps)).y
        excess = field_max(lambda s, a, d: s - a - d, u_sum, u_xi, dom)
        checks["domination"].record(excess, TOL_INEQUALITY)

        # (g) local property: mixing along a step-k event mixes the utilities.
        event = rng.uniform(size=lattice.node_count(k)) < 0.5
        event_lift = event[lattice.terminal_ancestors(k)]
        u_mixed = u_process(np.where(event_lift, xi, eta))[k]
        expected = np.where(event, u_xi[k], u_eta[k])
        checks["local_property"].record(float(np.max(np.abs(u_mixed - expected))), TOL_IDENTITY)

        # (f) time consistency: restart the solve from the step-k utility field.
        mid_claim = AdaptedField(lattice, [u_xi[k].copy()], start=k)
        restarted = utility_solution(driver, mid_claim).y
        drift = field_max(lambda r, u: np.abs(r - u), restarted, u_xi)  # restarted: steps 0..k
        checks["time_consistency"].record(drift, TOL_IDENTITY)

        if driver.positively_homogeneous:
            lam = float(rng.uniform(0.1, 3.0))
            u_scaled = u_process(lam * xi)
            gap = field_max(lambda s, a: np.abs(s - lam * a), u_scaled, u_xi)
            checks["positive_homogeneity"].record(gap, TOL_IDENTITY * max(1.0, lam))

    return AxiomSuiteReport(driver.name, trials, checks)
