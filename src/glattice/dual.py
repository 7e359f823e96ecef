"""Dual representation of the utility: backward min over drift controls.

Each backward step minimises  p_q * u_up + (1 - p_q) * u_down + f(t, q) dt
over admissible q, with p_q = (1 + q sqrt(dt))/2.  Writing the objective as
mean + dt * (q z + f(t, q)) with z the increment field shows the step equals
the driver recursion whenever f is the driver's conjugate, which is what the
duality-gap check certifies node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import PenaltyIntegrand, fenchel, truncate_integrand
from .drivers import Driver
from .lattice import AdaptedField, Lattice, NodeId, PredictableControl, _LazySteps
from . import bsde

ADMISSIBILITY_MARGIN = 1e-6
GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class DualSolution:
    """Value field, the minimising control, and flags where admissibility bound.

    `clamped[k]` marks step-k nodes where the discrete admissibility bound
    |q| < (1 - margin)/sqrt(dt) restricted the minimiser; the continuous-time
    representation has no such bound, so clamping is surfaced, not hidden.
    """

    u: AdaptedField
    argmin_control: PredictableControl
    clamped: Sequence[np.ndarray]
    integrand: PenaltyIntegrand

    @property
    def any_clamped(self) -> bool:
        return any(bool(np.any(c)) for c in self.clamped)


def _vector_golden_min(objective, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Minimise a convex vectorised objective independently per component.

    `objective` gets both probe points at once, c and d concatenated, so it
    must be elementwise and accept twice the components of `lo`; the buffer
    it gets is overwritten on the next call.
    """
    span = float(np.max(hi - lo))
    if span <= tol:
        return (lo + hi) / 2.0
    iters = max(1, int(math.ceil(math.log(tol / span) / math.log(_INVPHI))))
    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    half = a.shape[0]
    probes = np.empty(2 * half)
    c, d = probes[:half], probes[half:]
    for _ in range(iters):
        shift = _INVPHI * (b - a)
        np.subtract(b, shift, out=c)
        np.add(a, shift, out=d)
        both = objective(probes)
        keep_left = both[:half] < both[half:]
        np.copyto(b, d, where=keep_left)
        np.copyto(a, c, where=~keep_left)
    return (a + b) / 2.0


def _clip_bound(lattice: Lattice) -> float:
    """The admissibility bound (1 - margin)/sqrt(dt) that every minimiser's q lies within."""
    return (1.0 - ADMISSIBILITY_MARGIN) / lattice.sqrt_dt


def _step_minimizer(integrand: PenaltyIntegrand, lattice: Lattice):
    """(k, z) -> (q, clamped), q minimising q z + f(t_k, q) over admissible q.

    q is the integrand's analytic minimiser clipped to the admissibility bound
    when it has one, else a golden-section search on the admissible interval.
    """
    bound = _clip_bound(lattice)
    dom = integrand.domain_radius
    if dom == 0.0 and not integrand.zero_at_origin:
        raise ValueError("integrand has empty admissible domain")  # defensive: f(0)=0 rules this out

    def minimize(k: int, zed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = lattice.grid.time(k)
        if integrand.step_minimizer is not None:
            free = np.asarray(integrand.step_minimizer(t, zed), dtype=float)
            q = np.clip(free, -bound, bound)
            return q, q != free
        lo = np.full_like(zed, max(-dom, -bound))
        hi = np.full_like(zed, min(dom, bound))
        zed_twice = np.concatenate((zed, zed))

        def objective(qq):
            return qq * zed_twice + np.asarray(integrand(t, qq), dtype=float)

        q = _vector_golden_min(objective, lo, hi, GOLDEN_TOL)
        return q, np.abs(q) >= bound - 2.0 * GOLDEN_TOL

    return minimize


def dual_step(integrand: PenaltyIntegrand, lattice: Lattice, record=None):
    """The sweep step u_k = mean + (q z_k + f(t_k, q)) dt, q the one-step minimiser.

    Each step reports `record(k, q, clamped)`.
    """
    dt = lattice.dt
    minimize = _step_minimizer(integrand, lattice)

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        zed = lattice.increment(down, up)
        mean = (up + down) * 0.5
        q, clamp = minimize(k, zed)
        fv = np.asarray(integrand(lattice.grid.time(k), q), dtype=float)
        if not np.all(np.isfinite(fv)):
            bad = int(np.flatnonzero(~np.isfinite(fv))[0])
            raise ValueError(f"integrand infinite at its own minimiser, {NodeId(k, bad)}; "
                             "the analytic minimiser must respect the effective domain")
        if record is not None:
            record(k, q, clamp)
        return mean + (q * zed + fv) * dt

    return step


def dual_utility(integrand: PenaltyIntegrand, terminal: AdaptedField) -> DualSolution:
    """Backward min-over-controls recursion for the penalised worst-case value.

    A step of the control read is minimised again from u_{k+1}, bitwise the
    sweep's q, and is zero beyond the claim.  The sweep tallies each step's
    clamped nodes: the flags of a step with none read as zeros, unminimised.
    """
    lattice = terminal.lattice
    tally = np.zeros(lattice.steps, dtype=np.int64)
    step = dual_step(integrand, lattice, lambda k, q, clamp: np.put(tally, k, np.count_nonzero(clamp)))
    us = [u for _, u in lattice.sweep(terminal.start, terminal.bounded_values().copy(), step)]
    u = AdaptedField(lattice, us[::-1], start=0)
    minimize = _step_minimizer(integrand, lattice)

    def minimizer(k: int) -> tuple[np.ndarray, np.ndarray]:
        nodes = lattice.node_count(k)
        if k >= terminal.start:
            return np.zeros(nodes), np.zeros(nodes, dtype=bool)
        return minimize(k, lattice.increment(*lattice.child_values(u[k + 1])))

    both = _LazySteps(lattice.steps, minimizer)  # the control and its flags share one minimiser
    control = PredictableControl._clipped(lattice, _LazySteps(lattice.steps, lambda k: both[k][0]),
                                          _clip_bound(lattice))
    flags = _LazySteps(lattice.steps, lambda k: both[k][1] if tally[k]
                       else np.zeros(lattice.node_count(k), dtype=bool))
    return DualSolution(u=u, argmin_control=control, clamped=flags, integrand=integrand)


def compare_prices(driver: Driver, integrand: PenaltyIntegrand,
                   terminal: AdaptedField) -> tuple[float, float, float, float, int]:
    """(primal root, dual root, max nodewise |gap|, dual root control, clamped nodes).

    The utility's driver step and the dual step run in lock step, in O(N) memory.
    """
    vec = terminal.bounded_values()
    lattice = terminal.lattice
    tally: list[tuple[float, int]] = []  # (control at node 0, clamped nodes), step 0 last
    step = dual_step(integrand, lattice,
                     lambda k, q, clamp: tally.append((float(q[0]), int(np.count_nonzero(clamp)))))
    primal = lattice.sweep(terminal.start, vec.copy(), bsde.driver_step(driver, lattice, -1.0))
    gap = 0.0
    for (_, y), (_, u) in zip(primal, lattice.sweep(terminal.start, vec.copy(), step)):
        gap = max(gap, float(np.max(np.abs(y - u))))
    return (float(y[0]), float(u[0]), gap, tally[-1][0] if tally else 0.0,
            sum(count for _, count in tally))


def duality_gap(driver: Driver, terminal: AdaptedField) -> float:
    """Max nodewise gap between the driver recursion and the dual recursion."""
    return compare_prices(driver, fenchel(driver), terminal)[2]


def truncated_utility(integrand: PenaltyIntegrand, terminal: AdaptedField, level: float) -> DualSolution:
    """Dual value restricted to controls gated at |q| <= level."""
    return dual_utility(truncate_integrand(integrand, level), terminal)


@dataclass
class MonotoneUtilityReport:
    levels: tuple[float, ...]
    decreasing: bool
    saturates: bool
    worst_order_violation: float
    worst_saturation_gap: float

    @property
    def passed(self) -> bool:
        return self.decreasing and self.saturates


def monotone_utility_check(integrand: PenaltyIntegrand, terminal: AdaptedField,
                           levels: Sequence[float]) -> MonotoneUtilityReport:
    """Gated utilities decrease in the gate level and saturate at the full value.

    Larger gates enlarge the feasible set of the nodewise min, so the fields
    decrease exactly; once a level covers the integrand's domain the gated
    recursion performs identical arithmetic and the gap collapses to zero.
    The ungated recursion is swept only then: with no level reaching the
    domain radius the saturation gap is reported as +inf without it.
    """
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    lattice = terminal.lattice
    saturating = bool(levels) and levels[-1] >= integrand.domain_radius
    claim = terminal.bounded_values()
    integrands = [truncate_integrand(integrand, n) for n in levels] + ([integrand] if saturating else [])
    sweeps = [lattice.sweep(terminal.start, claim.copy(), dual_step(f, lattice)) for f in integrands]
    worst_order, worst_sat = 0.0, (0.0 if saturating else math.inf)
    for step in zip(*sweeps):
        us = [u for _, u in step]
        gated = us[:len(levels)]
        for lowgate, highgate in zip(gated, gated[1:]):
            worst_order = max(worst_order, float(np.max(highgate - lowgate)))
        if saturating:
            worst_sat = max(worst_sat, float(np.max(np.abs(gated[-1] - us[-1]))))
    return MonotoneUtilityReport(
        levels=levels,
        decreasing=worst_order <= bsde.TOL_IDENTITY,
        saturates=worst_sat <= bsde.TOL_IDENTITY,
        worst_order_violation=worst_order,
        worst_saturation_gap=worst_sat,
    )


def first_order_optimality(solution: DualSolution) -> float:
    """Worst improvement found by perturbing the minimiser by +-1e-4.

    Clamped nodes are skipped (the perturbation leaves the admissible range);
    perturbations landing outside the effective domain cost +inf and never
    improve, so they need no special casing.
    """
    lattice = solution.u.lattice
    worst = -math.inf
    for k in range(solution.u.stop):
        down, up = lattice.child_values(solution.u[k + 1])
        zed = lattice.increment(down, up)
        t = lattice.grid.time(k)
        q = solution.argmin_control[k]
        base = q * zed + np.asarray(solution.integrand(t, q), dtype=float)
        free = ~solution.clamped[k]
        if not np.any(free):
            continue
        shifted = np.concatenate((q - 1e-4, q + 1e-4))  # both probes in one elementwise call
        vals = shifted * np.tile(zed, 2) + np.asarray(solution.integrand(t, shifted), dtype=float)
        with np.errstate(invalid="ignore"):
            improvement = (base - vals.reshape(2, -1))[:, free]
        improvement = improvement[np.isfinite(improvement)]
        if improvement.size:
            worst = max(worst, float(np.max(improvement)))
    return 0.0 if worst == -math.inf else max(worst, 0.0)
