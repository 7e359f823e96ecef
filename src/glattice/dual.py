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
from .lattice import AdaptedField, NodeId, PredictableControl, field_max
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
    clamped: list[np.ndarray]
    integrand: PenaltyIntegrand

    @property
    def any_clamped(self) -> bool:
        return any(bool(np.any(c)) for c in self.clamped)


def _vector_golden_min(objective, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Minimise a convex vectorised objective independently per component."""
    span = float(np.max(hi - lo))
    if span <= tol:
        return (lo + hi) / 2.0
    iters = max(1, int(math.ceil(math.log(tol / span) / math.log(_INVPHI))))
    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    for _ in range(iters):
        h = b - a
        c = b - _INVPHI * h
        d = a + _INVPHI * h
        keep_left = objective(c) < objective(d)
        b = np.where(keep_left, d, b)
        a = np.where(keep_left, a, c)
    return (a + b) / 2.0


def dual_utility(integrand: PenaltyIntegrand, terminal: AdaptedField) -> DualSolution:
    """Backward min-over-controls recursion for the penalised worst-case value.

    The minimiser comes from the integrand's analytic formula when it carries
    one, else from a vectorised golden-section search on the admissible
    interval; convexity of the one-step objective in q makes both exact up to
    their stated tolerances.
    """
    vec = terminal.bounded_values()
    lattice = terminal.lattice
    t_step = terminal.start

    dt = lattice.dt
    bound = (1.0 - ADMISSIBILITY_MARGIN) / lattice.sqrt_dt
    dom = integrand.domain_radius
    if dom == 0.0 and not integrand.zero_at_origin:
        raise ValueError("integrand has empty admissible domain")  # defensive: f(0)=0 rules this out

    controls: list[np.ndarray] = []
    clamps: list[np.ndarray] = []

    def step(k: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        zed = lattice.increment(down, up)
        mean = (up + down) / 2.0
        t = lattice.grid.time(k)

        if integrand.step_minimizer is not None:
            free = np.asarray(integrand.step_minimizer(t, zed), dtype=float)
            q = np.clip(free, -bound, bound)
            clamp = q != free
        else:
            lo = np.full_like(zed, max(-dom, -bound))
            hi = np.full_like(zed, min(dom, bound))

            def objective(qq):
                return qq * zed + np.asarray(integrand(t, qq), dtype=float)

            q = _vector_golden_min(objective, lo, hi, GOLDEN_TOL)
            clamp = np.abs(q) >= bound - 2.0 * GOLDEN_TOL

        fv = np.asarray(integrand(t, q), dtype=float)
        if not np.all(np.isfinite(fv)):
            bad = int(np.flatnonzero(~np.isfinite(fv))[0])
            raise ValueError(f"integrand infinite at its own minimiser, {NodeId(k, bad)}; "
                             "the analytic minimiser must respect the effective domain")
        controls.append(q)
        clamps.append(clamp)
        return mean + (q * zed + fv) * dt

    us = [u for _, u in lattice.sweep(t_step, vec.copy(), step)]
    # Suffix steps of the control (beyond the claim window) stay at the neutral zero drift.
    suffix = [np.zeros(lattice.node_count(k)) for k in range(t_step, lattice.steps)]
    return DualSolution(
        u=AdaptedField(lattice, us[::-1], start=0),
        argmin_control=PredictableControl(lattice, controls[::-1] + suffix),
        clamped=clamps[::-1] + [np.zeros(v.shape, dtype=bool) for v in suffix],
        integrand=integrand,
    )


def duality_gap(driver: Driver, terminal: AdaptedField) -> float:
    """Max nodewise gap between the driver recursion and the dual recursion."""
    integrand = fenchel(driver)
    primal = bsde.utility_solution(driver, terminal).y
    dual = dual_utility(integrand, terminal).u
    return field_max(lambda a, b: np.abs(a - b), primal, dual)


def truncated_utility(integrand: PenaltyIntegrand, terminal: AdaptedField, level: float) -> DualSolution:
    """Dual value restricted to controls gated at |q| <= level."""
    return dual_utility(truncate_integrand(integrand, level), terminal)


def worst_case_control(integrand: PenaltyIntegrand, terminal: AdaptedField) -> PredictableControl:
    """The minimising drift of the dual recursion (robust-pricing scenario)."""
    return dual_utility(integrand, terminal).argmin_control


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
    """
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    solutions = [truncated_utility(integrand, terminal, n) for n in levels]
    worst_order = 0.0
    for lowgate, highgate in zip(solutions, solutions[1:]):
        worst_order = max(worst_order, field_max(lambda a, b: b - a, lowgate.u, highgate.u))
    full = dual_utility(integrand, terminal)
    worst_sat = math.inf
    if levels and levels[-1] >= integrand.domain_radius:
        worst_sat = field_max(lambda a, b: np.abs(a - b), solutions[-1].u, full.u)
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
    t_step = solution.u.stop
    for k in range(t_step):
        down, up = lattice.child_values(solution.u[k + 1])
        zed = lattice.increment(down, up)
        t = lattice.grid.time(k)
        q = solution.argmin_control[k]
        base = q * zed + np.asarray(solution.integrand(t, q), dtype=float)
        free = ~solution.clamped[k]
        if not np.any(free):
            continue
        for sign in (-1.0, 1.0):
            shifted = q + sign * 1e-4
            vals = shifted * zed + np.asarray(solution.integrand(t, shifted), dtype=float)
            with np.errstate(invalid="ignore"):
                improvement = (base - vals)[free]
            improvement = improvement[np.isfinite(improvement)]
            if improvement.size:
                worst = max(worst, float(np.max(improvement)))
    return 0.0 if worst == -math.inf else max(worst, 0.0)
