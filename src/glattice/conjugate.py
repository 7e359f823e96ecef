"""Fenchel-Legendre transform engine and penalty integrands.

The conjugate of a driver is the extended-real penalty integrand
f(t, q) = sup_z { q.z - g(t, z) } with values in [0, +inf].  Infinity is the
genuine float infinity, never a large sentinel: it dominates sums and loses
every minimum, which is exactly the arithmetic the truncation and gating
operations rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .drivers import Driver, _magnitude, probe_zero

Array = np.ndarray

GRID_POINTS_1D = 4097
TILE_SCORES = 2**18  # slope-by-point scores per tile of the grid sup: 2 MiB of float64
REFINE_POINTS_1D = 129
GRID_POINTS_PER_AXIS = {1: GRID_POINTS_1D, 2: 129, 3: 33}
REFINE_POINTS_PER_AXIS = {1: REFINE_POINTS_1D, 2: 17, 3: 9}
FAMILY_TOLERANCE = 1e-9  # conjugate order slack of the monotone family: one grid per level


@dataclass
class PenaltyIntegrand:
    """Extended-real integrand f(t, q) >= 0 with f(t, 0) = 0 and a domain radius.

    `domain_radius` is the radius outside which the value is exactly +inf;
    `domain_certified` records whether that radius was derived from a declared
    Lipschitz constant (or analytic knowledge) rather than guessed.
    `evaluate` must be elementwise in q: the golden-section dual search
    evaluates both probe points of every node in one call.
    """

    name: str
    evaluate: Callable[[float, Array], Array]
    domain_radius: float
    zero_at_origin: bool
    dim: int = 1
    step_minimizer: Callable[[float, Array], Array] | None = None
    domain_certified: bool = True
    notes: tuple[str, ...] = ()

    def __call__(self, t: float, q):
        return self.evaluate(t, q)


def _tensor_grid(radius: float, dim: int, per_axis: int) -> Array:
    axis = np.linspace(-radius, radius, per_axis)
    if dim == 1:
        return axis
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _local_grids(center: Array, half_width: float, radius: float, dim: int, per_axis: int) -> Array:
    """One tensor grid per row around each center, clipped to the box [-radius, radius]^dim.

    Every axis uses np.linspace's own arithmetic, ramp * ((hi - lo) / (n - 1)) + lo
    with the last point set to hi, so each row's grid is bitwise the one
    np.linspace builds for that row alone.  Shape (rows, per_axis) for dim 1,
    (rows, per_axis**dim, dim) otherwise, points in meshgrid "ij" order.
    """
    lo = np.maximum(center - half_width, -radius)
    hi = np.minimum(center + half_width, radius)
    axes = np.arange(per_axis, dtype=float) * ((hi - lo) / (per_axis - 1))[..., None] + lo[..., None]
    axes[..., -1] = hi
    if dim == 1:
        return axes
    index = np.indices((per_axis,) * dim).reshape(dim, -1)
    return np.stack([axes[:, d, index[d]] for d in range(dim)], axis=-1)


def grid_sup_of_linear_minus(fun: Callable[[float, Array], Array], t: float, slopes,
                             radius: float, dim: int = 1, points: int | None = None) -> Array:
    """sup_x { slope . x - fun(t, x) } over [-radius, radius]^dim, one value per slope.

    Grid search with two refinement sweeps around each coarse arg max, on
    cache-sized tiles of max(1, TILE_SCORES // coarse points) slopes: `fun`
    sees each tile's local grids as one flat batch of points.  Infinite fun
    values are allowed and simply never attain the sup; an all-infinite fun
    raises (empty effective domain).  Each call scans its coarse grid;
    `fenchel` and `inverse_fenchel` keep the latest t's (`_latest_t_grid_sup`).
    """
    per_axis = _points_per_axis(dim, points)
    return _refined_sup(fun, t, slopes, radius, dim, per_axis,
                        _coarse_grid(fun, t, radius, dim, per_axis))


def _points_per_axis(dim: int, points: int | None = None) -> int:
    if dim not in GRID_POINTS_PER_AXIS:
        raise ValueError(f"tensor grids support dimensions {sorted(GRID_POINTS_PER_AXIS)}, "
                         f"got {dim}")
    return points if points is not None else GRID_POINTS_PER_AXIS[dim]


def _coarse_grid(fun: Callable[[float, Array], Array], t: float, radius: float, dim: int,
                 per_axis: int) -> tuple[Array, Array]:
    """The coarse grid points where fun(t, .) is finite, and those values, both read-only."""
    pts = _tensor_grid(radius, dim, per_axis)
    fvals = np.asarray(fun(t, pts), dtype=float)
    finite = np.isfinite(fvals)
    if not np.any(finite):
        raise ValueError("empty effective domain: the function is +inf on the whole grid")
    # an infinite point never attains the sup, so the first arg max over the rest is unchanged
    pts, fvals = pts[finite], fvals[finite]
    pts.flags.writeable = fvals.flags.writeable = False
    return pts, fvals


def _refined_sup(fun: Callable[[float, Array], Array], t: float, slopes, radius: float,
                 dim: int, per_axis: int, coarse: tuple[Array, Array]) -> Array:
    """`grid_sup_of_linear_minus` from its `_coarse_grid`."""
    slopes_arr = np.asarray(slopes, dtype=float)
    single = slopes_arr.ndim == 0 if dim == 1 else slopes_arr.ndim == 1
    rows = np.atleast_1d(slopes_arr) if dim == 1 else np.atleast_2d(slopes_arr)
    pts, fvals = coarse

    spacing = 2.0 * radius / (per_axis - 1) if per_axis > 1 else radius
    refine_axis = REFINE_POINTS_PER_AXIS[dim]
    best = np.empty(rows.shape[0])
    tile = max(1, TILE_SCORES // fvals.shape[0])
    for lo in range(0, rows.shape[0], tile):
        block = rows[lo:lo + tile]
        which = np.arange(block.shape[0])
        scores = np.multiply.outer(block, pts) if dim == 1 else block @ pts.T
        scores -= fvals
        arg = np.argmax(scores, axis=1)
        top = scores[which, arg]
        del scores
        center = pts[arg]
        width = spacing
        for _ in range(2):
            local = _local_grids(center, width, radius, dim, refine_axis)
            flat = local.reshape(-1) if dim == 1 else local.reshape(-1, dim)
            lvals = np.asarray(fun(t, flat), dtype=float).reshape(local.shape[:2])
            if dim == 1:
                lscores = block[:, None] * local - lvals
            else:
                lscores = np.matmul(local, block[:, :, None])[..., 0] - lvals
            lscores[~np.isfinite(lvals)] = -np.inf
            j = np.argmax(lscores, axis=1)
            cand = lscores[which, j]
            better = cand > top
            top = np.where(better, cand, top)
            center = np.where(better if dim == 1 else better[:, None], local[which, j], center)
            width = 2.0 * width / (refine_axis - 1)
        best[lo:lo + tile] = top
    return best[0] if single else best


def _latest_t_grid_sup(fun: Callable[[float, Array], Array], radius: float,
                       dim: int) -> Callable[[float, Array], Array]:
    """`grid_sup_of_linear_minus(fun, t, slopes, radius, dim)` as (t, slopes) -> sup, keeping
    the coarse grid of the latest t: the dual's search asks at one t many times."""
    per_axis = _points_per_axis(dim)
    latest = (None, None)

    def sup(t, slopes):
        nonlocal latest
        if latest[0] != t:
            latest = (t, _coarse_grid(fun, t, radius, dim, per_axis))
        return _refined_sup(fun, t, slopes, radius, dim, per_axis, latest[1])

    return sup


def _gated(evaluate: Callable[[float, Array], Array], radius: float, dim: int) -> Callable:
    """`evaluate` with +inf where |q| > radius, no gate at an infinite radius; a float for a scalar q."""
    def gated(t, q):
        vals = np.asarray(evaluate(t, q), dtype=float)
        if not math.isinf(radius):
            vals = np.where(_magnitude(q, dim) <= radius, vals, np.inf)
        return vals if vals.shape else float(vals)

    return gated


def fenchel(driver: Driver) -> PenaltyIntegrand:
    """Convex conjugate of a driver as a penalty integrand.

    A driver Lipschitz with constant mu has conjugate exactly +inf outside the
    ball of radius mu, so the effective-domain radius is pinned to mu without
    any numerics.  Inside the ball the analytic conjugate is used when the
    driver carries one, otherwise a two-pass refined grid supremum.
    """
    if not probe_zero(driver):
        raise ValueError(f"driver {driver.name} fails g(t, 0) = 0; conjugate undefined "
                         "under the standing normalisation")
    dim = driver.dim
    mu = driver.lipschitz
    gate_radius = mu if mu is not None else math.inf
    certified = mu is not None
    notes: tuple[str, ...] = ()
    if mu is None and driver.conjugate is None:
        notes = ("domain detection refused: no declared Lipschitz constant and no "
                 "analytic conjugate; finite values computed on the grid only",)

    inner = driver.conjugate
    if inner is None:
        z_max = (driver.validity_radius if driver.validity_radius != math.inf
                 else 8.0 * max(1.0, mu if mu is not None else 1.0))
        inner = _latest_t_grid_sup(driver.evaluate, z_max, dim)

    evaluate = _gated(inner, gate_radius, dim)
    origin = 0.0 if dim == 1 else np.zeros(dim)
    at_zero = float(np.asarray(evaluate(0.0, origin)))
    return PenaltyIntegrand(
        name=f"conjugate[{driver.name}]",
        evaluate=evaluate,
        domain_radius=gate_radius,
        zero_at_origin=abs(at_zero) <= 1e-9,
        dim=dim,
        step_minimizer=driver.step_minimizer,
        domain_certified=certified,
        notes=notes,
    )


def inverse_fenchel(integrand: PenaltyIntegrand, *, search_radius: float | None = None) -> Driver:
    """Conjugate of a penalty integrand, recovered as a driver.

    The supremum runs over a grid of the effective domain, so the integrand
    needs a finite domain radius or an explicit search box.
    """
    radius = integrand.domain_radius
    if not math.isfinite(radius):
        if search_radius is None:
            raise ValueError("integrand has unbounded domain; pass search_radius")
        radius = search_radius

    evaluate = _latest_t_grid_sup(integrand.evaluate, radius, integrand.dim)
    # Force the empty-domain error at build time rather than first use; a first call at
    # t = 0 reuses the probe's coarse grid.
    probe = 0.0 if integrand.dim == 1 else np.zeros(integrand.dim)
    evaluate(0.0, probe)

    return Driver(
        name=f"conjugate[{integrand.name}]",
        evaluate=evaluate,
        lipschitz=integrand.domain_radius if math.isfinite(integrand.domain_radius) else radius,
        convex=True,
        dim=integrand.dim,
    )


def truncate_integrand(integrand: PenaltyIntegrand, level: float) -> PenaltyIntegrand:
    """Gate the integrand at |q| <= level, +inf outside.

    Gates form a lattice: truncating twice equals truncating at the smaller
    level.  Since f(t, 0) = 0, level 0 yields the indicator of the origin.
    """
    if level < 0:
        raise ValueError("truncation level must be nonnegative")
    dim = integrand.dim
    minimizer = None
    if integrand.step_minimizer is not None and dim == 1:
        base_min = integrand.step_minimizer

        def minimizer(t, zed, _n=level):
            return np.clip(np.asarray(base_min(t, zed), dtype=float), -_n, _n)

    return replace(
        integrand,
        name=f"{integrand.name}|level<={level:g}",
        evaluate=_gated(integrand.evaluate, level, dim),
        domain_radius=min(level, integrand.domain_radius),
        step_minimizer=minimizer,
    )


@dataclass
class MonotoneFamilyReport:
    """Outcome of the gated-family structure checks on explicit grids."""

    levels: tuple[float, ...]
    integrand_decreasing: bool
    conjugates_increasing: bool
    infimum_recovers: bool
    worst_conjugate_violation: float
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.integrand_decreasing and self.conjugates_increasing and self.infimum_recovers


def monotone_family_check(integrand: PenaltyIntegrand, levels: Sequence[float]) -> MonotoneFamilyReport:
    """Verify the gated family: f_n decreasing in n, conjugates increasing, inf_n f_n = f.

    Runs at t = 0.  The infimum check demands exact equality at every grid
    point some level covers; the conjugate monotonicity allows a grid
    tolerance of FAMILY_TOLERANCE because each level is conjugated on its own grid.
    """
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if integrand.dim != 1:
        raise ValueError("family check runs on 1-d integrands")
    span = max(levels) * 1.5 + 1.0
    q_grid = np.linspace(-span, span, 201)
    z_grid = np.linspace(-4.0, 4.0, 81)

    def order_breaks(kind: str, grid: Array, rows: list[Array], bad) -> list[tuple]:
        """(kind, level, point, value, next level's value) at each level's first `bad` point."""
        found = []
        for i, (row, after) in enumerate(zip(rows, rows[1:])):
            where = np.flatnonzero(bad(row, after))
            if where.size:
                j = int(where[0])
                found.append((kind, levels[i], float(grid[j]), float(row[j]), float(after[j])))
        return found

    gated = [truncate_integrand(integrand, n) for n in levels]
    fvals = np.stack([np.asarray(g(0.0, q_grid), dtype=float) for g in gated])
    counterexamples = order_breaks("integrand_order", q_grid, list(fvals), np.less)
    decreasing = not counterexamples

    conj = [np.asarray(inverse_fenchel(g)(0.0, z_grid), dtype=float) for g in gated]
    worst = max([0.0] + [float(np.max(row - after)) for row, after in zip(conj, conj[1:])])
    conj_breaks = order_breaks("conjugate_order", z_grid, conj, lambda a, b: a - b > FAMILY_TOLERANCE)
    increasing = not conj_breaks
    counterexamples += conj_breaks

    base = np.asarray(integrand(0.0, q_grid), dtype=float)
    inf_family = np.min(fvals, axis=0)
    covered = np.abs(q_grid) <= max(levels)
    recovered = bool(np.all(inf_family[covered] == base[covered]))
    if not recovered:
        j = int(np.flatnonzero(covered & (inf_family != base))[0])
        counterexamples.append(("infimum", float(q_grid[j]), float(inf_family[j]), float(base[j])))

    return MonotoneFamilyReport(levels, decreasing, increasing, recovered, worst, counterexamples)


def biconjugate_gap(driver: Driver, z_grid) -> float:
    """Max absolute gap |g - (g*)*| on a z grid at t = 0; near zero for convex drivers."""
    if not driver.convex:
        raise ValueError("biconjugate identity needs a convex driver")
    back = inverse_fenchel(fenchel(driver))
    z_grid = np.asarray(z_grid, dtype=float)
    direct = np.asarray(driver(0.0, z_grid), dtype=float)
    recovered = np.asarray(back(0.0, z_grid), dtype=float)
    return float(np.max(np.abs(direct - recovered)))
