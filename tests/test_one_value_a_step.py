"""A deterministic control costs one value of f(t, q) a step, with the bits of f on every node."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice.cli import CONTROLS
from glattice.measure import between_masks
from glattice.penalty import _deterministic_cocycle
from conftest import random_control
from test_penalty import REFERENCE_INTEGRANDS, entropic_pair


def per_node_sweep(fq, Q, inside):
    """[(k, R_k) for k = N .. 0] of a window sweep that charges f(t_k, q_k) at every node."""
    lat = Q.lattice

    def step(k, down, up):
        charge = fq[k] * lat.dt
        if inside[k] is not True:
            charge = np.where(inside[k], charge, 0.0)
        return charge + Q.one_step_expectation(k, down, up)

    rows = np.shape(inside[lat.steps - 1])[:-1]
    return list(lat.sweep(lat.steps, np.zeros((*rows, lat.node_count(lat.steps))), step))


def per_node_cocycle(fq, Q, windows):
    """The cocycle's worst gap over a sweep of each step's whole window and its two halves."""
    worst = 0.0
    for _, (w, h, t) in per_node_sweep(fq, Q, windows):
        if not np.array_equal(np.isinf(w), np.isinf(h) | np.isinf(t)):
            return math.inf
        ok = np.isfinite(w)
        worst = max(worst, float(np.max(np.abs(w[ok] - h[ok] - t[ok]), initial=0.0)))
    return worst


def per_node_cost(fq, control):
    """A_k from f(t, q) at every node: pushed along the paths of the full binary tree, and
    from each step's first node on the recombining tree."""
    lat = control.lattice
    if lat.topology is gl.TreeTopology.FULL_BINARY:
        vals = [np.zeros(1)]
        for k in range(lat.steps):
            vals.append(lat.push(vals[k] + fq[k] * lat.dt, 1.0, 1.0))
    else:
        sums = [0.0]
        for k in range(lat.steps):
            sums.append(sums[k] + float(fq[k][0]) * lat.dt)
        vals = [np.full(lat.node_count(k), s) for k, s in enumerate(sums)]
    if not np.all(np.isfinite(vals[-1])):
        raise ValueError("integrand infinite along the control: accumulated cost undefined")
    return gl.IncreasingProcess(gl.AdaptedField(lat, vals))


def per_node_doob(f, Q):
    """(residual, A) of the Doob decomposition with f(t, q) evaluated at every node."""
    lat = Q.lattice
    fq = gl.integrand_on_control(f, Q.control)
    acc = per_node_cost(fq, Q.control)
    penalty = per_node_sweep(fq, Q, [True] * lat.steps)
    tail = lat.sweep(lat.steps, acc.a[lat.steps], Q.one_step_expectation)
    residual = max(float(np.max(np.abs(c - (t - acc.a[k]))))
                   for (k, c), (_, t) in zip(penalty, tail))
    return residual, acc


def per_node_truncation(f, control, levels):
    """`truncation_convergence` of a deterministic control with f(t, q) at every node."""
    lat = control.lattice
    tol = gl.bsde.TOL_IDENTITY

    def root(ctrl, fq=None):
        fq = gl.integrand_on_control(f, ctrl) if fq is None else fq
        return float(per_node_sweep(fq, gl.density_from_control(ctrl), [True] * lat.steps)[-1][1][0])

    fq = gl.integrand_on_control(f, control)
    full = root(control, fq)
    gated = tuple(root(gl.truncate_control(control, n)) for n in levels)
    monotone = all(b >= a - tol for a, b in zip(gated, gated[1:]))
    saturated = all(v == full for n, v in zip(levels, gated) if n >= control.max_abs())
    stopped = stopped_monotone = bound_ok = None
    skipped = not math.isfinite(full)  # a deterministic control's cost is pathwise
    if not skipped:
        acc = per_node_cost(fq, control)
        max_increment = max(float(np.max(inc)) for inc in acc.increments())
        vals, bound_ok = [], True
        for n in levels:
            stop_at = gl.hitting_time(lat, [acc.a[k] >= n for k in range(lat.steps + 1)])
            vals.append(root(gl.stop_control(control, stop_at)))
            for k, reached in enumerate(stop_at.reached):
                first = reached & ~lat.push(stop_at.reached[k - 1], True, True) if k else reached
                bound_ok &= bool(np.all(acc.a[k][first] <= n + max_increment + 1e-12))
        stopped = tuple(vals)
        stopped_monotone = all(b >= a - tol for a, b in zip(vals, vals[1:]))
        stopped_monotone &= all(v <= full + tol for v in vals)
    return gl.penalty.TruncationReport(tuple(levels), gated, full, monotone, saturated,
                                       stopped, stopped_monotone, bound_ok, skipped)


def bits(value):
    """A value with every float as its hex string and every array as its bytes."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value)(bits(v) for v in value)
    return value


def outcome(compute):
    """The bits of what `compute()` returns, or the type and text of what it raises."""
    try:
        return bits(compute())
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def deterministic_control(kind, lattice, rng):
    """A `constant`, a `piecewise` or a random control taking its first node's value a step."""
    bound = min(1.5, 0.9 / lattice.sqrt_dt)
    if kind == "constant":
        return gl.PredictableControl.constant(lattice, float(rng.uniform(-bound, bound)))
    if kind == "piecewise":
        values = rng.uniform(-bound, bound, size=int(rng.integers(1, 4)))
        return CONTROLS["piecewise"](lattice, *(float(v) for v in values))
    return random_control(lattice, rng, bound).map(lambda k, q: np.full(q.size, q[0]))


def node_counting_integrand():
    """The entropic integrand, recording how many nodes each evaluation reads."""
    _, f = entropic_pair()
    nodes = []

    def evaluate(t, q):
        nodes.append(np.size(q))
        return f(t, q)

    return dataclasses.replace(f, evaluate=evaluate), nodes


class TestOneValueAStep:
    @given(topology=st.sampled_from(list(gl.TreeTopology)), steps=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1), integrand=st.sampled_from(sorted(REFERENCE_INTEGRANDS)),
           kind=st.sampled_from(["constant", "piecewise", "random"]))
    @settings(deadline=None)
    def test_checks_match_the_per_node_arithmetic(self, topology, steps, seed, integrand, kind):
        lat = gl.build_grid(1.0, steps, topology)
        rng = np.random.default_rng(seed)
        f = REFERENCE_INTEGRANDS[integrand]
        control = deterministic_control(kind, lat, rng)
        assert control.is_deterministic()
        Q = gl.density_from_control(control)
        fq = gl.integrand_on_control(f, control)
        start, mid, stop = sorted(int(k) for k in rng.integers(steps + 1, size=3))

        field = gl.penalty_formula(f, Q, start, stop)
        reference = dict(per_node_sweep(fq, Q, [start <= k < stop for k in range(steps)]))
        assert field.initial().hex() == float(reference[start][0]).hex()
        assert bits([field.at(k) for k in range(start, stop + 1)]) == \
            bits([reference[k] for k in range(start, stop + 1)])

        sigma, tau = gl.random_stopping_pair(lat, rng)
        upsilon = tau.maximum(gl.random_stopping_pair(lat, rng)[1])
        windows = [np.stack((h | t, h, t))
                   for h, t in zip(between_masks(sigma, tau), between_masks(tau, upsilon))]
        assert gl.cocycle_residual(f, Q, sigma, tau, upsilon).hex() == \
            per_node_cocycle(fq, Q, windows).hex()
        windows = [[[start <= k < stop], [start <= k < mid], [mid <= k < stop]]
                   for k in range(steps)]
        assert _deterministic_cocycle(f, Q, start, mid, stop).hex() == \
            per_node_cocycle(fq, Q, windows).hex()

        def doob():
            report = gl.doob_decomposition(f, Q)
            return report.residual, list(report.increasing.a.values)

        def reference_doob():
            residual, acc = per_node_doob(f, Q)
            return residual, list(acc.a.values)

        assert outcome(doob) == outcome(reference_doob)
        levels = sorted({float(v) for v in rng.uniform(0.0, 1.0, size=3)})
        assert outcome(lambda: dataclasses.astuple(gl.truncation_convergence(f, control, levels))) \
            == outcome(lambda: dataclasses.astuple(per_node_truncation(f, control, levels)))

    def test_doob_evaluates_one_node_a_step(self):
        lat = gl.build_grid(1.0, 16)
        f, nodes = node_counting_integrand()
        Q = gl.density_from_control(gl.PredictableControl.constant(lat, 0.3))
        assert gl.doob_decomposition(f, Q).residual <= 1e-12
        assert (len(nodes), sum(nodes)) == (16, 16)  # f on every node took 31 calls on 256

    def test_truncation_evaluates_one_node_a_step(self):
        lat = gl.build_grid(1.0, 16)
        f, nodes = node_counting_integrand()
        control = gl.PredictableControl.constant(lat, 0.8)
        report = gl.truncation_convergence(f, control, [0.05, 0.2, 1.0])
        assert report.passed and not report.stopping_skipped
        # the control, three gated and three stopped controls: 16 steps each, one node a step
        assert (len(nodes), sum(nodes)) == (112, 112)
