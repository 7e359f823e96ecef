"""Per-step controls and up-probabilities computed on read: bitwise the stored lists."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import glattice as gl
from glattice import bsde, dual
from glattice.lattice import _LazySteps, node_total

TOPOLOGIES = [(gl.TreeTopology.RECOMBINING, 12), (gl.TreeTopology.FULL_BINARY, 7)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_steps_equal(lazy, eager):
    assert len(lazy) == len(eager)
    for k, expected in enumerate(eager):
        assert same_bits(lazy[k], expected), k


def eager_dual(integrand, terminal):
    """(value field, minimising control, clamp flags) with every step's q stored as swept."""
    lat = terminal.lattice
    sink = []
    step = dual.dual_step(integrand, lat, lambda k, q, clamp: sink.append((q.copy(), clamp)))
    us = [u for _, u in lat.sweep(terminal.start, terminal.bounded_values().copy(), step)][::-1]
    suffix = [np.zeros(lat.node_count(k)) for k in range(terminal.start, lat.steps)]
    return (us, [q for q, _ in sink[::-1]] + suffix,
            [c for _, c in sink[::-1]] + [np.zeros(v.shape, dtype=bool) for v in suffix])


def claim_at(lat, step, payoff):
    return gl.AdaptedField(lat, [payoff(lat.level_values(step))], start=step)


INTEGRANDS = {
    "entropic": gl.fenchel(gl.entropic(1.0)),
    "abs": gl.fenchel(gl.abs_scaled(0.5)),
    "interval": gl.fenchel(gl.interval(-0.3, 0.4)),
    # |q| = 40 |z| leaves the admissibility bound on steep claims: clipped and flagged
    "steep_quadratic": gl.PenaltyIntegrand(
        "steep", lambda t, q: np.asarray(q, dtype=float) ** 2 / 80.0, np.inf, True,
        step_minimizer=lambda t, zed: -40.0 * np.asarray(zed, dtype=float)),
    "golden": dataclasses.replace(gl.fenchel(gl.entropic(1.0)), step_minimizer=None),
}


class TestArgminControl:
    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("topology,steps", TOPOLOGIES)
    @pytest.mark.parametrize("window", ["whole", "ends_early"])
    def test_bitwise_the_stored_sweep_minimiser(self, name, topology, steps, window):
        lat = gl.build_grid(1.0, steps, topology)
        start = steps if window == "whole" else steps - 4
        claim = claim_at(lat, start, lambda x: 2.0 * np.sin(3.0 * x) + np.maximum(x, 0.0))
        sol = gl.dual_utility(INTEGRANDS[name], claim)
        us, controls, flags = eager_dual(INTEGRANDS[name], claim)
        assert_steps_equal(sol.u.values, us)
        assert_steps_equal(sol.argmin_control.values, controls)
        assert_steps_equal(sol.clamped, flags)
        if window == "ends_early":
            assert all(np.all(sol.argmin_control[k] == 0.0) for k in range(start, steps))
        if name == "steep_quadratic":
            assert sol.any_clamped

    def test_measure_of_the_lazy_control_is_the_stored_one(self):
        lat = gl.build_grid(1.0, 40)
        claim = gl.terminal_field(lat, lambda x: np.maximum(x - 0.2, 0.0))
        f = INTEGRANDS["entropic"]
        sol = gl.dual_utility(f, claim)
        stored = gl.PredictableControl(lat, eager_dual(f, claim)[1])
        lazy_q, stored_q = gl.density_from_control(sol.argmin_control), gl.density_from_control(stored)
        assert_steps_equal(lazy_q.up_prob, list(stored_q.up_prob))
        assert same_bits(gl.expectation_under(lazy_q, claim, 0)[0],
                         gl.expectation_under(stored_q, claim, 0)[0])
        assert (gl.penalty_formula(f, lazy_q, 0, lat.steps).initial()
                == gl.penalty_formula(f, stored_q, 0, lat.steps).initial())

    def test_holds_one_float_field_and_the_clamp_flags(self):
        lat = gl.build_grid(1.0, 1024)
        claim = gl.terminal_field(lat, lambda x: np.maximum(x - 0.2, 0.0))
        f = INTEGRANDS["entropic"]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = gl.dual_utility(f, claim)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nodes = node_total(lat.topology, lat.steps)
        field, flags = 8 * nodes, nodes
        # about 4.2 MB of u and 0.5 MB of flags; a stored control would add another 4.2 MB
        assert field < held < 1.25 * field + flags, held
        assert sol.argmin_control[0].shape == (1,)


class TestFromStateFunction:
    FUNCTIONS = {
        "feedback": lambda t, level: 0.3 + 0.5 * level,
        "time_and_level": lambda t, level: np.tanh(level) * (1.0 + t),
        "scalar": lambda t, level: 0.25 * t,  # broadcast to the step's nodes
    }

    @staticmethod
    def eager(lat, fn):
        return [np.array(np.broadcast_to(np.asarray(fn(lat.grid.time(k), lat.level_values(k)),
                                                    dtype=float), (lat.node_count(k),)))
                for k in range(lat.steps)]

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("topology,steps", TOPOLOGIES)
    def test_bitwise_the_stored_list(self, name, topology, steps):
        lat = gl.build_grid(1.3, steps, topology)
        fn = self.FUNCTIONS[name]
        control = gl.PredictableControl.from_state_function(lat, fn)
        eager = self.eager(lat, fn)
        assert_steps_equal(control.values, eager)
        assert_steps_equal(gl.density_from_control(control).up_prob,
                           [(1.0 + q * lat.sqrt_dt) / 2.0 for q in eager])

    def test_every_step_checked_once_at_construction(self):
        lat = gl.build_grid(1.0, 6)
        calls = []
        control = gl.PredictableControl.from_state_function(
            lat, lambda t, level: calls.append(t) or 0.1 * level)
        assert len(calls) == lat.steps
        control[3], control[3]
        assert len(calls) == lat.steps + 1  # computed on read, then kept while it is the latest

    def test_shape_fault_raises_at_construction(self):
        lat = gl.build_grid(1.0, 6)
        with pytest.raises(ValueError):
            gl.PredictableControl.from_state_function(
                lat, lambda t, level: np.zeros(3) if t > 0.5 else level)

    def test_constant_is_the_full_arrays(self):
        lat = gl.build_grid(1.0, 9)
        assert_steps_equal(gl.PredictableControl.constant(lat, 0.3).values,
                           [np.full(lat.node_count(k), 0.3) for k in range(lat.steps)])


class TestInterleavedReads:
    def test_random_reads_never_serve_a_stale_step(self):
        lat = gl.build_grid(1.0, 15)
        claim = gl.terminal_field(lat, np.abs)
        f = INTEGRANDS["entropic"]
        sol = gl.dual_utility(f, claim)
        controls = eager_dual(f, claim)[1]
        feedback = gl.PredictableControl.from_state_function(lat, lambda t, x: 0.2 + 0.3 * x)
        levels = TestFromStateFunction.eager(lat, lambda t, x: 0.2 + 0.3 * x)
        measure = gl.density_from_control(feedback)
        rng = np.random.default_rng(3)
        for k in rng.integers(-lat.steps, lat.steps, size=300):
            k = int(k)
            which = int(rng.integers(3))
            if which == 0:
                assert same_bits(sol.argmin_control[k], controls[k]), k
            elif which == 1:
                assert same_bits(feedback[k], levels[k]), k
            else:  # reads the control's cache through p_k
                assert same_bits(measure.up_prob[k], (1.0 + levels[k] * lat.sqrt_dt) / 2.0), k

    def test_reads_as_a_list(self):
        calls = []
        steps = _LazySteps(5, lambda k: calls.append(k) or np.full(k + 1, float(k)))
        assert len(steps) == 5 and len(list(steps)) == 5
        assert [float(v[0]) for v in steps[1:4]] == [1.0, 2.0, 3.0]
        assert [float(v[0]) for v in steps[::-2]] == [4.0, 2.0, 0.0]
        assert float(steps[-1][0]) == 4.0 and float(steps[np.int64(2)][0]) == 2.0
        calls.clear()
        steps[3], steps[3], steps[1], steps[3]
        assert calls == [3, 1, 3]
        with pytest.raises(IndexError):
            steps[5]
        with pytest.raises(IndexError):
            steps[-6]


# -- checkpointed sweeps: solution fields --------------------------------------------------

DRIVERS = {"entropic": gl.parse_spec("entropic:1"), "abs": gl.abs_scaled(0.5)}
SOLVERS = {"solve": (gl.solve, 1.0), "utility_solution": (gl.utility_solution, -1.0)}


def stored_sweep(lat, start, values, step):
    """Every step of a backward sweep, collected, step 0 first."""
    return [v for _, v in lat.sweep(start, values.copy(), step)][::-1]


def read_order(order: str, steps: int) -> list[int]:
    """Indices into a per-step list of `steps` items: in turn, in reverse, or 4x at random."""
    if order == "forward":
        return list(range(steps))
    if order == "backward":
        return list(range(steps))[::-1]
    return [int(k) for k in np.random.default_rng(steps).integers(-steps, steps, size=4 * steps)]


class TestCheckpointedSolutions:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("topology,steps", TOPOLOGIES + [(gl.TreeTopology.RECOMBINING, 40)])
    @pytest.mark.parametrize("terminal", ["horizon", "inner"])
    @pytest.mark.parametrize("order", ["forward", "backward", "random"])
    def test_y_and_z_are_bitwise_the_stored_sweep(self, solver, driver, topology, steps,
                                                  terminal, order):
        lat = gl.build_grid(1.0, steps, topology)
        start = steps if terminal == "horizon" else steps - 3
        claim = claim_at(lat, start, lambda x: 2.0 * np.sin(3.0 * x) + np.maximum(x, 0.0))
        solve, sign = SOLVERS[solver]
        ys = stored_sweep(lat, start, claim[start], bsde.driver_step(DRIVERS[driver], lat, sign))
        zs = [lat.increment(*lat.child_values(ys[k + 1])) for k in range(start)]
        sol = solve(DRIVERS[driver], claim)
        assert (sol.y.start, sol.y.stop, sol.z.stop) == (0, start, start - 1)
        for k in read_order(order, start + 1):
            assert same_bits(sol.y.values[k], ys[k]), k
        for k in read_order(order, start):
            assert same_bits(sol.z.values[k], zs[k]), k
        assert_steps_equal(sol.y.values, ys)

    def test_a_write_into_a_read_step_raises(self):
        lat = gl.build_grid(1.0, 20)
        sol = gl.utility_solution(DRIVERS["entropic"], gl.terminal_field(lat, np.abs))
        before = [v.copy() for v in sol.y.values]
        for k in (0, 3, 16, 19, 20):  # kept every 4th step and the terminal; swept again between
            values = sol.y[k]
            with pytest.raises(ValueError):
                values[0] = 1.0
            with pytest.raises(ValueError):
                values += 1.0
        assert_steps_equal(sol.y.values, before)

    def test_errors_come_from_the_first_sweep(self):
        lat = gl.build_grid(1.0, 16)
        steep = gl.terminal_field(lat, lambda x: 40.0 * np.maximum(x, 0.0))
        with pytest.raises(gl.ValidityRadiusError) as swept:
            gl.utility_solution(DRIVERS["entropic"], steep)
        with pytest.raises(gl.ValidityRadiusError) as root_only:
            gl.utility(DRIVERS["entropic"], steep, 0)
        assert str(swept.value) == str(root_only.value)
        nan_at_9 = gl.Driver("nan_at_9", lambda t, z: np.where(t == lat.grid.time(9), np.nan, 0.0),
                             None, True)
        with pytest.raises(ValueError, match=r"NaN at node\(step=9, index=0\)"):
            gl.solve(nan_at_9, gl.terminal_field(lat, np.abs))

    def test_utility_solution_holds_under_an_eighth_of_a_field(self):
        lat = gl.build_grid(1.0, 1024)
        claim = gl.terminal_field(lat, lambda x: np.maximum(x - 0.2, 0.0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = gl.utility_solution(DRIVERS["entropic"], claim)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        field = 8 * node_total(lat.topology, lat.steps)  # 4.2 MB stored
        # 33 kept steps, about 0.14 MB
        assert held < field / 8, held
        assert float(sol.y[0][0]) == float(gl.utility(DRIVERS["entropic"], claim, 0)[0][0])

    def test_dual_holds_a_field_and_its_flags_packed(self):
        lat = gl.build_grid(1.0, 4096)
        claim = gl.terminal_field(lat, lambda x: np.maximum(x - 0.2, 0.0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = gl.dual_utility(INTEGRANDS["entropic"], claim)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nodes = node_total(lat.topology, lat.steps)
        # u's data, its 4097 array headers (0.06 bytes a node) and one bit a node of flags;
        # one bool a node took a whole byte
        assert held < 8 * nodes + nodes / 4, held
        assert sol.clamped[0].dtype == bool and not sol.any_clamped


class TestTruncationHoldsNoCostField:
    def test_a_deterministic_control_on_the_recombining_tree(self):
        lat = gl.build_grid(1.0, 1024)
        f = INTEGRANDS["entropic"]
        control = gl.PredictableControl.constant(lat, 0.3)
        tracemalloc.start()
        try:
            report = gl.truncation_convergence(f, control, [0.01, 0.02])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = 8 * node_total(lat.topology, lat.steps)
        # each gated and stopped control is one stored field (`PredictableControl.map`);
        # a stored f(t, q) of the control was a second
        assert peak < 1.5 * field, peak
        assert report.passed and not report.stopping_skipped
