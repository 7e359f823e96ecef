"""Swept fields keep checkpoints: penalty fields and window processes read bitwise the
per-node sweep in any order, in O(N^1.5) memory, and the dual's clamp flags are derived
on read like its control."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice import dual
from glattice.lattice import _LazySteps, _swept_steps, node_total
from glattice.measure import between_masks
from conftest import random_control
from test_one_value_a_step import bits, deterministic_control, node_counting_integrand, per_node_sweep
from test_penalty import REFERENCE_INTEGRANDS, entropic_pair


def read_orders(rng, start, stop):
    """Steps start..stop in turn, in reverse, and four times over in seeded random order."""
    steps = list(range(start, stop + 1))
    return {"forward": steps, "backward": steps[::-1],
            "random": [int(k) for k in rng.integers(start, stop + 1, size=4 * len(steps))]}


def traced_peak(compute):
    """(what `compute()` returns, the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return compute(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def feedback_measure(lat):
    return gl.density_from_control(
        gl.PredictableControl.from_state_function(lat, lambda t, x: 0.2 + 0.3 * np.sin(x)))


class TestReadOrder:
    @given(topology=st.sampled_from(list(gl.TreeTopology)), steps=st.integers(1, 10),
           seed=st.integers(0, 2**32 - 1), integrand=st.sampled_from(sorted(REFERENCE_INTEGRANDS)),
           kind=st.sampled_from(["random", "constant", "piecewise", "mapped"]))
    @settings(deadline=None)
    def test_fields_are_the_per_node_sweep_in_any_order(self, topology, steps, seed, integrand,
                                                        kind):
        lat = gl.build_grid(1.0, steps, topology)
        rng = np.random.default_rng(seed)
        f = REFERENCE_INTEGRANDS[integrand]
        control = (random_control(lat, rng, 1.0) if kind == "random"
                   else deterministic_control(kind, lat, rng))
        Q = gl.density_from_control(control)
        fq = gl.integrand_on_control(f, control)

        start, stop = sorted(int(k) for k in rng.integers(steps + 1, size=2))
        reference = dict(per_node_sweep(fq, Q, [start <= k < stop for k in range(steps)]))
        for order, reads in read_orders(rng, start, stop).items():
            field = gl.penalty_formula(f, Q, start, stop)  # each order reads a field of its own
            assert (field.start, field.stop) == (start, stop)
            for k in reads:
                assert bits(field.at(k)) == bits(reference[k]), (order, k)
                assert not field.at(k).flags.writeable
            assert field.initial().hex() == float(reference[start][0]).hex()

        sigma, tau = gl.random_stopping_pair(lat, rng)
        reference = dict(per_node_sweep(fq, Q, between_masks(sigma, tau)))
        for order, reads in read_orders(rng, 0, steps).items():
            process = gl.window_penalty_process(f, Q, sigma, tau)
            assert (process.start, process.stop) == (0, steps)
            for k in reads:
                assert bits(process[k]) == bits(reference[k]), (order, k)
                assert not process[k].flags.writeable


class TestCheckpointMemory:
    LAT = gl.build_grid(1.0, 1024)
    FIELD = 8 * node_total(LAT.topology, LAT.steps)  # one whole float field, 4.01 MiB

    def test_window_process_holds_under_a_quarter_of_a_field(self):
        lat = self.LAT
        _, f = entropic_pair()
        Q = feedback_measure(lat)
        sigma, tau = gl.random_stopping_pair(lat, np.random.default_rng(5))
        process, peak = traced_peak(lambda: gl.window_penalty_process(f, Q, sigma, tau))
        # the window's masks are computed when read; a whole field of R took 4.75 MiB
        assert peak < self.FIELD / 4, peak
        assert np.all(np.isfinite(process[0]))

    def test_window_process_holds_its_checkpoints_not_its_masks(self):
        lat = self.LAT
        _, f = entropic_pair()
        Q = feedback_measure(lat)
        sigma, tau = gl.random_stopping_pair(lat, np.random.default_rng(5))
        tracemalloc.start()
        try:
            process = gl.window_penalty_process(f, Q, sigma, tau)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # checkpoints and one segment; a stored list of the window's masks held 0.76 MiB
        assert held < self.FIELD / 16, held
        assert np.all(np.isfinite(process[0]))

    def test_a_full_read_of_a_penalty_field_holds_under_a_quarter_of_a_field(self):
        lat = self.LAT
        _, f = entropic_pair()
        Q = feedback_measure(lat)

        def read_all():
            field = gl.penalty_formula(f, Q, 0, lat.steps)
            return [float(np.max(field.at(k))) for k in range(lat.steps + 1)][::-1]

        highest, peak = traced_peak(read_all)
        assert peak < self.FIELD / 4, peak  # a kept field took 4.15 MiB
        assert highest[0] == 0.0 and all(np.isfinite(highest))


class TestShortWindow:
    def test_an_early_stop_evaluates_f_on_its_steps_only(self):
        lat = gl.build_grid(1.0, 2048)
        f, nodes = node_counting_integrand()
        Q = feedback_measure(lat)
        root = gl.penalty_formula(f, Q, 0, 8).initial()
        assert root > 0.0
        # f on the window's 8 steps; a sweep from step N took 2048 evaluations
        assert nodes == [k + 1 for k in range(8)][::-1]


class TestDeterministicOnce:
    def test_two_calls_compute_each_step_once(self):
        lat = gl.build_grid(1.0, 32)
        for value in (0.3, None):
            calls = []

            def compute(k, value=value):
                calls.append(k)
                n = lat.node_count(k)
                return np.full(n, value) if value is not None else np.linspace(0.0, 0.1, n)

            control = gl.PredictableControl(lat, _LazySteps(lat.steps, compute))
            answers = control.is_deterministic(), control.is_deterministic()
            assert answers == ((True, True) if value is not None else (False, False))
            # a scan stops at its first step of two values; a second call scanned again
            assert calls == (list(range(lat.steps)) if value is not None else [0, 1])


def steep_dual(steps=24):
    """(lattice, the dual of a claim whose steep integrand clips nodes at the bound,
    the times its minimiser was called at)."""
    lat = gl.build_grid(1.0, steps)
    claim = gl.terminal_field(lat, lambda x: 2.0 * np.sin(3.0 * x) + np.maximum(x, 0.0))
    calls = []
    steep = gl.PenaltyIntegrand(
        "steep", lambda t, q: np.asarray(q, dtype=float) ** 2 / 80.0, np.inf, True,
        step_minimizer=lambda t, zed: calls.append(t) or -40.0 * np.asarray(zed, dtype=float))
    return lat, gl.dual_utility(steep, claim), calls


class TestClampFlagsOnRead:
    def test_flags_are_minimised_again_and_shared_with_the_control(self):
        lat, sol, calls = steep_dual()
        minimize = dual._step_minimizer(sol.integrand, lat)
        derived = [minimize(k, lat.increment(*lat.child_values(sol.u[k + 1])))[1]
                   for k in range(lat.steps)]
        clamping = [k for k, c in enumerate(derived) if c.any()]
        assert 0 < len(clamping) < lat.steps  # steps with and without clamped nodes
        calls.clear()
        flags = list(sol.clamped)
        # the sweep's tally is nonzero on exactly these steps, and only they run the minimiser
        assert calls == [lat.grid.time(k) for k in clamping]
        for got, want in zip(flags, derived, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        lat, sol, calls = steep_dual()  # a fresh solution: nothing read yet
        calls.clear()
        assert sol.any_clamped  # stops at the first step that clamped, its one minimiser run
        assert calls == [lat.grid.time(clamping[0])]
        lat, sol, calls = steep_dual()
        calls.clear()
        for k in range(lat.steps):
            before = len(calls)
            flags, _, again = sol.clamped[k], sol.argmin_control[k], sol.clamped[k]
            assert len(calls) == before + 1  # the control's run; a clamped step's flags share it
            assert flags is again


class TestResweepStep:
    def test_reads_sweep_again_with_the_second_step(self):
        lat = gl.build_grid(1.0, 16)
        first, again = [], []

        def recording(log):
            def step(k, down, up):
                log.append(k)
                return (down + up) * 0.5 + k
            return step

        top = gl.terminal_field(lat, np.sin)[16]
        steps = _swept_steps(lat, 16, top.copy(), recording(first), again=recording(again))
        plain = _swept_steps(lat, 16, top.copy(), recording([]))
        assert first == list(range(15, -1, -1)) and again == []
        for k in range(17):
            assert np.array_equal(steps[k], plain[k])
        assert first == list(range(15, -1, -1))  # every re-sweep ran the second step
        assert sorted(set(again)) == [k for k in range(16) if k % 4]  # all but the kept steps

    def test_utility_resweeps_skip_the_radius_check(self, monkeypatch):
        lat = gl.build_grid(1.0, 16)
        claim = gl.terminal_field(lat, np.sin)
        checked = []
        made = gl.bsde.driver_step

        def spying(driver, lattice, sign, *, check_radius=True):
            checked.append(check_radius)
            return made(driver, lattice, sign, check_radius=check_radius)

        monkeypatch.setattr(gl.bsde, "driver_step", spying)
        sol = gl.utility_solution(gl.entropic(1.0), claim)
        assert checked == [True, False]  # the first sweep's step, then the re-sweeps'
        reference = list(lat.sweep(16, claim[16].copy(), made(gl.entropic(1.0), lat, -1.0)))
        assert all(np.array_equal(sol.y[k], y) for k, y in reference)
