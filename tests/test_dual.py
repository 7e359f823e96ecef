import dataclasses
import math

import numpy as np
import pytest

import glattice as gl
from glattice.conjugate import PenaltyIntegrand
from conftest import max_field_diff


def origin_indicator():
    return PenaltyIntegrand(
        name="origin", evaluate=lambda t, q: np.where(np.asarray(q) == 0.0, 0.0, np.inf),
        domain_radius=0.0, zero_at_origin=True,
        step_minimizer=lambda t, zed: np.zeros_like(np.asarray(zed, dtype=float)))


def box_indicator(kappa, with_minimizer=True):
    minimizer = (lambda t, zed: -kappa * np.sign(np.asarray(zed, dtype=float))) \
        if with_minimizer else None
    return PenaltyIntegrand(
        name=f"box:{kappa}", evaluate=lambda t, q: np.where(
            np.abs(np.asarray(q)) <= kappa, 0.0, np.inf),
        domain_radius=kappa, zero_at_origin=True, step_minimizer=minimizer)


class TestDualUtility:
    def test_origin_indicator_gives_plain_expectation(self, rec8):
        rng = np.random.default_rng(0)
        xi = gl.terminal_field(rec8, rng.normal(size=9))
        sol = gl.dual_utility(origin_indicator(), xi)
        fair = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        for k in range(9):
            assert np.allclose(sol.u[k], gl.expectation_under(fair, xi, k)[k], atol=1e-14)
        assert all(np.all(q == 0.0) for q in sol.argmin_control.values)

    def test_gate_at_zero_without_minimiser_gives_plain_expectation(self):
        # domain radius 0 and no minimiser: golden section on a zero-width bracket
        lat = gl.build_grid(1.0, 32)
        xi = gl.terminal_field(lat, np.random.default_rng(3).normal(size=33))
        plain = dataclasses.replace(gl.fenchel(gl.entropic(1.0)), step_minimizer=None)
        gated = gl.truncate_integrand(plain, 0.0)
        assert gated.domain_radius == 0.0 and gated.step_minimizer is None
        sol = gl.dual_utility(gated, xi)
        fair = gl.density_from_control(gl.PredictableControl.constant(lat, 0.0))
        for k in range(33):
            assert np.array_equal(sol.u[k], gl.expectation_under(fair, xi, k)[k])
        assert all(np.all(q == 0.0) for q in sol.argmin_control.values)
        assert not sol.any_clamped

    def test_box_worst_case_drift(self):
        lat = gl.build_grid(1.0, 128)
        kappa = 0.4
        sol = gl.dual_utility(box_indicator(kappa), gl.terminal_field(lat, lambda x: x))
        assert float(sol.u[0][0]) == pytest.approx(-kappa, abs=1e-13)
        assert all(np.allclose(q, -kappa) for q in sol.argmin_control.values)
        # matches the driver-side recursion for the scaled-norm driver
        bsde_u = gl.utility(gl.abs_scaled(kappa), gl.terminal_field(lat, lambda x: x), 0)
        assert float(sol.u[0][0]) == pytest.approx(float(bsde_u[0][0]), abs=1e-12)

    def test_entropic_brownian(self):
        lat = gl.build_grid(1.0, 128)
        f = gl.fenchel(gl.entropic(1.0, radius=4.0))
        sol = gl.dual_utility(f, gl.terminal_field(lat, lambda x: x))
        assert float(sol.u[0][0]) == pytest.approx(-0.5, abs=1e-13)

    def test_golden_section_matches_analytic(self, rec8):
        rng = np.random.default_rng(1)
        xi = gl.terminal_field(rec8, rng.uniform(-1, 1, 9))
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        analytic = gl.dual_utility(f, xi)
        numeric = gl.dual_utility(dataclasses.replace(f, step_minimizer=None), xi)
        assert max_field_diff(analytic.u, numeric.u) <= 1e-9

    def test_clamping_is_flagged(self):
        lat = gl.build_grid(1.0, 4)  # admissibility bound 1/sqrt(dt) = 2
        f = gl.fenchel(gl.entropic(30.0, radius=8.0))
        sol = gl.dual_utility(f, gl.terminal_field(lat, lambda x: x))
        assert sol.any_clamped
        bound = (1 - 1e-6) / lat.sqrt_dt
        for q, clamped in zip(sol.argmin_control.values[:4], sol.clamped[:4]):
            assert np.all(np.abs(q[clamped]) == pytest.approx(bound, abs=1e-12))

    def test_unbounded_claim_rejected(self, rec8):
        vec = np.zeros(9)
        vec[0] = np.inf
        with pytest.raises(ValueError):
            gl.dual_utility(origin_indicator(), gl.AdaptedField(rec8, [vec], start=8))

    def test_nan_minimiser_is_an_error(self, rec8):
        # finite integrand values, so only the value recursion can see the NaN
        nan_minimiser = PenaltyIntegrand(
            name="nan", evaluate=lambda t, q: np.zeros_like(np.asarray(q, dtype=float)),
            domain_radius=math.inf, zero_at_origin=True,
            step_minimizer=lambda t, zed: np.full_like(zed, np.nan))
        xi = gl.terminal_field(rec8, np.arange(9.0))
        with pytest.raises(ValueError, match=r"NaN at node\(step=7, index=0\)"):
            gl.dual_utility(nan_minimiser, xi)


class TestDualityGap:
    @pytest.mark.parametrize("steps", [16, 256])
    def test_entropic_gap(self, steps):
        lat = gl.build_grid(1.0, steps)
        gap = gl.duality_gap(gl.entropic(1.0, radius=4.0),
                             gl.terminal_field(lat, lambda x: x))
        assert gap <= 1e-10

    @pytest.mark.parametrize("steps", [16, 256])
    def test_abs_gap_on_kinked_claim(self, steps):
        lat = gl.build_grid(1.0, steps)
        gap = gl.duality_gap(gl.abs_scaled(0.5), gl.terminal_field(lat, np.abs))
        assert gap <= 1e-10

    def test_zero_driver_gap_vanishes(self, rec8):
        rng = np.random.default_rng(2)
        gap = gl.duality_gap(gl.zero(), gl.terminal_field(rec8, rng.normal(size=9)))
        assert gap == 0.0

    def test_interval_driver_gap(self, rec64):
        gap = gl.duality_gap(gl.interval(-0.2, 0.7), gl.terminal_field(rec64, np.abs))
        assert gap <= 1e-10


class TestTruncatedUtility:
    def test_level_zero_is_plain_expectation(self, rec8):
        rng = np.random.default_rng(3)
        xi = gl.terminal_field(rec8, rng.uniform(-1, 1, 9))
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        gated = gl.truncated_utility(f, xi, 0.0)
        fair = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        assert np.allclose(gated.u[0], gl.expectation_under(fair, xi, 0)[0], atol=1e-14)

    def test_never_exceeds_plain_expectation(self, rec8):
        rng = np.random.default_rng(4)
        xi = gl.terminal_field(rec8, rng.uniform(-1, 1, 9))
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        fair = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        for level in (0.0, 0.5, 1.0, 3.0):
            gated = gl.truncated_utility(f, xi, level)
            for k in range(9):
                assert np.all(gated.u[k] <= gl.expectation_under(fair, xi, k)[k] + 1e-12)

    def test_saturating_level_reproduces_full_solution(self, rec8):
        rng = np.random.default_rng(5)
        xi = gl.terminal_field(rec8, rng.uniform(-1, 1, 9))
        f = gl.fenchel(gl.entropic(1.0, radius=2.0))  # domain radius 2
        full = gl.dual_utility(f, xi)
        gated = gl.truncated_utility(f, xi, 2.0)
        assert max_field_diff(full.u, gated.u) <= 1e-12


class TestMonotoneUtility:
    def test_entropic_levels_decreasing_until_saturation(self):
        lat = gl.build_grid(1.0, 32)
        xi = gl.terminal_field(lat, lambda x: x)
        f = gl.fenchel(gl.entropic(1.0, radius=4.0))
        report = gl.monotone_utility_check(f, xi, [0.0, 1.0, 2.0, 4.0])
        assert report.passed
        sols = [gl.truncated_utility(f, xi, n) for n in (0.0, 1.0)]
        assert float(sols[1].u[0][0]) < float(sols[0].u[0][0]) - 1e-3  # strict before saturation

    def test_constant_claim_fixes_all_levels(self, rec8):
        xi = gl.AdaptedField.constant(rec8, 2.0, step=8)
        f = gl.fenchel(gl.entropic(1.0, radius=4.0))
        report = gl.monotone_utility_check(f, xi, [0.0, 1.0, 4.0])
        assert report.passed
        for level in (0.0, 1.0, 4.0):
            sol = gl.truncated_utility(f, xi, level)
            assert all(np.all(v == 2.0) for v in sol.u.values)
            assert all(np.all(q == 0.0) for q in sol.argmin_control.values)

    def test_origin_indicator_levels_identical(self, rec8):
        rng = np.random.default_rng(6)
        xi = gl.terminal_field(rec8, rng.uniform(-1, 1, 9))
        report = gl.monotone_utility_check(origin_indicator(), xi, [0.5, 1.0, 2.0])
        assert report.passed


class TestWorstCaseControl:
    def test_box_integrand_hits_lower_endpoint(self):
        lat = gl.build_grid(1.0, 64)
        q = gl.worst_case_control(box_indicator(0.4), gl.terminal_field(lat, lambda x: x))
        assert all(np.allclose(v, -0.4, atol=1e-14) for v in q.values)

    def test_constant_claim_needs_no_drift(self, rec8):
        q = gl.worst_case_control(gl.fenchel(gl.entropic(1.0, radius=4.0)),
                                  gl.AdaptedField.constant(rec8, 1.0, step=8))
        assert all(np.all(v == 0.0) for v in q.values)

    def test_entropic_brownian_drift_minus_gamma(self):
        lat = gl.build_grid(1.0, 64)
        gamma = 1.0
        q = gl.worst_case_control(gl.fenchel(gl.entropic(gamma, radius=4.0)),
                                  gl.terminal_field(lat, lambda x: x))
        assert all(np.allclose(v, -gamma, atol=1e-10) for v in q.values)

    def test_replay_reproduces_dual_value(self, rec64):
        # worst-case control plugged into expectation + penalty recovers u_0
        xi = gl.terminal_field(rec64, np.abs)
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        sol = gl.dual_utility(f, xi)
        q_star = sol.argmin_control
        Q_star = gl.density_from_control(q_star)
        value = float(gl.expectation_under(Q_star, xi, 0)[0][0]) \
            + gl.penalty_formula(f, Q_star, 0, 64).initial()
        assert value == pytest.approx(float(sol.u[0][0]), abs=1e-10)


class TestDualStructure:
    def test_first_order_optimality(self, rec8):
        rng = np.random.default_rng(7)
        xi = gl.terminal_field(rec8, rng.uniform(-1, 1, 9))
        for f in [gl.fenchel(gl.entropic(1.0, radius=8.0)), box_indicator(0.4),
                  dataclasses.replace(gl.fenchel(gl.entropic(1.0, radius=8.0)),
                                      step_minimizer=None)]:
            sol = gl.dual_utility(f, xi)
            assert gl.first_order_optimality(sol) <= 1e-10

    def test_time_consistency_restart(self, rec64):
        xi = gl.terminal_field(rec64, np.abs)
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        full = gl.dual_utility(f, xi)
        mid = 24
        restart = gl.dual_utility(f, full.u.single(mid))
        for k in range(mid + 1):
            assert np.allclose(restart.u[k], full.u[k], atol=1e-12)

    def test_local_property(self, full6):
        rng = np.random.default_rng(8)
        xi = rng.uniform(-1, 1, 64)
        eta = rng.uniform(-1, 1, 64)
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        k = 3
        event = rng.uniform(size=8) < 0.5
        lifted = event[full6.terminal_ancestors(k)]
        mixed = gl.dual_utility(f, gl.terminal_field(full6, np.where(lifted, xi, eta)))
        u_xi = gl.dual_utility(f, gl.terminal_field(full6, xi))
        u_eta = gl.dual_utility(f, gl.terminal_field(full6, eta))
        expected = np.where(event, u_xi.u[k], u_eta.u[k])
        assert np.allclose(mixed.u[k], expected, atol=1e-13)
