import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice.drivers import Driver
from conftest import max_field_diff


def one_step_residual(solution):
    """Largest violation of the defining one-step recursion, over every node."""
    lat = solution.y.lattice
    worst = 0.0
    for k in range(solution.y.stop):
        down, up = lat.child_values(solution.y[k + 1])
        z = (up - down) / (2 * lat.sqrt_dt)
        recon = (up + down) / 2 + np.asarray(
            solution.driver(lat.grid.time(k), z), dtype=float) * lat.dt
        worst = max(worst, float(np.max(np.abs(solution.y[k] - recon))),
                    float(np.max(np.abs(solution.z[k] - z))))
    return worst


class TestSolve:
    def test_one_step_identity_everywhere(self, rec8):
        rng = np.random.default_rng(0)
        xi = gl.terminal_field(rec8, rng.normal(size=9))
        sol = gl.solve(gl.entropic(0.5, radius=16.0), xi)
        assert one_step_residual(sol) <= 1e-14

    def test_zero_driver_is_plain_expectation(self, rec8):
        rng = np.random.default_rng(1)
        xi = gl.terminal_field(rec8, rng.normal(size=9))
        sol = gl.solve(gl.zero(), xi)
        fair = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        for k in range(9):
            expected = gl.expectation_under(fair, xi, k)[k]
            assert np.allclose(sol.y[k], expected, atol=1e-14)

    def test_constant_terminal_propagates(self, rec8):
        sol = gl.solve(gl.entropic(1.0, radius=4.0),
                       gl.AdaptedField.constant(rec8, 3.0, step=8))
        assert all(np.all(v == 3.0) for v in sol.y.values)
        assert all(np.all(v == 0.0) for v in sol.z.values)

    def test_entropic_brownian_closed_form_exact(self):
        # constant increment field makes the quadratic recursion exact at any depth
        for steps in (4, 64, 512):
            lat = gl.build_grid(1.0, steps)
            y0 = gl.g_expectation(gl.entropic(1.0, radius=4.0),
                                  gl.terminal_field(lat, lambda x: x))
            assert y0 == pytest.approx(0.5, abs=1e-13)

    def test_unbounded_terminal_refused(self, rec8):
        vec = np.zeros(9)
        vec[3] = np.nan
        with pytest.raises(ValueError, match="essentially bounded"):
            gl.solve(gl.zero(), gl.AdaptedField(rec8, [vec], start=8))

    def test_validity_radius_breach_reports_node(self):
        lat = gl.build_grid(1.0, 4)
        rough = gl.terminal_field(lat, [0.0, 5.0, -5.0, 5.0, 0.0])
        with pytest.raises(gl.ValidityRadiusError) as err:
            gl.solve(gl.entropic(1.0, radius=2.0), rough)
        assert err.value.radius == 2.0

    @given(seed=st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_comparison_theorem(self, seed):
        lat = gl.build_grid(1.0, 8)
        rng = np.random.default_rng(seed)
        xi = rng.uniform(-1, 1, 9)
        eta = xi + rng.uniform(0, 1, 9)
        lower = gl.solve(gl.abs_scaled(0.5), gl.terminal_field(lat, xi))
        upper = gl.solve(gl.abs_scaled(0.5), gl.terminal_field(lat, eta))
        assert all(np.all(a <= b + 1e-12) for a, b in zip(lower.y.values, upper.y.values))

    def test_constant_translation_exact(self, rec8):
        rng = np.random.default_rng(3)
        xi = rng.normal(size=9)
        base = gl.solve(gl.interval(-0.2, 0.7), gl.terminal_field(rec8, xi))
        shifted = gl.solve(gl.interval(-0.2, 0.7), gl.terminal_field(rec8, xi + 2.5))
        assert max_field_diff(shifted.y, gl.AdaptedField(
            rec8, [v + 2.5 for v in base.y.values])) <= 1e-12

    def test_nan_driver_output_is_an_error(self, rec8):
        nan_driver = Driver(name="nan", evaluate=lambda t, z: np.where(
            np.asarray(z) > 0.0, np.nan, 0.0), lipschitz=None, convex=True)
        xi = gl.terminal_field(rec8, np.arange(9.0))
        with pytest.raises(ValueError, match=r"NaN at node\(step=7, index=0\)"):
            gl.solve(nan_driver, xi)
        with pytest.raises(ValueError, match="NaN"):
            gl.g_expectation(nan_driver, xi)


class TestMirroredStep:
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 6),
           spec=st.sampled_from(["abs:0.5", "entropic:1", "linear:0.3"]),
           topology=st.sampled_from(list(gl.TreeTopology)))
    @settings(max_examples=60, deadline=None)
    def test_utility_is_negated_solve_of_negated_claim(self, seed, steps, spec, topology):
        lat = gl.build_grid(1.0, steps, topology)
        xi = np.random.default_rng(seed).uniform(-1.0, 1.0, lat.node_count(steps))
        driver = gl.parse_spec(spec)
        u = gl.utility_solution(driver, gl.terminal_field(lat, xi))
        mirror = gl.solve(driver, gl.terminal_field(lat, -xi))
        for k in range(steps + 1):
            assert np.array_equal(u.y[k], -mirror.y[k])
        for k in range(steps):
            assert np.array_equal(u.z[k], -mirror.z[k])


class TestDerivedIncrements:
    @pytest.mark.parametrize("topology", list(gl.TreeTopology))
    def test_z_is_what_the_driver_was_handed(self, topology):
        lat = gl.build_grid(1.0, 6, topology)
        xi = gl.terminal_field(lat, np.random.default_rng(3).uniform(-1.0, 1.0, lat.node_count(6)))
        base = gl.entropic(1.0, radius=16.0)
        for solver, sign in ((gl.solve, 1.0), (gl.utility_solution, -1.0)):
            handed = []

            def recording(t, z):
                handed.append(np.array(z))
                return base.evaluate(t, z)

            sol = solver(dataclasses.replace(base, evaluate=recording), xi)
            assert len(handed) == 6
            for k, z in enumerate(reversed(handed)):
                assert np.array_equal(sol.z[k], sign * z)

    def test_no_increments_for_a_root_claim(self, rec8):
        assert gl.solve(gl.zero(), gl.AdaptedField.constant(rec8, 1.0, 0)).z is None


class TestGExpectation:
    def test_zero_driver(self, rec8):
        rng = np.random.default_rng(4)
        xi = gl.terminal_field(rec8, rng.normal(size=9))
        fair = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        assert gl.g_expectation(gl.zero(), xi) == pytest.approx(
            float(gl.expectation_under(fair, xi, 0)[0][0]), abs=1e-14)

    def test_terminal_step_returns_claim(self, rec8):
        xi = gl.terminal_field(rec8, np.abs)
        out = gl.conditional_g_expectation(gl.abs_scaled(0.5), xi, 8)
        assert np.array_equal(out[8], xi[8])

    def test_scaled_abs_brownian_is_worst_drift(self):
        # E_g(B_T) with the scaled-norm driver equals the best drift mu*T exactly;
        # cross-checked against the dual recursion (max_Q E_Q[B_T] over |q| <= mu)
        lat = gl.build_grid(1.0, 64)
        mu = 0.5
        xi = gl.terminal_field(lat, lambda x: x)
        direct = gl.g_expectation(gl.abs_scaled(mu), xi)
        assert direct == pytest.approx(mu * 1.0, abs=1e-13)
        flipped = gl.terminal_field(lat, lambda x: -x)
        dual_value = -float(gl.dual_utility(gl.fenchel(gl.abs_scaled(mu)), flipped).u[0][0])
        assert direct == pytest.approx(dual_value, abs=1e-12)


class TestUtility:
    def test_zero_driver_utility_is_expectation(self, rec8):
        rng = np.random.default_rng(5)
        xi = gl.terminal_field(rec8, rng.normal(size=9))
        fair = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        got = gl.utility(gl.zero(), xi, 0)
        assert float(got[0][0]) == pytest.approx(
            float(gl.expectation_under(fair, xi, 0)[0][0]), abs=1e-14)

    def test_entropic_brownian_utility(self):
        lat = gl.build_grid(1.0, 256)
        u0 = gl.utility(gl.entropic(1.0, radius=4.0),
                        gl.terminal_field(lat, lambda x: x), 0)
        assert float(u0[0][0]) == pytest.approx(-0.5, abs=1e-13)

    def test_kappa_ignorance_brownian_utility(self):
        lat = gl.build_grid(1.0, 256)
        u0 = gl.utility(gl.abs_scaled(0.5), gl.terminal_field(lat, lambda x: x), 0)
        assert float(u0[0][0]) == pytest.approx(-0.5, abs=1e-13)

    def test_nan_driver_output_is_an_error(self, rec8):
        nan_driver = Driver(name="nan", evaluate=lambda t, z: np.where(
            np.asarray(z) < 0.0, np.nan, 0.0), lipschitz=None, convex=True)
        xi = gl.terminal_field(rec8, np.arange(9.0))
        with pytest.raises(ValueError, match=r"NaN at node\(step=7, index=0\)"):
            gl.utility_solution(nan_driver, xi)
        with pytest.raises(ValueError, match="NaN"):
            gl.utility(nan_driver, xi, 0)


class TestRecoverDriver:
    @pytest.mark.parametrize("driver", [
        gl.zero(), gl.abs_scaled(0.5), gl.entropic(1.0, radius=8.0),
        gl.linear(0.3), gl.interval(-0.2, 0.7)], ids=lambda d: d.name)
    def test_reproduces_builtin(self, driver):
        lat = gl.build_grid(1.0, 8)
        op = gl.make_utility_operator(driver)
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = float(rng.uniform(-2.5, 2.5))
            k = int(rng.integers(0, 8))
            got = gl.recover_driver(op, lat, z, k)
            want = float(driver(lat.grid.time(k), z))
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_driver_recovers_zero(self):
        lat = gl.build_grid(1.0, 4)
        op = gl.make_utility_operator(gl.zero())
        for z in (-1.0, 0.3, 2.0):
            assert gl.recover_driver(op, lat, z, 1) == pytest.approx(0.0, abs=1e-14)

    def test_one_step_hand_evaluation_linear(self):
        # direct single-step algebra: claim -z*B_1 solves to g(z)*dt at the root
        lat = gl.build_grid(0.5, 1)
        slope, z = 0.3, 2.0
        op = gl.make_utility_operator(gl.linear(slope))
        got = gl.recover_driver(op, lat, z, 0)
        sdt = lat.sqrt_dt
        by_hand = -((-z * sdt + z * sdt) / 2 + slope * (-z) * lat.dt) / lat.dt
        assert got == pytest.approx(by_hand, abs=1e-14)
        assert got == pytest.approx(slope * z, abs=1e-14)

    def test_works_on_full_binary_too(self, full6):
        op = gl.make_utility_operator(gl.entropic(1.0, radius=8.0))
        assert gl.recover_driver(op, full6, 1.5, 2) == pytest.approx(1.125, abs=1e-12)


class TestAxiomSuite:
    def test_entropic_suite_passes(self, full8):
        report = gl.axiom_suite(gl.entropic(0.5, radius=4.0), full8, trials=500,
                                seed=0, claim_bound=0.5)
        assert report.passed, report.summary()

    def test_unit_gamma_entropic_suite_passes(self, full8):
        # claims bounded so the one-step map stays monotone (slope*sqrt(dt) < 1)
        report = gl.axiom_suite(gl.entropic(1.0, radius=4.0), full8, trials=500,
                                seed=13, claim_bound=0.45, domination_lipschitz=2.5)
        assert report.passed, report.summary()

    def test_abs_suite_includes_positive_homogeneity(self, full8):
        report = gl.axiom_suite(gl.abs_scaled(0.5), full8, trials=300, seed=1)
        assert "positive_homogeneity" in report.checks
        assert report.passed, report.summary()

    def test_entropic_has_no_homogeneity_check(self, full8):
        report = gl.axiom_suite(gl.entropic(0.5, radius=4.0), full8, trials=5,
                                seed=2, claim_bound=0.5)
        assert "positive_homogeneity" not in report.checks

    def test_non_convex_driver_fails_concavity(self, full8):
        bad = Driver(name="designed-failure",
                     evaluate=lambda t, z: -np.asarray(z, dtype=float) ** 2 / 2.0,
                     lipschitz=4.0, convex=True, validity_radius=8.0)
        report = gl.axiom_suite(bad, full8, trials=40, seed=3)
        assert report.checks["concavity"].violations > 0
        assert not report.passed

    def test_requires_full_binary(self, rec8):
        with pytest.raises(ValueError, match="full binary"):
            gl.axiom_suite(gl.zero(), rec8, trials=1, seed=0)

    def test_seed_reproducibility(self, full8):
        a = gl.axiom_suite(gl.abs_scaled(0.5), full8, trials=50, seed=9)
        b = gl.axiom_suite(gl.abs_scaled(0.5), full8, trials=50, seed=9)
        assert all(a.checks[k].worst == b.checks[k].worst for k in a.checks)


class TestAxiomSuiteSummary:
    def test_failing_suite_names_each_check(self, full3):
        # concave, labelled convex: concavity fails on every trial
        concave = Driver("concave", lambda t, z: -np.square(np.asarray(z, dtype=float)) / 2.0,
                         lipschitz=4.0, convex=True, validity_radius=4.0)
        report = gl.axiom_suite(concave, full3, trials=20, seed=0, claim_bound=0.5)
        head, *rows = report.summary().splitlines()
        assert head == "axiom suite for concave: FAIL (20 trials)"
        assert [row.split()[0] for row in rows] == list(report.checks)
        violations = report.checks["concavity"].violations
        assert violations > 0
        assert rows[list(report.checks).index("concavity")].split()[1] == f"violations={violations}"
