import dataclasses
import math

import numpy as np
import pytest

import glattice as gl
from glattice import dual
from glattice.cli import INTEGRANDS
from glattice.conjugate import PenaltyIntegrand
from glattice.lattice import field_max
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
        q = gl.dual_utility(box_indicator(0.4), gl.terminal_field(lat, lambda x: x)).argmin_control
        assert all(np.allclose(v, -0.4, atol=1e-14) for v in q.values)

    def test_constant_claim_needs_no_drift(self, rec8):
        q = gl.dual_utility(gl.fenchel(gl.entropic(1.0, radius=4.0)),
                            gl.AdaptedField.constant(rec8, 1.0, step=8)).argmin_control
        assert all(np.all(v == 0.0) for v in q.values)

    def test_entropic_brownian_drift_minus_gamma(self):
        lat = gl.build_grid(1.0, 64)
        gamma = 1.0
        q = gl.dual_utility(gl.fenchel(gl.entropic(gamma, radius=4.0)),
                            gl.terminal_field(lat, lambda x: x)).argmin_control
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


def reference_golden_dual(integrand, terminal):
    """The golden-section dual recursion, probing c and d in two objective calls.

    Returns the value field's steps from N down to 0, the controls from step
    N-1 down to 0, and whether any probe cost +inf.
    """
    lat = terminal.lattice
    bound = (1.0 - dual.ADMISSIBILITY_MARGIN) / lat.sqrt_dt
    low, high = max(-integrand.domain_radius, -bound), min(integrand.domain_radius, bound)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    controls = []
    met_inf = []

    def step(k, down, up):
        zed = lat.increment(down, up)
        t = lat.grid.time(k)

        def objective(qq):
            return qq * zed + np.asarray(integrand(t, qq), dtype=float)

        a, b = np.full_like(zed, low), np.full_like(zed, high)
        iters = max(1, int(math.ceil(math.log(dual.GOLDEN_TOL / (high - low)) / math.log(invphi))))
        for _ in range(iters):
            h = b - a
            c = b - invphi * h
            d = a + invphi * h
            at_c, at_d = objective(c), objective(d)
            met_inf.append(bool(np.any(np.isinf(at_c)) or np.any(np.isinf(at_d))))
            keep_left = at_c < at_d
            b = np.where(keep_left, d, b)
            a = np.where(keep_left, a, c)
        q = (a + b) / 2.0
        controls.append(q)
        return (up + down) / 2.0 + (q * zed + np.asarray(integrand(t, q), dtype=float)) * lat.dt

    values = [u for _, u in lat.sweep(lat.steps, terminal.bounded_values().copy(), step)]
    return values, controls, any(met_inf)


class TestGoldenSectionBitwise:
    """Both probes in one objective call give the bits of one call per probe."""

    plain = dataclasses.replace(gl.fenchel(gl.entropic(1.0)), step_minimizer=None)
    integrands = {
        "entropic": plain,
        # the bracket does not know the gate, so the search meets +inf inside it
        "undeclared_gate": dataclasses.replace(gl.truncate_integrand(plain, 1.25),
                                               domain_radius=math.inf),
        "numeric_conjugate": gl.fenchel(dataclasses.replace(
            gl.entropic(1.0, radius=4.0), conjugate=None, step_minimizer=None)),
    }

    @pytest.mark.parametrize("name", sorted(integrands))
    @pytest.mark.parametrize("topology,steps", [(gl.TreeTopology.RECOMBINING, 8),
                                                (gl.TreeTopology.FULL_BINARY, 5)])
    def test_matches_one_call_per_probe(self, name, topology, steps):
        integrand = self.integrands[name]
        assert integrand.step_minimizer is None
        lat = gl.build_grid(1.0, steps, topology)
        xi = gl.terminal_field(lat, lambda x: 0.6 * np.sin(2.0 * x))
        sol = gl.dual_utility(integrand, xi)
        values, controls, met_inf = reference_golden_dual(integrand, xi)
        assert met_inf == (name == "undeclared_gate")
        for k in range(steps + 1):
            assert np.array_equal(sol.u[k], values[steps - k]), k
        for k in range(steps):
            assert np.array_equal(sol.argmin_control[k], controls[steps - 1 - k]), k


def full_field_prices(driver, integrand, terminal):
    """The five values of `compare_prices`, reduced from the two full fields."""
    primal = gl.utility_solution(driver, terminal).y
    sol = gl.dual_utility(integrand, terminal)
    gap = field_max(lambda a, b: np.abs(a - b), primal, sol.u)
    return (float(primal[0][0]), float(sol.u[0][0]), gap, float(sol.argmin_control[0][0]),
            sum(int(np.sum(c)) for c in sol.clamped))


def full_field_monotone(integrand, terminal, levels):
    """(order violation, saturation gap) of `monotone_utility_check`, from full fields."""
    solutions = [gl.truncated_utility(integrand, terminal, n) for n in levels]
    worst_order = 0.0
    for low, high in zip(solutions, solutions[1:]):
        worst_order = max(worst_order, field_max(lambda a, b: b - a, low.u, high.u))
    worst_sat = math.inf
    if levels[-1] >= integrand.domain_radius:
        full = gl.dual_utility(integrand, terminal)
        worst_sat = field_max(lambda a, b: np.abs(a - b), solutions[-1].u, full.u)
    return worst_order, worst_sat


def two_pass_optimality(solution):
    """`first_order_optimality` with one integrand call per probe sign."""
    lat = solution.u.lattice
    worst = -math.inf
    for k in range(solution.u.stop):
        down, up = lat.child_values(solution.u[k + 1])
        zed = lat.increment(down, up)
        t = lat.grid.time(k)
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


def bits(values):
    return [np.float64(v).tobytes() for v in values]


LOCK_STEP_INTEGRANDS = {
    "analytic": lambda driver: gl.fenchel(driver),
    "golden": lambda driver: dataclasses.replace(gl.fenchel(driver), step_minimizer=None),
    "box": lambda driver: INTEGRANDS["box"](driver, 0.5),
    "origin": lambda driver: INTEGRANDS["origin"](driver),
    "quadratic": lambda driver: INTEGRANDS["quadratic"](driver, 2.0),
    "clamping": lambda driver: INTEGRANDS["quadratic"](driver, 50.0),
    # a minimiser of the wrong sign: larger gates raise the value, and probes improve on it
    "misdirected": lambda driver: dataclasses.replace(
        INTEGRANDS["quadratic"](driver, 1.0), step_minimizer=lambda t, zed: np.asarray(zed)),
}


class TestLockStepComparisons:
    """The lock-step reductions give the bits of the full-field references."""

    driver = gl.entropic(1.0, radius=64.0)

    @staticmethod
    def claim(topology, steps, at):
        lat = gl.build_grid(1.0, steps, topology)
        values = 0.6 * np.sin(2.0 * lat.level_values(at)) + np.maximum(lat.level_values(at), 0.0)
        return gl.AdaptedField(lat, [values], start=at)

    @pytest.mark.parametrize("name", sorted(LOCK_STEP_INTEGRANDS))
    @pytest.mark.parametrize("topology,steps,at", [
        (gl.TreeTopology.RECOMBINING, 16, 16), (gl.TreeTopology.RECOMBINING, 16, 11),
        (gl.TreeTopology.FULL_BINARY, 6, 6), (gl.TreeTopology.FULL_BINARY, 6, 4)])
    def test_compare_prices(self, name, topology, steps, at):
        integrand = LOCK_STEP_INTEGRANDS[name](self.driver)
        terminal = self.claim(topology, steps, at)
        lock_step = dual.compare_prices(self.driver, integrand, terminal)
        reference = full_field_prices(self.driver, integrand, terminal)
        assert bits(lock_step) == bits(reference)
        assert type(lock_step[4]) is int
        assert lock_step[4] > 0 or name != "clamping"

    @pytest.mark.parametrize("name", ["analytic", "golden"])
    @pytest.mark.parametrize("topology,steps,at", [
        (gl.TreeTopology.RECOMBINING, 32, 32), (gl.TreeTopology.FULL_BINARY, 6, 5)])
    def test_duality_gap(self, name, topology, steps, at):
        terminal = self.claim(topology, steps, at)
        gap = gl.duality_gap(self.driver, terminal)
        assert bits([gap]) == bits([full_field_prices(self.driver, gl.fenchel(self.driver),
                                                      terminal)[2]])
        integrand = LOCK_STEP_INTEGRANDS[name](self.driver)
        assert dual.compare_prices(self.driver, integrand, terminal)[2] <= 1e-9

    def test_claim_at_step_zero(self):
        terminal = self.claim(gl.TreeTopology.RECOMBINING, 8, 0)
        integrand = LOCK_STEP_INTEGRANDS["clamping"](self.driver)
        lock_step = dual.compare_prices(self.driver, integrand, terminal)
        assert bits(lock_step) == bits(full_field_prices(self.driver, integrand, terminal))
        assert lock_step[3:] == (0.0, 0)

    @pytest.mark.parametrize("name", ["analytic", "golden", "box", "origin", "misdirected"])
    @pytest.mark.parametrize("levels", [(0.0, 0.5, 1.0, 64.0), (0.25, 1.0)])
    @pytest.mark.parametrize("topology,steps,at", [
        (gl.TreeTopology.RECOMBINING, 16, 13), (gl.TreeTopology.FULL_BINARY, 5, 5)])
    def test_monotone_utility_check(self, name, levels, topology, steps, at):
        integrand = LOCK_STEP_INTEGRANDS[name](self.driver)
        terminal = self.claim(topology, steps, at)
        report = gl.monotone_utility_check(integrand, terminal, levels)
        reference = full_field_monotone(integrand, terminal, levels)
        assert bits([report.worst_order_violation, report.worst_saturation_gap]) == bits(reference)
        saturating = levels[-1] >= integrand.domain_radius
        assert math.isinf(report.worst_saturation_gap) != saturating
        assert report.decreasing == (name != "misdirected")

    @pytest.mark.parametrize("name", sorted(LOCK_STEP_INTEGRANDS))
    @pytest.mark.parametrize("topology,steps,at", [
        (gl.TreeTopology.RECOMBINING, 16, 12), (gl.TreeTopology.FULL_BINARY, 6, 6)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])  # the claim rising or falling
    def test_first_order_optimality(self, name, topology, steps, at, sign):
        claim = self.claim(topology, steps, at)
        claim = gl.AdaptedField(claim.lattice, [sign * claim[at]], start=at)
        solution = gl.dual_utility(LOCK_STEP_INTEGRANDS[name](self.driver), claim)
        assert bits([gl.first_order_optimality(solution)]) == bits([two_pass_optimality(solution)])

    def test_radius_breach_names_its_node(self):
        terminal = self.claim(gl.TreeTopology.RECOMBINING, 16, 16)
        narrow = gl.entropic(1.0, radius=0.5)
        with pytest.raises(gl.ValidityRadiusError) as full_field:
            gl.utility_solution(narrow, terminal)
        with pytest.raises(gl.ValidityRadiusError, match=r"node\(step=15, index=") as lock_step:
            dual.compare_prices(narrow, gl.fenchel(narrow), terminal)
        assert str(lock_step.value) == str(full_field.value)

    def test_nan_names_its_node(self, rec8):
        nan_minimiser = PenaltyIntegrand(
            name="nan", evaluate=lambda t, q: np.zeros_like(np.asarray(q, dtype=float)),
            domain_radius=math.inf, zero_at_origin=True,
            step_minimizer=lambda t, zed: np.full_like(zed, np.nan))
        xi = gl.terminal_field(rec8, np.arange(9.0))
        with pytest.raises(ValueError, match=r"NaN at node\(step=7, index=0\)"):
            dual.compare_prices(gl.zero(), nan_minimiser, xi)
        # the gate prices a NaN control at +inf, so the gated sweep stops at the same node
        with pytest.raises(ValueError, match=r"node\(step=7, index=0\)"):
            gl.monotone_utility_check(nan_minimiser, xi, [1.0])


def counting_ungated_calls(integrand):
    """`integrand`, recording every call made on it but not on its gated copies."""
    calls = []

    class Counted(type(integrand)):
        def __call__(self, t, q):
            if self.name == integrand.name:  # `truncate_integrand` renames each gate
                calls.append(t)
            return super().__call__(t, q)

    fields = {field.name: getattr(integrand, field.name) for field in dataclasses.fields(integrand)}
    return Counted(**fields), calls


class TestMonotoneUtilitySweepsTheFullIntegrandOnlyToSaturate:
    @pytest.mark.parametrize("levels, saturating", [((0.5, 1.0, 2.0), False),
                                                    ((0.5,), False),
                                                    ((1.0, 4.0), True)])
    def test_full_integrand_evaluations(self, levels, saturating):
        lat = gl.build_grid(1.0, 32)
        xi = gl.terminal_field(lat, lambda x: np.maximum(x - 0.2, 0.0))
        f, calls = counting_ungated_calls(gl.fenchel(gl.entropic(1.0, radius=4.0)))
        report = gl.monotone_utility_check(f, xi, levels)
        assert len(calls) == (lat.steps if saturating else 0)  # one call a step at its minimiser
        calls.clear()
        worst_order, worst_sat = full_field_monotone(f, xi, levels)
        assert report.worst_order_violation == worst_order
        assert report.worst_saturation_gap == worst_sat
        assert report.saturates is saturating and math.isinf(worst_sat) is not saturating

    def test_no_level_sweeps_nothing(self, rec8):
        f, calls = counting_ungated_calls(gl.fenchel(gl.entropic(1.0, radius=4.0)))
        report = gl.monotone_utility_check(f, gl.terminal_field(rec8, np.abs), [])
        assert not calls
        assert (report.worst_order_violation, report.worst_saturation_gap) == (0.0, math.inf)
        with pytest.raises(ValueError, match="not essentially bounded"):
            gl.monotone_utility_check(f, gl.AdaptedField(rec8, [np.full(9, np.inf)], start=8), [])
