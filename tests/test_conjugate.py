import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice import conjugate
from glattice.conjugate import PenaltyIntegrand
from glattice.drivers import Driver


def brute_force_conjugate(driver, q, z_lo, z_hi, points=200001, t=0.0):
    """Independent oracle: dense single-pass grid sup of q*z - g(z)."""
    zs = np.linspace(z_lo, z_hi, points)
    return float(np.max(q * zs - np.asarray(driver(t, zs), dtype=float)))


def reference_grid_sup(fun, t, slopes, radius, dim=1, points=None, passes=2):
    """The grid sup refined one slope row at a time, as the library did before batching."""
    from glattice.conjugate import GRID_POINTS_PER_AXIS, REFINE_POINTS_PER_AXIS, _tensor_grid

    def local_grid(center, half_width, per_axis):
        if dim == 1:
            lo = max(float(center) - half_width, -radius)
            hi = min(float(center) + half_width, radius)
            return np.linspace(lo, hi, per_axis)
        axes = [np.linspace(max(c - half_width, -radius), min(c + half_width, radius), per_axis)
                for c in np.atleast_1d(center)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    slopes_arr = np.asarray(slopes, dtype=float)
    single = slopes_arr.ndim == 0 if dim == 1 else slopes_arr.ndim == 1
    rows = np.atleast_1d(slopes_arr) if dim == 1 else np.atleast_2d(slopes_arr)
    per_axis = points if points is not None else GRID_POINTS_PER_AXIS[dim]
    pts = _tensor_grid(radius, dim, per_axis)
    fvals = np.asarray(fun(t, pts), dtype=float)
    cross = rows[:, None] * pts[None, :] if dim == 1 else rows @ pts.T
    scores = cross - fvals[None, :]
    scores[:, ~np.isfinite(fvals)] = -np.inf
    arg = np.argmax(scores, axis=1)
    best = scores[np.arange(rows.shape[0]), arg]
    spacing = 2.0 * radius / (per_axis - 1) if per_axis > 1 else radius
    refine_axis = REFINE_POINTS_PER_AXIS[dim]
    for i in range(rows.shape[0]):
        center = pts[arg[i]]
        width = spacing
        for _ in range(passes):
            local = local_grid(center, width, refine_axis)
            lvals = np.asarray(fun(t, local), dtype=float)
            lscores = (rows[i] * local if dim == 1 else local @ rows[i]) - lvals
            lscores[~np.isfinite(lvals)] = -np.inf
            j = int(np.argmax(lscores))
            if lscores[j] > best[i]:
                best[i] = lscores[j]
                center = local[j]
            width = 2.0 * width / (refine_axis - 1)
    return best[0] if single else best


def without_analytics(driver):
    """Strip analytic companions to force the numeric conjugation path."""
    return dataclasses.replace(driver, conjugate=None, step_minimizer=None)


class TestFenchel:
    def test_zero_driver_gives_origin_indicator(self):
        f = gl.fenchel(gl.zero())
        assert float(f(0.0, 0.0)) == 0.0
        assert math.isinf(float(f(0.0, 0.3)))
        assert f.domain_radius == 0.0

    def test_abs_driver_gives_interval_indicator(self):
        f = gl.fenchel(gl.abs_scaled(0.7))
        qs = np.linspace(-0.7, 0.7, 15)
        assert np.all(np.asarray(f(0.0, qs)) == 0.0)
        assert math.isinf(float(f(0.0, 0.71)))
        assert math.isinf(float(f(0.0, -2.0)))

    def test_abs_conjugate_vs_independent_grid_sup(self):
        driver = gl.abs_scaled(0.7)
        f = gl.fenchel(driver)
        for q in [-0.6, -0.2, 0.0, 0.35, 0.69]:
            oracle = brute_force_conjugate(driver, q, -8.0, 8.0)
            assert float(f(0.0, q)) == pytest.approx(oracle, abs=1e-9)

    def test_entropic_numeric_path_matches_analytic(self):
        gamma = 1.3
        driver = without_analytics(gl.entropic(gamma, radius=4.0))
        f = gl.fenchel(driver)
        qs = np.linspace(-gamma * 4.0, gamma * 4.0, 41)
        numeric = np.asarray(f(0.0, qs), dtype=float)
        assert np.max(np.abs(numeric - qs**2 / (2 * gamma))) <= 1e-6

    def test_domain_radius_equals_declared_lipschitz(self):
        for driver in [gl.abs_scaled(0.5), gl.entropic(2.0, radius=3.0),
                       gl.linear(0.4), gl.interval(-0.2, 0.7)]:
            assert gl.fenchel(driver).domain_radius == driver.lipschitz

    def test_nonnegative_for_all_builtins(self):
        qs = np.linspace(-3.0, 3.0, 61)
        for driver in [gl.zero(), gl.abs_scaled(0.5), gl.entropic(1.0, radius=4.0),
                       gl.linear(0.3), gl.interval(-0.2, 0.7)]:
            vals = np.asarray(gl.fenchel(driver)(0.0, qs), dtype=float)
            assert np.all(vals >= 0.0)

    def test_zero_at_origin_for_nonnegative_drivers(self):
        # f(0) = sup_z -g(z) vanishes exactly when g >= 0; the pure-drift driver
        # has g(z) = b z < 0 somewhere, so its conjugate charges the origin.
        for driver in [gl.zero(), gl.abs_scaled(0.5), gl.entropic(1.0, radius=4.0),
                       gl.interval(-0.2, 0.7)]:
            assert gl.fenchel(driver).zero_at_origin
        drifted = gl.fenchel(gl.linear(0.3))
        assert not drifted.zero_at_origin
        assert math.isinf(float(drifted(0.0, 0.0)))

    def test_unnormalised_driver_rejected(self):
        bad = Driver(name="shifted", evaluate=lambda t, z: np.asarray(z) + 1.0,
                     lipschitz=1.0, convex=True)
        with pytest.raises(ValueError, match="g\\(t, 0\\)"):
            gl.fenchel(bad)

    def test_unknown_domain_reported_not_fatal(self):
        anonymous = Driver(name="anon", evaluate=lambda t, z: np.abs(np.asarray(z)),
                           lipschitz=None, convex=True)
        f = gl.fenchel(anonymous)
        assert not f.domain_certified
        assert f.notes
        assert math.isfinite(float(f(0.0, 0.5)))  # finite values still computed

    def test_dimension_two_agrees_with_analytic(self):
        driver = without_analytics(gl.entropic(1.0, radius=2.0, dim=2))
        f = gl.fenchel(driver)
        pts = np.array([[0.0, 0.0], [0.5, -0.3], [1.0, 1.0]])
        expected = np.sum(pts**2, axis=1) / 2.0
        got = np.asarray(f(0.0, pts), dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-4


class TestBatchedGridSup:
    """The block-batched refinement is bitwise the per-row reference."""

    @pytest.mark.parametrize("dim,points,count", [(1, None, 700), (1, 257, 40), (2, None, 30),
                                                  (2, 33, 600), (3, None, 12), (3, 9, 40)])
    def test_matches_per_row_reference(self, dim, points, count):
        rng = np.random.default_rng(dim * 1000 + count)
        funs = [gl.entropic(0.8, radius=3.0, dim=dim).evaluate,
                gl.fenchel(gl.abs_scaled(0.7, dim=dim)).evaluate]
        if dim == 1:
            funs.append(gl.fenchel(gl.interval(-0.2, 0.7)).evaluate)
        shapes = [(), (count,)] if dim == 1 else [(dim,), (count, dim)]
        for fun in funs:
            for shape in shapes:
                slopes = rng.uniform(-2.5, 2.5, shape)
                got = gl.grid_sup_of_linear_minus(fun, 0.3, slopes, 2.0, dim, points=points)
                want = reference_grid_sup(fun, 0.3, slopes, 2.0, dim, points=points)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True), (dim, shape, fun)

    def test_nested_numeric_conjugate_matches_reference(self):
        integrand = gl.fenchel(without_analytics(gl.entropic(1.0, radius=4.0)))
        zs = np.linspace(-4.0, 4.0, 41)
        got = gl.grid_sup_of_linear_minus(integrand.evaluate, 0.0, zs, 4.0)
        want = reference_grid_sup(integrand.evaluate, 0.0, zs, 4.0)
        assert np.array_equal(got, want)


class TestInverseFenchel:
    def test_origin_indicator_gives_zero_driver(self):
        f = PenaltyIntegrand(
            name="origin", evaluate=lambda t, q: np.where(np.asarray(q) == 0.0, 0.0, np.inf),
            domain_radius=0.0, zero_at_origin=True)
        g = gl.inverse_fenchel(f)
        assert float(g(0.0, 1.7)) == 0.0

    @pytest.mark.parametrize("integrand", [
        gl.fenchel(gl.zero()),
        gl.truncate_integrand(gl.fenchel(gl.entropic(1.0)), 0.0),
        gl.truncate_integrand(gl.fenchel(gl.abs_scaled(0.5)), 0.0)], ids=lambda f: f.name)
    def test_radius_zero_recovers_the_zero_driver(self, integrand):
        assert integrand.domain_radius == 0.0
        g = gl.inverse_fenchel(integrand)
        assert (g.name, g.lipschitz, g.convex, g.dim) == (f"conjugate[{integrand.name}]", 0.0,
                                                          True, integrand.dim)
        zs = np.linspace(-4.0, 4.0, 81)
        assert np.all(np.asarray(g(0.0, zs)) == 0.0)
        nowhere = dataclasses.replace(
            integrand, evaluate=lambda t, q: np.full_like(np.asarray(q, dtype=float), np.inf))
        with pytest.raises(ValueError, match="empty effective domain"):
            gl.inverse_fenchel(nowhere)

    def test_interval_indicator_gives_scaled_abs(self):
        mu = 0.8
        f = PenaltyIntegrand(
            name="box", evaluate=lambda t, q: np.where(np.abs(np.asarray(q)) <= mu, 0.0, np.inf),
            domain_radius=mu, zero_at_origin=True)
        g = gl.inverse_fenchel(f)
        zs = np.linspace(-3, 3, 31)
        assert np.max(np.abs(np.asarray(g(0.0, zs)) - mu * np.abs(zs))) <= 1e-12

    def test_quadratic_self_conjugacy(self):
        f = PenaltyIntegrand(name="half_square",
                             evaluate=lambda t, q: np.asarray(q, dtype=float) ** 2 / 2.0,
                             domain_radius=math.inf, zero_at_origin=True)
        g = gl.inverse_fenchel(f, search_radius=6.0)
        zs = np.linspace(-2, 2, 41)
        assert np.max(np.abs(np.asarray(g(0.0, zs)) - zs**2 / 2.0)) <= 1e-6

    def test_unbounded_domain_needs_search_radius(self):
        f = PenaltyIntegrand(name="half_square",
                             evaluate=lambda t, q: np.asarray(q, dtype=float) ** 2 / 2.0,
                             domain_radius=math.inf, zero_at_origin=True)
        with pytest.raises(ValueError, match="search_radius"):
            gl.inverse_fenchel(f)

    def test_empty_domain_rejected(self):
        f = PenaltyIntegrand(name="nowhere",
                             evaluate=lambda t, q: np.full_like(np.asarray(q, dtype=float), np.inf),
                             domain_radius=1.0, zero_at_origin=False)
        with pytest.raises(ValueError, match="empty effective domain"):
            gl.inverse_fenchel(f)


class TestTruncateIntegrand:
    def test_big_level_keeps_domain_values(self):
        f = gl.fenchel(gl.entropic(1.0, radius=2.0))
        gated = gl.truncate_integrand(f, 5.0)
        qs = np.linspace(-2, 2, 21)
        assert np.array_equal(np.asarray(gated(0.0, qs)), np.asarray(f(0.0, qs)))

    def test_level_zero_is_origin_indicator(self):
        f = gl.fenchel(gl.entropic(1.0, radius=2.0))
        gated = gl.truncate_integrand(f, 0.0)
        assert float(gated(0.0, 0.0)) == 0.0
        assert math.isinf(float(gated(0.0, 0.1)))

    def test_entropic_gate_values(self):
        f = gl.fenchel(gl.entropic(1.0, radius=4.0))
        gated = gl.truncate_integrand(f, 1.0)
        assert float(gated(0.0, 0.5)) == pytest.approx(0.125, abs=1e-15)
        assert math.isinf(float(gated(0.0, 1.5)))

    @given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_gates_form_a_lattice(self, a, b):
        f = gl.fenchel(gl.entropic(1.0, radius=4.0))
        qs = np.linspace(-4, 4, 33)
        twice = np.asarray(gl.truncate_integrand(gl.truncate_integrand(f, a), b)(0.0, qs))
        once = np.asarray(gl.truncate_integrand(f, min(a, b))(0.0, qs))
        assert np.array_equal(twice, once)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            gl.truncate_integrand(gl.fenchel(gl.zero()), -1.0)


class TestMonotoneFamily:
    def test_entropic_family_values(self):
        f = gl.fenchel(gl.entropic(1.0, radius=8.0))
        report = gl.monotone_family_check(f, [1.0, 2.0, 4.0])
        assert report.passed
        f1 = gl.truncate_integrand(f, 1.0)
        f2 = gl.truncate_integrand(f, 2.0)
        f4 = gl.truncate_integrand(f, 4.0)
        assert math.isinf(float(f1(0.0, 1.5)))
        assert float(f2(0.0, 1.5)) == float(f4(0.0, 1.5)) == float(f(0.0, 1.5)) == 1.125

    def test_origin_indicator_family_is_constant(self):
        f = gl.fenchel(gl.zero())
        report = gl.monotone_family_check(f, [1.0, 2.0])
        assert report.passed

    def test_gated_abs_conjugates_are_nested_support_functions(self):
        f = gl.fenchel(gl.abs_scaled(3.0))
        zs = np.linspace(-2, 2, 21)
        for level, slope in [(1.0, 1.0), (2.0, 2.0), (5.0, 3.0)]:
            g_n = gl.inverse_fenchel(gl.truncate_integrand(f, level))
            assert np.max(np.abs(np.asarray(g_n(0.0, zs)) - slope * np.abs(zs))) <= 1e-9

    def test_level_order_enforced(self):
        with pytest.raises(ValueError):
            gl.monotone_family_check(gl.fenchel(gl.zero()), [2.0, 1.0])


class TestBiconjugate:
    def test_gaps_for_builtins(self):
        assert gl.biconjugate_gap(gl.zero(), np.linspace(-3, 3, 41)) == 0.0
        assert gl.biconjugate_gap(gl.abs_scaled(1.0), np.linspace(-3, 3, 41)) <= 1e-9
        drv = gl.entropic(1.0, radius=4.0)
        assert gl.biconjugate_gap(drv, np.linspace(-4, 4, 41)) <= 1e-6
        assert gl.biconjugate_gap(gl.interval(-0.2, 0.7), np.linspace(-3, 3, 41)) <= 1e-6

    def test_numeric_only_round_trip(self):
        driver = dataclasses.replace(gl.entropic(0.7, radius=3.0), conjugate=None)
        assert gl.biconjugate_gap(driver, np.linspace(-3, 3, 31)) <= 1e-6


class TestYoungFenchel:
    def test_inequality_and_equality_at_minimizer(self):
        rng = np.random.default_rng(0)
        for driver in [gl.abs_scaled(0.5), gl.entropic(1.0, radius=4.0),
                       gl.interval(-0.2, 0.7)]:
            f = gl.fenchel(driver)
            zs = rng.uniform(-3.0, 3.0, 50)
            if math.isfinite(driver.validity_radius):
                zs = np.clip(zs, -driver.validity_radius, driver.validity_radius)
            qs = rng.uniform(-f.domain_radius, f.domain_radius, 50)
            lhs = qs * zs
            rhs = np.asarray(driver(0.0, zs), dtype=float) + np.asarray(f(0.0, qs), dtype=float)
            assert np.all(lhs <= rhs + 1e-10)
            # equality at the one-step minimizer: q* attains min q z + f = -g(-z)
            qstar = np.asarray(f.step_minimizer(0.0, zs), dtype=float)
            tight = qstar * zs + np.asarray(f(0.0, qstar), dtype=float)
            target = -np.asarray(driver(0.0, -zs), dtype=float)
            assert np.max(np.abs(tight - target)) <= 1e-10


class TestGridSupTiles:
    """The grid sup scores slopes in tiles of max(1, TILE_SCORES // coarse points) rows."""

    @pytest.mark.parametrize("tile_scores", [1, 4097, 3 * 4097 + 1, None])
    def test_one_dimensional_bits_do_not_depend_on_the_tile(self, monkeypatch, tile_scores):
        rng = np.random.default_rng(700)
        slopes = rng.uniform(-2.5, 2.5, 700)
        funs = [gl.entropic(0.8, radius=3.0).evaluate, gl.fenchel(gl.abs_scaled(0.7)).evaluate,
                gl.fenchel(gl.interval(-0.2, 0.7)).evaluate]
        want = [gl.grid_sup_of_linear_minus(fun, 0.3, slopes, 2.0) for fun in funs]
        if tile_scores is not None:
            monkeypatch.setattr(conjugate, "TILE_SCORES", tile_scores)
        for fun, expected in zip(funs, want):
            calls = []

            def counted(t, x, _fun=fun):
                calls.append(np.size(x))
                return _fun(t, x)

            got = gl.grid_sup_of_linear_minus(counted, 0.3, slopes, 2.0)
            assert got.tobytes() == expected.tobytes()
            finite = int(np.sum(np.isfinite(fun(0.3, np.linspace(-2.0, 2.0, 4097)))))
            tile = max(1, conjugate.TILE_SCORES // finite)
            assert len(calls) == 1 + 2 * -(-700 // tile)  # the coarse scan, two passes a tile
            assert max(calls[1:]) == min(tile, 700) * conjugate.REFINE_POINTS_1D

    def test_biconjugate_gap_of_a_numeric_conjugate_stays_small(self):
        driver = without_analytics(gl.entropic(1.0, radius=4.0))
        zs = np.linspace(-4.0, 4.0, 41)
        tracemalloc.start()
        try:
            gap = gl.biconjugate_gap(driver, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap <= 1e-6
        assert peak < 4 * 2**20  # 512-slope blocks of 4097 scores peaked at 17.8 MiB


class TestInverseFenchelCoarseGrid:
    def test_one_coarse_scan_per_time(self):
        coarse = np.linspace(-1.5, 1.5, conjugate.GRID_POINTS_1D)
        scans = []

        def evaluate(t, q):
            q = np.asarray(q, dtype=float)
            if q.shape == coarse.shape and np.array_equal(q, coarse):
                scans.append(t)
            return np.where(np.abs(q) <= 1.5, (1.0 + t) * q**2 / 2.0, np.inf)

        f = PenaltyIntegrand(name="quadratic", evaluate=evaluate, domain_radius=1.5,
                             zero_at_origin=True)
        g = gl.inverse_fenchel(f)
        assert scans == [0.0]  # the build-time probe
        zs = np.linspace(-3.0, 3.0, 41)
        first = np.asarray(g(0.0, zs))
        assert scans == [0.0]  # the first call at the probe's t reuses its scan
        again = np.asarray(g(0.0, zs))
        assert scans == [0.0]
        later = np.asarray(g(0.5, zs))
        assert scans == [0.0, 0.5]
        g(0.5, zs[:3])
        assert scans == [0.0, 0.5]
        back = np.asarray(g(0.0, zs))
        assert scans == [0.0, 0.5, 0.0]  # only the latest t is kept
        direct = [gl.grid_sup_of_linear_minus(evaluate, t, zs, 1.5) for t in (0.0, 0.5)]
        assert first.tobytes() == again.tobytes() == back.tobytes() == direct[0].tobytes()
        assert later.tobytes() == direct[1].tobytes()


class TestMonotoneFamilyCounterexamples:
    def test_drifting_integrand_breaks_every_order(self):
        # each call adds one to the values, so no two evaluations of a level agree
        calls = []

        def drifting(t, q):
            calls.append(None)
            return np.square(np.asarray(q, dtype=float)) / 2.0 + (len(calls) - 1)

        f = PenaltyIntegrand("drifting", drifting, math.inf, zero_at_origin=False)
        report = gl.monotone_family_check(f, [1.0, 2.0])
        assert not (report.integrand_decreasing or report.conjugates_increasing
                    or report.infimum_recovers or report.passed)
        assert report.worst_conjugate_violation > conjugate.FAMILY_TOLERANCE
        assert [c[0] for c in report.counterexamples] == ["integrand_order", "conjugate_order",
                                                          "infimum"]
        # level 1's first point, -1, scored by the first and the second call
        assert report.counterexamples[0] == ("integrand_order", 1.0, -1.0, 0.5, 1.5)
