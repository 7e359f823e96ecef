import numpy as np
import pytest

import glattice as gl
from glattice.drivers import Driver


ALL_BUILTINS = [gl.zero(), gl.abs_scaled(0.5), gl.entropic(1.0, radius=4.0),
                gl.linear(0.3), gl.interval(-0.2, 0.7)]


class TestBuiltins:
    def test_zero_evaluates_to_zero(self):
        assert float(gl.zero()(0.3, 1.3)) == 0.0

    def test_abs_scaled(self):
        assert float(gl.abs_scaled(0.5)(0.0, -2.0)) == 1.0

    def test_interval_support_function(self):
        drv = gl.interval(-0.2, 0.7)
        assert float(drv(0.0, 1.0)) == pytest.approx(0.7, abs=1e-15)
        assert float(drv(0.0, -1.0)) == pytest.approx(0.2, abs=1e-15)

    def test_interval_must_contain_zero(self):
        with pytest.raises(ValueError):
            gl.interval(0.1, 0.7)

    def test_entropic_param_validation(self):
        with pytest.raises(ValueError):
            gl.entropic(0.0)
        with pytest.raises(ValueError):
            gl.entropic(1.0, radius=np.inf)

    def test_abs_param_validation(self):
        with pytest.raises(ValueError):
            gl.abs_scaled(-1.0)

    def test_builtin_by_name_and_spec(self):
        assert gl.builtin("abs", (0.5,)).name == "abs:0.5"
        assert gl.parse_spec("entropic:2,6").lipschitz == pytest.approx(12.0)
        assert gl.parse_spec("interval:-0.2,0.7").name == "interval:-0.2,0.7"
        with pytest.raises(ValueError, match="unknown driver"):
            gl.builtin("nope")

    def test_vectorised_evaluation(self):
        z = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(gl.entropic(2.0)(0.0, z), [1.0, 0.0, 4.0])


class TestProbes:
    @pytest.mark.parametrize("driver", ALL_BUILTINS, ids=lambda d: d.name)
    def test_builtins_pass_all_probes(self, driver):
        radius = min(driver.validity_radius, 4.0)
        assert gl.probe_zero(driver).passed
        assert gl.probe_lipschitz(driver, radius, seed=1).passed
        assert gl.probe_convex(driver, radius, seed=1).passed

    def test_zero_probe_fails_for_shifted_driver(self):
        bad = Driver(name="shifted", evaluate=lambda t, z: np.asarray(z) + 1.0,
                     lipschitz=1.0, convex=True)
        report = gl.probe_zero(bad)
        assert not report.passed
        assert len(report.failures) == 4

    def test_lipschitz_estimate_abs(self):
        report = gl.probe_lipschitz(gl.abs_scaled(0.5), 3.0, seed=0)
        assert report.passed
        assert report.worst <= 0.5

    def test_lipschitz_estimate_linear(self):
        report = gl.probe_lipschitz(gl.linear(0.3), 3.0, sample_count=5000, seed=0)
        assert report.passed
        assert report.worst == pytest.approx(0.3, abs=1e-12)

    def test_lipschitz_entropic_approaches_radius(self):
        drv = gl.entropic(1.0, radius=4.0)
        report = gl.probe_lipschitz(drv, 4.0, sample_count=20000, seed=0)
        assert report.passed
        assert report.worst == pytest.approx(4.0, rel=0.02)  # sup |(z+z')/2| -> radius

    def test_convexity_fails_for_concave(self):
        bad = Driver(name="concave", evaluate=lambda t, z: -np.asarray(z) ** 2,
                     lipschitz=2.0, convex=True)
        assert not gl.probe_convex(bad, 1.0, seed=0).passed

    def test_positive_homogeneity_of_abs(self):
        drv = gl.abs_scaled(1.3)
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, 100)
        lam = rng.uniform(0.1, 5.0, 100)
        assert np.allclose(drv(0.0, lam * z), lam * np.asarray(drv(0.0, z)), atol=1e-12)


def test_interval_subgradient_picks_the_active_end():
    drv = gl.interval(-0.2, 0.7)
    assert np.array_equal(drv.subgradient(0.0, np.array([-3.0, -1e-12, 0.0, 2.0])),
                          [-0.2, -0.2, 0.0, 0.7])
