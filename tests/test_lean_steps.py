"""The pass-lean sweep steps give the bits and the errors of their plain forms."""

import dataclasses
import math

import numpy as np
import pytest

import glattice as gl
from glattice import bsde, dual

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -5e-324, 1e300])


def same_bits(a, b) -> bool:
    """Equal bit for bit, every NaN counted as one value: a NaN's sign is no result (it raises)."""
    a, b = (np.where(np.isnan(v), np.nan, v) if v.dtype.kind == "f" else v
            for v in (np.asarray(a), np.asarray(b)))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """fn's value, or the type, message and node of what it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except ValueError as exc:
            return type(exc), str(exc), getattr(exc, "node", None)


def same_outcome(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return same_bits(a, b)


def random_pairs(rng, count, nodes, scale, special_rate):
    """(down, up) child vectors, some entries replaced by special values."""
    for _ in range(count):
        down, up = rng.normal(scale=scale, size=(2, nodes + 1))
        for vec in (down, up):
            hit = rng.uniform(size=vec.size) < special_rate
            vec[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
        yield down, up


def plain_driver_step(driver, lattice, sign, check_radius=True):
    """`bsde.driver_step` with the |z| mask, `/ 2.0` and the radius read per step."""
    scale = sign * lattice.dt

    def step(k, down, up):
        z = lattice.increment(down, up)
        arg = z if sign > 0 else -z
        if check_radius and np.any(np.abs(z) > driver.validity_radius):
            flat = int(np.argmax(np.abs(z)))
            raise bsde.ValidityRadiusError(gl.NodeId(k, flat % z.shape[-1]),
                                           float(arg.flat[flat]), driver.validity_radius)
        return (up + down) / 2.0 + np.asarray(driver(lattice.grid.time(k), arg), dtype=float) * scale

    return step


def plain_entropic(gamma, radius=8.0):
    """`entropic` with the minimiser clipped by `np.clip`."""
    return dataclasses.replace(
        gl.entropic(gamma, radius),
        evaluate=lambda t, z: gamma * np.abs(np.asarray(z, dtype=float)) ** 2 / 2.0,
        conjugate=lambda t, q: np.abs(np.asarray(q, dtype=float)) ** 2 / (2.0 * gamma),
        step_minimizer=lambda t, zed: np.clip(-gamma * np.asarray(zed, dtype=float),
                                              -gamma * radius, gamma * radius))


def plain_dual_step(integrand, lattice):
    """`dual.dual_step` (analytic minimiser) with `np.clip`, `/ 2.0` and the `isfinite` test."""
    bound = (1.0 - dual.ADMISSIBILITY_MARGIN) / lattice.sqrt_dt

    def step(k, down, up):
        zed = lattice.increment(down, up)
        mean = (up + down) / 2.0
        t = lattice.grid.time(k)
        free = np.asarray(integrand.step_minimizer(t, zed), dtype=float)
        q = np.clip(free, -bound, bound)
        clamp = q != free
        fv = np.asarray(integrand(t, q), dtype=float)
        if not np.all(np.isfinite(fv)):
            bad = int(np.flatnonzero(~np.isfinite(fv))[0])
            raise ValueError(f"integrand infinite at its own minimiser, {gl.NodeId(k, bad)}; "
                             "the analytic minimiser must respect the effective domain")
        return mean + (q * zed + fv) * lattice.dt, q, clamp

    return step


DRIVERS = {
    "entropic": lambda: gl.entropic(1.0, radius=4.0),
    "abs": lambda: gl.abs_scaled(0.5),  # infinite radius: the check is skipped
    "interval": lambda: gl.interval(-0.3, 0.4),
}


class TestDriverStep:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("special_rate", [0.0, 0.05])
    def test_same_bits_and_errors(self, name, sign, special_rate):
        lat = gl.build_grid(1.0, 64)
        driver = DRIVERS[name]()
        lean, plain = bsde.driver_step(driver, lat, sign), plain_driver_step(driver, lat, sign)
        rng = np.random.default_rng(11)
        raised = 0
        for k, (down, up) in enumerate(random_pairs(rng, 400, 30, 0.35, special_rate)):
            got, want = outcome(lean, k % 64, down, up), outcome(plain, k % 64, down, up)
            assert same_outcome(got, want), (k, got, want)
            raised += isinstance(want, tuple)
        if name == "entropic":
            assert raised > 20  # breaches, some beside NaN, are exercised

    def test_breach_beside_nan_names_the_same_node(self):
        lat = gl.build_grid(1.0, 16)
        driver = gl.entropic(1.0, radius=1.0)
        down = np.zeros(6)
        up = np.zeros(6)
        up[1], up[4] = np.nan, 3.0  # z[1] NaN, z[4] = 6 > 1
        got = outcome(bsde.driver_step(driver, lat, -1.0), 2, down, up)
        assert got == outcome(plain_driver_step(driver, lat, -1.0), 2, down, up)
        assert got[0] is bsde.ValidityRadiusError

    def test_unchecked_step_is_the_plain_one(self):
        lat = gl.build_grid(1.0, 16)
        driver = gl.entropic(1.0, radius=0.1)
        rng = np.random.default_rng(2)
        for down, up in random_pairs(rng, 50, 8, 1.0, 0.1):
            assert same_outcome(
                outcome(bsde.driver_step(driver, lat, -1.0, check_radius=False), 3, down, up),
                outcome(plain_driver_step(driver, lat, -1.0, check_radius=False), 3, down, up))


class TestEntropicForms:
    @pytest.mark.parametrize("gamma", [1.0, 0.3, 2.5])
    def test_driver_conjugate_and_minimiser(self, gamma):
        lean, plain = gl.entropic(gamma, radius=4.0), plain_entropic(gamma, radius=4.0)
        rng = np.random.default_rng(5)
        x = np.concatenate((rng.normal(scale=3.0, size=500), SPECIAL, -SPECIAL,
                            [4.0 * gamma, np.nextafter(-4.0 * gamma, 0.0)]))
        with np.errstate(all="ignore"):
            for form in ("evaluate", "conjugate", "step_minimizer"):
                assert same_bits(getattr(lean, form)(0.3, x), getattr(plain, form)(0.3, x)), form
                for value in (0.0, -0.0, 2.0, -7.0, math.nan, math.inf):
                    assert same_bits(getattr(lean, form)(0.3, value),
                                     getattr(plain, form)(0.3, value)), (form, value)


class TestDualStep:
    INTEGRANDS = {
        "entropic": lambda: gl.fenchel(gl.entropic(1.0, radius=4.0)),
        "abs": lambda: gl.fenchel(gl.abs_scaled(0.5)),
        # an analytic minimiser outside the domain: f is +inf at its own minimiser
        "wrong_minimiser": lambda: dataclasses.replace(
            gl.fenchel(gl.abs_scaled(0.5)), step_minimizer=lambda t, zed: 2.0 * np.sign(zed)),
        "steep_quadratic": lambda: gl.PenaltyIntegrand(
            "steep", lambda t, q: np.asarray(q, dtype=float) ** 2 / 80.0, np.inf, True,
            step_minimizer=lambda t, zed: -40.0 * np.asarray(zed, dtype=float)),
    }

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    @pytest.mark.parametrize("special_rate", [0.0, 0.05])
    def test_same_bits_flags_and_errors(self, name, special_rate):
        lat = gl.build_grid(1.0, 64)
        integrand = self.INTEGRANDS[name]()
        seen = []
        lean = dual.dual_step(integrand, lat, lambda k, q, clamp: seen.append((q, clamp)))
        plain = plain_dual_step(integrand, lat)
        rng = np.random.default_rng(13)
        clamped = 0
        for k, (down, up) in enumerate(random_pairs(rng, 300, 20, 0.3, special_rate)):
            seen.clear()
            got, want = outcome(lean, k % 64, down, up), outcome(plain, k % 64, down, up)
            if isinstance(want, tuple) and len(want) == 3 and isinstance(want[0], type):
                assert got == want, k
                continue
            value, q, clamp = want
            assert same_bits(got, value), k
            assert same_bits(seen[0][0], q) and same_bits(seen[0][1], clamp), k
            clamped += bool(clamp.any())
        if name == "steep_quadratic":
            assert clamped > 50  # both the clipped and the unclipped path are exercised

    def test_one_sided_breach_is_clipped(self):
        # z > 0 at every node: only the least free minimiser leaves the bound
        lat = gl.build_grid(1.0, 64)
        integrand = self.INTEGRANDS["steep_quadratic"]()
        seen = []
        lean = dual.dual_step(integrand, lat, lambda k, q, clamp: seen.append((q, clamp)))
        down = np.linspace(-1.0, 1.0, 21)
        up = down + np.linspace(0.01, 0.5, 21)
        value, q, clamp = plain_dual_step(integrand, lat)(5, down, up)
        assert clamp.any() and not clamp.all()
        assert same_bits(lean(5, down, up), value)
        assert same_bits(seen[0][0], q) and same_bits(seen[0][1], clamp)
