"""Library of backward-equation drivers with declared regularity metadata.

A driver is a function g(t, z), normalised so g(t, 0) = 0, together with its
declared Lipschitz constant, convexity flag and optional analytic extras
(conjugate, one-step dual minimizer, subgradient).  The quadratic driver is
only Lipschitz on a bounded z-range, so it declares a validity radius and
every consumer checks its z arguments stay inside it.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _magnitude(z, dim: int):
    z = np.asarray(z, dtype=float)
    if dim == 1:
        return np.abs(z)
    return np.linalg.norm(z, axis=-1)


@dataclass
class Driver:
    """g(t, z) with metadata.

    `lipschitz` is the declared global constant (None when unknown);
    `validity_radius` bounds the z-range on which the declaration holds.
    `conjugate`, `step_minimizer` and `subgradient` are optional analytic
    companions: the convex conjugate f(t, q), the minimizer of
    q -> q.z + f(t, q), and an element of the z-subdifferential.
    """

    name: str
    evaluate: Callable[[float, Array], Array]
    lipschitz: float | None
    convex: bool
    validity_radius: float = math.inf
    dim: int = 1
    positively_homogeneous: bool = False
    conjugate: Callable[[float, Array], Array] | None = None
    step_minimizer: Callable[[float, Array], Array] | None = None
    subgradient: Callable[[float, Array], Array] | None = None

    def __call__(self, t: float, z):
        return self.evaluate(t, z)


# -- builtin instances ----------------------------------------------------


def zero(dim: int = 1) -> Driver:
    return Driver(
        name="zero",
        evaluate=lambda t, z: _magnitude(z, dim) * 0.0,
        lipschitz=0.0,
        convex=True,
        dim=dim,
        positively_homogeneous=True,
        conjugate=lambda t, q: np.where(_magnitude(q, dim) == 0.0, 0.0, np.inf),
        step_minimizer=lambda t, zed: np.zeros_like(np.asarray(zed, dtype=float)),
        subgradient=lambda t, z: np.asarray(z, dtype=float) * 0.0,
    )


def abs_scaled(mu: float, dim: int = 1) -> Driver:
    """g(z) = mu * |z|: the scaled-norm driver dominating everything mu-Lipschitz."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return zero(dim)
    return Driver(
        name=f"abs:{mu:g}",
        evaluate=lambda t, z: mu * _magnitude(z, dim),
        lipschitz=mu,
        convex=True,
        dim=dim,
        positively_homogeneous=True,
        conjugate=lambda t, q: np.where(_magnitude(q, dim) <= mu, 0.0, np.inf),
        step_minimizer=lambda t, zed: -mu * np.sign(np.asarray(zed, dtype=float)),
        subgradient=lambda t, z: mu * np.sign(np.asarray(z, dtype=float)),
    )


def entropic(gamma: float, radius: float = 8.0, dim: int = 1) -> Driver:
    """g(z) = gamma |z|^2 / 2: quadratic, hence Lipschitz only on |z| <= radius.

    Declared with constant gamma*radius on that range; solvers error when an
    encountered z leaves the range rather than silently extrapolating the
    declaration.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("entropic driver needs a finite positive validity radius")

    def minimizer(t, zed):
        q = -gamma * np.asarray(zed, dtype=float)
        return np.minimum(np.maximum(q, -gamma * radius), gamma * radius)

    # in 1-d the square of z is |z|**2 exactly, in one pass in place of two
    square = ((lambda x: np.square(np.asarray(x, dtype=float))) if dim == 1
              else (lambda x: _magnitude(x, dim) ** 2))
    return Driver(
        name=f"entropic:{gamma:g}",
        evaluate=lambda t, z: gamma * square(z) / 2.0,
        lipschitz=gamma * radius,
        convex=True,
        validity_radius=radius,
        dim=dim,
        conjugate=lambda t, q: square(q) / (2.0 * gamma),
        step_minimizer=minimizer,
        subgradient=lambda t, z: gamma * np.asarray(z, dtype=float),
    )


def linear(slope: float) -> Driver:
    """g(z) = b z, the drift-only driver."""
    b = float(slope)
    return Driver(
        name=f"linear:{b:g}",
        evaluate=lambda t, z: b * np.asarray(z, dtype=float),
        lipschitz=abs(b),
        convex=True,
        positively_homogeneous=True,
        conjugate=lambda t, q: np.where(np.asarray(q, dtype=float) == b, 0.0, np.inf),
        step_minimizer=lambda t, zed: np.broadcast_to(b, np.shape(zed)).copy(),
        subgradient=lambda t, z: np.broadcast_to(b, np.shape(z)).copy(),
    )


def interval(lo: float, hi: float) -> Driver:
    """g(z) = max(lo*z, hi*z): support function of [lo, hi], with lo <= 0 <= hi.

    The sign constraint keeps g(t, 0) = 0; dropping it would break the
    normalisation `probe_zero` asserts.
    """
    if not (lo <= 0.0 <= hi):
        raise ValueError(f"interval driver needs lo <= 0 <= hi, got [{lo}, {hi}]")

    def minimizer(t, zed):
        zed = np.asarray(zed, dtype=float)
        return np.where(zed > 0, lo, np.where(zed < 0, hi, 0.0))

    return Driver(
        name=f"interval:{lo:g},{hi:g}",
        evaluate=lambda t, z: np.maximum(lo * np.asarray(z, dtype=float),
                                         hi * np.asarray(z, dtype=float)),
        lipschitz=max(abs(lo), abs(hi)),
        convex=True,
        positively_homogeneous=True,
        conjugate=lambda t, q: np.where(
            (np.asarray(q, dtype=float) >= lo) & (np.asarray(q, dtype=float) <= hi),
            0.0, np.inf),
        step_minimizer=minimizer,
        subgradient=lambda t, z: np.where(np.asarray(z, dtype=float) > 0, hi,
                                          np.where(np.asarray(z, dtype=float) < 0, lo, 0.0)),
    )


# name -> factory; the factory's parameters are the spec's, defaults applied
_BUILTINS = {
    "zero": lambda: zero(),
    "abs": lambda mu: abs_scaled(mu),
    "entropic": lambda gamma, radius=8.0: entropic(gamma, radius),
    "linear": lambda slope: linear(slope),
    "interval": lambda lo, hi: interval(lo, hi),
}


def bind_spec(text, table: dict, kind: str, *leading) -> tuple[str, inspect.BoundArguments]:
    """Bind `leading`, then a `name:p1,p2` spec's finite parameters, to `table[name]`."""
    if not isinstance(text, str):
        raise ValueError(f"{kind} spec must be a string, got {text!r}")
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; known: {' | '.join(table)}")
    try:
        params = tuple(float(p) for p in rest.split(",")) if rest else ()
        bound = inspect.signature(table[name]).bind(*leading, *params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} {text!r}: {exc}") from None
    if not all(map(math.isfinite, params)):
        raise ValueError(f"{kind} {text!r}: parameters must be finite")
    bound.apply_defaults()
    return name, bound


def builtin(name: str, params: Sequence[float] = ()) -> Driver:
    """Instantiate a builtin driver by name with positional parameters."""
    name, bound = bind_spec(name, _BUILTINS, "driver", *params)
    return _BUILTINS[name](*bound.args)


def parse_spec(text: str) -> Driver:
    """Parse a driver spec string such as `abs:0.5` or `entropic:1,16`."""
    return builtin(text)


# -- normalisation probe --------------------------------------------------

PROBE_TIMES = (0.0, 0.25, 0.5, 1.0)  # where g(t, 0) = 0 is checked
ZERO_TOL = 1e-14


@dataclass
class ProbeReport:
    name: str
    passed: bool
    worst: float
    failures: list

    def __bool__(self):
        return self.passed


def probe_zero(driver: Driver) -> ProbeReport:
    """Check the normalisation g(t, 0) = 0 at the probe times."""
    origin = 0.0 if driver.dim == 1 else np.zeros(driver.dim)
    worst = 0.0
    failures = []
    for t in PROBE_TIMES:
        val = float(driver(t, origin))
        worst = max(worst, abs(val))
        if abs(val) > ZERO_TOL:
            failures.append((t, val))
    return ProbeReport("zero_at_origin", not failures, worst, failures)
