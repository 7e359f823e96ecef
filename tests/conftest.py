import numpy as np
import pytest
from hypothesis import settings

import glattice as gl

# ten times the default examples; CI runs the config property test under it
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def rec8():
    return gl.build_grid(1.0, 8)


@pytest.fixture
def rec64():
    return gl.build_grid(1.0, 64)


@pytest.fixture
def full3():
    return gl.build_grid(1.0, 3, gl.TreeTopology.FULL_BINARY)


@pytest.fixture
def full6():
    return gl.build_grid(1.0, 6, gl.TreeTopology.FULL_BINARY)


@pytest.fixture
def full8():
    return gl.build_grid(1.0, 8, gl.TreeTopology.FULL_BINARY)


def random_control(lattice, rng, amplitude):
    """Admissible nodewise-random control bounded by `amplitude`."""
    bound = min(amplitude, 0.9 / lattice.sqrt_dt)
    return gl.PredictableControl(
        lattice,
        [rng.uniform(-bound, bound, lattice.node_count(k)) for k in range(lattice.steps)],
    )


def max_field_diff(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.values, b.values))
