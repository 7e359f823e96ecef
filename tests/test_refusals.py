"""Every input refusal of the library, one example each, and the inputs it no longer accepts."""

import numpy as np
import pytest

import glattice as gl
from glattice.cli import DRIVERS, INTEGRANDS
from glattice.drivers import bind_spec

FULL = gl.TreeTopology.FULL_BINARY


def rec(steps=4):
    return gl.build_grid(1.0, steps)


def claim(lattice):
    return gl.terminal_field(lattice, lambda level: np.maximum(level, 0.0))


def two_step_field(lattice):
    return gl.AdaptedField(lattice, [np.zeros(lattice.node_count(k)) for k in (3, 4)], start=3)


def zero_control(lattice):
    return gl.PredictableControl.constant(lattice, 0.0)


def quadratic():
    return gl.fenchel(gl.entropic(1.0))


# (id, call, exception, message pattern)
REFUSALS = [
    ("utility_step_past_claim", lambda: gl.utility(gl.zero(), claim(rec()), 5),
     ValueError, "step 5 outside"),
    ("recover_driver_at_last_step",
     lambda: gl.recover_driver(gl.make_utility_operator(gl.zero()), rec(), 0.1, 4),
     ValueError, "one-step window"),
    ("axiom_suite_without_lipschitz",
     lambda: gl.axiom_suite(gl.Driver("unknown", lambda t, z: 0.0 * z, None, True),
                            gl.build_grid(1.0, 3, FULL), trials=1, seed=0),
     ValueError, "needs a Lipschitz constant"),
    ("quadratic_integrand_gamma_zero", lambda: INTEGRANDS["quadratic"](gl.zero(), 0.0),
     ValueError, "gamma > 0"),
    ("grid_sup_in_four_dimensions",
     lambda: gl.grid_sup_of_linear_minus(lambda t, x: np.zeros(len(x)), 0.0,
                                         np.zeros((1, 4)), 1.0, dim=4),
     ValueError, "tensor grids support dimensions"),
    ("monotone_family_in_two_dimensions",
     lambda: gl.monotone_family_check(gl.fenchel(gl.abs_scaled(1.0, dim=2)), [1.0]),
     ValueError, "1-d integrands"),
    ("biconjugate_of_nonconvex_driver",
     lambda: gl.biconjugate_gap(gl.Driver("concave", lambda t, z: -np.square(z), 2.0, False),
                                np.linspace(-1.0, 1.0, 5)),
     ValueError, "needs a convex driver"),
    ("spec_not_a_string", lambda: bind_spec(0.5, DRIVERS, "driver"),
     ValueError, "driver spec must be a string"),
    ("probe_on_empty_box", lambda: gl.probe_lipschitz(gl.zero(), 0.0),
     ValueError, "domain_radius must be positive"),
    ("dual_with_empty_domain",
     lambda: gl.dual_utility(gl.PenaltyIntegrand("empty", lambda t, q: np.inf * np.abs(q),
                                                 0.0, False), claim(rec())),
     ValueError, "empty admissible domain"),
    ("monotone_utility_levels_out_of_order",
     lambda: gl.monotone_utility_check(quadratic(), claim(rec()), [2.0, 1.0]),
     ValueError, "strictly increasing"),
    ("node_past_last_step", lambda: rec().validate_node(gl.NodeId(5, 0)),
     ValueError, "step outside"),
    ("ancestors_on_recombining_tree", lambda: rec().terminal_ancestors(1),
     ValueError, "full binary"),
    ("bounded_values_of_two_steps", lambda: two_step_field(rec()).bounded_values(),
     ValueError, "single step"),
    ("deterministic_stop_past_last_step", lambda: gl.StoppingTime.deterministic(rec(), 5),
     ValueError, "step 5 outside"),
    ("stop_steps_on_recombining_tree",
     lambda: gl.StoppingTime.deterministic(rec(), 2).step_on_paths(),
     ValueError, "full binary"),
    ("expectation_of_two_steps",
     lambda: gl.expectation_under(gl.density_from_control(zero_control(rec())),
                                  two_step_field(rec()), 0),
     ValueError, "single-step field"),
    ("control_gate_below_zero", lambda: gl.truncate_control(zero_control(rec()), -1.0),
     ValueError, "nonnegative"),
    ("truncation_levels_out_of_order",
     lambda: gl.truncation_convergence(quadratic(), zero_control(rec()), [2.0, 1.0]),
     ValueError, "strictly increasing"),
    # a payoff returns one value per terminal node; a scalar is not promoted
    ("scalar_payoff", lambda: gl.terminal_field(rec(), lambda level: 1.0),
     ValueError, r"needs 5 values, got shape \(\)"),
    # `linear` is the 1-d drift b z; a vector slope is no float
    ("vector_linear_slope", lambda: gl.linear([0.1, 0.2]), TypeError, None),
    # push sends equal-shaped down and up weights; unequal ones are not broadcast
    ("push_unequal_weights",
     lambda: rec().push(np.ones(3), np.full(3, 0.5), np.full((2, 3), 0.5)),
     ValueError, None),
]


@pytest.mark.parametrize("call,error,match", [entry[1:] for entry in REFUSALS],
                         ids=[entry[0] for entry in REFUSALS])
def test_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_gated_integrand_in_two_dimensions_has_no_minimizer():
    # the lattice and the dual are 1-d, so only a 1-d gate keeps the analytic minimiser,
    # -z clipped to the gate
    flat = gl.truncate_integrand(gl.fenchel(gl.entropic(1.0, dim=2)), 1.0)
    line = gl.truncate_integrand(quadratic(), 1.0)
    assert flat.step_minimizer is None
    assert np.array_equal(line.step_minimizer(0.0, np.array([-3.0, 0.5, 3.0])),
                          [1.0, -0.5, -1.0])


def test_linear_keeps_its_companions():
    drift = gl.linear(-0.3)
    z = np.array([-2.0, 0.0, 1.0])
    assert drift.name == "linear:-0.3" and drift.lipschitz == 0.3 and drift.dim == 1
    assert np.array_equal(drift(0.0, z), -0.3 * z)
    assert np.array_equal(drift.conjugate(0.0, np.array([-0.3, 0.0])), [0.0, np.inf])
    assert np.array_equal(drift.step_minimizer(0.0, z), np.full(3, -0.3))
    assert np.array_equal(drift.subgradient(0.0, z), np.full(3, -0.3))
