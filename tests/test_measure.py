import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from conftest import random_control


class TestDensityFromControl:
    def test_zero_control_is_fair_coin(self, full6):
        Q = gl.density_from_control(gl.PredictableControl.constant(full6, 0.0))
        assert all(np.all(p == 0.5) for p in Q.up_prob)
        assert all(np.all(m == 1.0) for m in Q.density().values)

    def test_constant_control_up_probability(self):
        lat = gl.build_grid(1.0, 4)  # dt = 0.25
        Q = gl.density_from_control(gl.PredictableControl.constant(lat, 0.4))
        assert all(np.allclose(p, 0.6, atol=1e-15) for p in Q.up_prob)

    def test_inadmissible_control_rejected_with_node(self):
        lat = gl.build_grid(1.0, 4)
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.density_from_control(gl.PredictableControl.constant(lat, 5.0))
        assert err.value.node.step == 0
        # sqrt(dt) = 0.5: the first |q| >= 2 is at step 2, index 1, on the p <= 0 side
        values = [np.zeros(k + 1) for k in range(4)]
        values[2][1:] = [-3.0, 2.5]
        values[3][0] = 7.0
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.density_from_control(gl.PredictableControl(lat, values))
        assert (err.value.node, err.value.value, err.value.bound) == (gl.NodeId(2, 1), -3.0, 2.0)

    def test_nan_control_rejected_with_node(self):
        # a NaN up-probability fails both p <= 0 and p >= 1, so it is tested as not in (0, 1)
        lat = gl.build_grid(1.0, 4)
        values = [np.zeros(k + 1) for k in range(4)]
        values[2][1] = math.nan
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.density_from_control(gl.PredictableControl(lat, values))
        assert err.value.node == gl.NodeId(2, 1) and math.isnan(err.value.value)

    def test_conditional_drift_is_exact(self, rec8):
        rng = np.random.default_rng(1)
        q = random_control(rec8, rng, 1.2)
        Q = gl.density_from_control(q)
        sdt = rec8.sqrt_dt
        for k in range(rec8.steps):
            drift = Q.up_prob[k] * sdt + (1 - Q.up_prob[k]) * (-sdt)
            assert np.allclose(drift, q[k] * rec8.dt, atol=1e-16)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_density_is_positive_unit_mean_martingale(self, seed):
        lat = gl.build_grid(1.0, 5, gl.TreeTopology.FULL_BINARY)
        q = random_control(lat, np.random.default_rng(seed), 1.5)
        Q = gl.density_from_control(q)
        m = Q.density()
        assert all(np.all(v > 0) for v in m.values)
        terminal_mean = float(np.mean(m[5]))  # fair-coin weights are uniform on paths
        assert abs(terminal_mean - 1.0) <= 1e-12
        for k in range(5):
            down, up = lat.child_values(m[k + 1])
            assert np.allclose((down + up) / 2.0, m[k], atol=1e-14)

    def test_density_refused_on_recombining(self, rec8):
        Q = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.2))
        with pytest.raises(ValueError, match="path-dependent"):
            Q.density()

    def test_node_probabilities_sum_to_one(self, rec8):
        rng = np.random.default_rng(4)
        Q = gl.density_from_control(random_control(rec8, rng, 1.0))
        for probs in Q.node_probabilities():
            assert abs(float(np.sum(probs)) - 1.0) <= 1e-12


    @pytest.mark.parametrize("topology", list(gl.TreeTopology))
    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_forward_maps_match_explicit_recursions(self, topology, steps):
        # node probabilities and the density, written out per topology as references
        lat = gl.build_grid(1.3, steps, topology)
        Q = gl.density_from_control(random_control(lat, np.random.default_rng(steps), 1.2))
        probs, dens = [np.ones(1)], [np.ones(1)]
        for k, p in enumerate(Q.up_prob):
            if topology is gl.TreeTopology.RECOMBINING:
                nxt = np.zeros(k + 2)
                nxt[:-1] += probs[k] * (1.0 - p)
                nxt[1:] += probs[k] * p
            else:
                nxt = np.empty(2 * probs[k].size)
                nxt[0::2] = probs[k] * (1.0 - p)
                nxt[1::2] = probs[k] * p
                m = np.empty(2 * dens[k].size)
                m[0::2] = dens[k] * (2.0 * (1.0 - p))
                m[1::2] = dens[k] * (2.0 * p)
                dens.append(m)
            probs.append(nxt)
        for got, expected in zip(Q.node_probabilities(), probs, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        if topology is gl.TreeTopology.FULL_BINARY:
            for got, expected in zip(Q.density().values, dens, strict=True):
                assert np.array_equal(got, expected)


class TestExponentialDensity:
    def test_any_finite_control_admissible(self):
        lat = gl.build_grid(1.0, 4)
        Q = gl.exponential_density_from_control(gl.PredictableControl.constant(lat, 5.0))
        assert all(np.all((0 < p) & (p < 1)) for p in Q.up_prob)

    def test_large_controls_round_p_to_one_but_not_to_zero(self):
        # q sqrt(dt) = 20: exp(-40) is below half an ulp of 1, so p rounds to 1.0;
        # at -20 p = 1 / (1 + exp(40)), about 4.2e-18, stays in (0, 1)
        lat = gl.build_grid(1.0, 4)
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.exponential_density_from_control(gl.PredictableControl.constant(lat, 40.0))
        assert (err.value.node, err.value.value, err.value.bound) == (gl.NodeId(0, 0), 40.0, 2.0)
        Q = gl.exponential_density_from_control(gl.PredictableControl.constant(lat, -40.0))
        assert all(np.all((0 < p) & (p < 1)) for p in Q.up_prob)

    def test_refusal_names_the_up_probability_not_the_multiplicative_bound(self):
        # the logistic density takes the control 5 > 1/sqrt(dt) = 2, and refuses 40 because
        # its up-probability rounds to 1.0
        lat = gl.build_grid(1.0, 4)
        gl.exponential_density_from_control(gl.PredictableControl.constant(lat, 5.0))
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.exponential_density_from_control(gl.PredictableControl.constant(lat, 40.0))
        message = str(err.value)
        assert "node(step=0, index=0)" in message and "sqrt(dt)" not in message
        assert "up-probability 1.0 is not in (0, 1)" in message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_exp_is_a_refusal_not_a_warning(self):
        # exp(-2 q sqrt(dt)) = exp(1000) overflows to inf, so p is 0.0
        lat = gl.build_grid(1.0, 4)
        with pytest.raises(gl.AdmissibilityError, match=r"up-probability 0\.0 is not in") as err:
            gl.exponential_density_from_control(gl.PredictableControl.constant(lat, -1000.0))
        assert (err.value.node, err.value.value) == (gl.NodeId(0, 0), -1000.0)

    def test_drift_bias_is_tanh(self):
        lat = gl.build_grid(1.0, 4)
        q = 0.8
        Q = gl.exponential_density_from_control(gl.PredictableControl.constant(lat, q))
        sdt = lat.sqrt_dt
        drift = float(Q.up_prob[0][0] * sdt - (1 - Q.up_prob[0][0]) * sdt)
        assert drift == pytest.approx(sdt * math.tanh(q * sdt), abs=1e-15)
        assert abs(drift - q * lat.dt) <= q**3 * lat.dt**2  # O(dt) relative bias


class TestExpectationUnder:
    def test_fair_coin_brownian_is_centred(self, rec8):
        Q = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.0))
        xi = gl.terminal_field(rec8, lambda x: x)
        root = gl.expectation_under(Q, xi, 0)
        assert abs(float(root[0][0])) <= 1e-14

    def test_constant_drift_telescopes(self, rec8):
        q = 0.37
        Q = gl.density_from_control(gl.PredictableControl.constant(rec8, q))
        xi = gl.terminal_field(rec8, lambda x: x)
        root = gl.expectation_under(Q, xi, 0)
        assert float(root[0][0]) == pytest.approx(q * rec8.horizon, abs=1e-12)

    def test_same_step_identity(self, rec8):
        Q = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.1))
        xi = gl.terminal_field(rec8, np.abs)
        out = gl.expectation_under(Q, xi, 8)
        assert np.array_equal(out[8], xi[8])

    def test_step_order_violation(self, rec8):
        Q = gl.density_from_control(gl.PredictableControl.constant(rec8, 0.1))
        field = gl.AdaptedField.constant(rec8, 1.0, step=3)
        with pytest.raises(ValueError):
            gl.expectation_under(Q, field, 5)

    @given(seed=st.integers(0, 300), mid=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_tower_property_bitwise(self, seed, mid):
        lat = gl.build_grid(1.0, 8)
        rng = np.random.default_rng(seed)
        Q = gl.density_from_control(random_control(lat, rng, 1.0))
        xi = gl.terminal_field(lat, rng.normal(size=9))
        direct = gl.expectation_under(Q, xi, 0)
        staged = gl.expectation_under(Q, gl.expectation_under(Q, xi, mid), 0)
        assert np.array_equal(direct[0], staged[0])


class TestTruncationL1Hook:
    def test_density_converges_and_saturates(self, full6):
        rng = np.random.default_rng(7)
        q = random_control(full6, rng, 1.9)
        m_full = gl.density_from_control(q).density()[6]
        peak = q.max_abs()
        previous = math.inf
        for level in [0.25 * peak, 0.5 * peak, 0.75 * peak, peak]:
            m_level = gl.density_from_control(gl.truncate_control(q, level)).density()[6]
            l1 = float(np.mean(np.abs(m_level - m_full)))
            assert l1 <= previous + 1e-12
            previous = l1
        assert previous == 0.0  # exact once the gate clears max |q|


class TestControlSurgery:
    def test_paste_same_control_is_identity(self, rec8):
        rng = np.random.default_rng(0)
        q = random_control(rec8, rng, 1.0)
        sigma = gl.StoppingTime.deterministic(rec8, 2)
        tau = gl.StoppingTime.deterministic(rec8, 6)
        pasted = gl.paste_controls(q, q, sigma, tau)
        assert all(np.array_equal(a, b) for a, b in zip(pasted.values, q.values))

    def test_paste_full_interval_gives_second(self, rec8):
        rng = np.random.default_rng(1)
        q1 = random_control(rec8, rng, 1.0)
        q2 = random_control(rec8, rng, 1.0)
        pasted = gl.paste_controls(q1, q2, gl.StoppingTime.deterministic(rec8, 0),
                                   gl.StoppingTime.deterministic(rec8, 8))
        assert all(np.array_equal(a, b) for a, b in zip(pasted.values, q2.values))

    def test_paste_support_inside_interval(self, rec8):
        rng = np.random.default_rng(2)
        zero = gl.PredictableControl.constant(rec8, 0.0)
        q = random_control(rec8, rng, 1.0)
        sigma = gl.StoppingTime.deterministic(rec8, 3)
        tau = gl.StoppingTime.deterministic(rec8, 6)
        pasted = gl.paste_controls(zero, q, sigma, tau)
        for k in range(8):
            if 3 <= k < 6:
                assert np.array_equal(pasted[k], q[k])
            else:
                assert np.all(pasted[k] == 0.0)

    def test_paste_order_violation(self, rec8):
        q = gl.PredictableControl.constant(rec8, 0.1)
        with pytest.raises(ValueError):
            gl.paste_controls(q, q, gl.StoppingTime.deterministic(rec8, 5),
                              gl.StoppingTime.deterministic(rec8, 2))

    def test_truncate_examples(self, rec8):
        q = gl.PredictableControl(rec8, [
            np.full(k + 1, 0.3 if k % 2 == 0 else 1.7) for k in range(8)])
        assert all(np.array_equal(a, b) for a, b in
                   zip(gl.truncate_control(q, 2.0).values, q.values))
        assert all(np.all(v == 0.0) for v in gl.truncate_control(q, 0.0).values)
        gated = gl.truncate_control(q, 1.0)
        for k in range(8):
            assert np.all(gated[k] == (0.3 if k % 2 == 0 else 0.0))

    def test_stop_control_endpoints(self, rec8):
        rng = np.random.default_rng(3)
        q = random_control(rec8, rng, 1.0)
        kept = gl.stop_control(q, gl.StoppingTime.deterministic(rec8, 8))
        assert all(np.array_equal(a, b) for a, b in zip(kept.values, q.values))
        killed = gl.stop_control(q, gl.StoppingTime.deterministic(rec8, 0))
        assert all(np.all(v == 0.0) for v in killed.values)

    def test_stopped_density_freezes(self, full6):
        rng = np.random.default_rng(4)
        q = random_control(full6, rng, 1.2)
        tau = gl.StoppingTime.deterministic(full6, 3)
        m = gl.density_from_control(gl.stop_control(q, tau)).density()
        for j in range(3, 6):
            lifted = np.repeat(m[j], 2)
            assert np.array_equal(m[j + 1], lifted)

    def test_restrict_matches_truncate_on_level_sets(self, rec8):
        rng = np.random.default_rng(5)
        q = random_control(rec8, rng, 1.5)
        level = 0.8
        masks = [np.abs(q[k]) <= level for k in range(8)]
        assert all(np.array_equal(a, b) for a, b in zip(
            gl.restrict_control(q, masks).values, gl.truncate_control(q, level).values))

    def test_restrict_idempotent(self, rec8):
        rng = np.random.default_rng(6)
        q = random_control(rec8, rng, 1.0)
        masks = [rng.uniform(size=k + 1) < 0.5 for k in range(8)]
        once = gl.restrict_control(q, masks)
        twice = gl.restrict_control(once, masks)
        assert all(np.array_equal(a, b) for a, b in zip(once.values, twice.values))

    def test_restrict_mask_shape_validated(self, rec8):
        q = gl.PredictableControl.constant(rec8, 0.1)
        with pytest.raises(ValueError):
            gl.restrict_control(q, [np.ones(2, dtype=bool)] * 8)


def stored_up_probabilities(control, exponential):
    """Each step's up-probability array, written out as a stored per-step list."""
    sdt = control.lattice.sqrt_dt
    if exponential:
        return [1.0 / (1.0 + np.exp(-2.0 * q * sdt)) for q in control.values]
    return [(1.0 + q * sdt) / 2.0 for q in control.values]


class TestUpProbabilitiesPerStep:
    @pytest.mark.parametrize("topology", list(gl.TreeTopology))
    @pytest.mark.parametrize("exponential", [False, True])
    def test_up_prob_is_the_stored_list_bitwise(self, topology, exponential):
        lat = gl.build_grid(1.3, 6, topology)
        q = random_control(lat, np.random.default_rng(9), 1.2)
        build = gl.exponential_density_from_control if exponential else gl.density_from_control
        Q = build(q)
        stored = stored_up_probabilities(q, exponential)
        assert len(Q.up_prob) == lat.steps
        for got, expected in zip(Q.up_prob, stored, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        for k in (0, 3, lat.steps - 1, -1):
            assert np.array_equal(Q.up_prob[k], stored[k])
        # the measure built from the stored list sweeps to the same bits
        explicit = gl.MeasureChange(q, stored)
        xi = gl.terminal_field(lat, np.abs)
        assert np.array_equal(gl.expectation_under(Q, xi, 0)[0],
                              gl.expectation_under(explicit, xi, 0)[0])

    @pytest.mark.parametrize("bad", [-3.0, 2.5, math.nan])
    def test_last_step_is_checked_at_construction(self, bad):
        # sqrt(dt) = 0.5: |q| >= 2 leaves (0, 1), and the node is named
        lat = gl.build_grid(1.0, 4)
        values = [np.zeros(k + 1) for k in range(4)]
        values[3][2] = bad
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.density_from_control(gl.PredictableControl(lat, values))
        assert err.value.node == gl.NodeId(3, 2)
        assert err.value.value == bad or math.isnan(bad) and math.isnan(err.value.value)

    def test_exponential_refuses_nan_with_its_node(self):
        lat = gl.build_grid(1.0, 4)
        values = [np.zeros(k + 1) for k in range(4)]
        values[1][1] = math.nan
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.exponential_density_from_control(gl.PredictableControl(lat, values))
        assert err.value.node == gl.NodeId(1, 1)


def scanned_admissibility(control):
    """The per-node scan: the first node of the first step where p leaves (0, 1), or None."""
    sdt = control.lattice.sqrt_dt
    for k, q in enumerate(control.values):
        p = (1.0 + q * sdt) / 2.0
        bad = np.flatnonzero(~((p > 0.0) & (p < 1.0)))
        if bad.size:
            return gl.NodeId(k, int(bad[0]))
    return None


class TestAdmissibilityFromExtremes:
    @pytest.mark.parametrize("topology", list(gl.TreeTopology))
    def test_extremes_decide_as_the_per_node_scan(self, topology):
        rng = np.random.default_rng(17)
        refused = 0
        for trial in range(300):
            lat = gl.build_grid(float(rng.uniform(0.1, 3.0)), int(rng.integers(1, 10)), topology)
            edge = 1.0 / lat.sqrt_dt
            special = [edge, -edge, np.nextafter(edge, 0.0), np.nextafter(-edge, 0.0),
                       np.nextafter(edge, np.inf), np.nextafter(-edge, -np.inf), np.nan]
            values = [rng.uniform(-edge, edge, lat.node_count(k)) for k in range(lat.steps)]
            for _ in range(int(rng.integers(0, 3))):
                k = int(rng.integers(lat.steps))
                values[k][rng.integers(values[k].size)] = special[rng.integers(len(special))]
            control = gl.PredictableControl(lat, values)
            want = scanned_admissibility(control)
            if want is None:
                gl.density_from_control(control)
                continue
            refused += 1
            with pytest.raises(gl.AdmissibilityError) as err:
                gl.density_from_control(control)
            assert err.value.node == want, trial
            got, expected = err.value.value, control[want.step][want.index]
            assert got == expected or math.isnan(got) and math.isnan(expected)
        assert 50 < refused < 250  # both outcomes are exercised


class TestAdmissibilityMessage:
    def test_explicit_up_probabilities_name_the_one_outside(self):
        lat = gl.build_grid(1.0, 4)
        up_prob = [np.full(k + 1, 0.5) for k in range(4)]
        up_prob[2][1] = 1.0
        with pytest.raises(gl.AdmissibilityError) as err:
            gl.MeasureChange(gl.PredictableControl.constant(lat, 0.1), up_prob)
        assert (err.value.node, err.value.value, err.value.bound) == (gl.NodeId(2, 1), 0.1, 2.0)
        assert str(err.value) == ("inadmissible control at node(step=2, index=1): its "
                                  "up-probability 1.0 is not in (0, 1) (control 0.1)")

    def test_multiplicative_density_names_its_up_probability(self):
        # p = (1 + 5 * 0.5) / 2 = 1.75
        lat = gl.build_grid(1.0, 4)
        with pytest.raises(gl.AdmissibilityError, match=r"up-probability 1\.75 is not in"):
            gl.density_from_control(gl.PredictableControl.constant(lat, 5.0))


def first_outside(up_prob):
    """The first node, step by step, whose p is not in (0, 1), read one node at a time."""
    for k, p in enumerate(up_prob):
        for i, x in enumerate(p.tolist()):
            if not 0.0 < x < 1.0:
                return gl.NodeId(k, i)
    return None


class TestOneAdmissibilityRule:
    @settings(deadline=None)
    @given(data=st.data(), topology=st.sampled_from(list(gl.TreeTopology)),
           build=st.sampled_from([gl.MeasureChange, gl.density_from_control,
                                  gl.exponential_density_from_control]))
    def test_every_constructor_refuses_as_the_node_scan(self, data, topology, build):
        lat = gl.build_grid(data.draw(st.floats(0.1, 3.0)), data.draw(st.integers(1, 8)),
                            topology)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edge = 1.0 / lat.sqrt_dt
        special = [0.0, 1.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0),
                   np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e300, -1e300, math.nan,
                   40.0 * edge, -40.0 * edge]
        for e in (edge, -edge):
            special += [e, np.nextafter(e, 0.0), np.nextafter(e, 2.0 * e)]
        low, high = (0.05, 0.95) if build is gl.MeasureChange else (-0.9 * edge, 0.9 * edge)
        values = [rng.uniform(low, high, lat.node_count(k)) for k in range(lat.steps)]
        for _ in range(data.draw(st.integers(0, 3))):
            k = data.draw(st.integers(0, lat.steps - 1))
            values[k][data.draw(st.integers(0, values[k].size - 1))] = data.draw(
                st.sampled_from(special))
        with np.errstate(over="ignore"):  # exp(-2 q sqrt(dt)) is inf for a huge negative q
            if build is gl.MeasureChange:  # `values` are the up-probabilities themselves
                control, up_prob, args = random_control(lat, rng, 1.0), values, (values,)
            else:
                control, args = gl.PredictableControl(lat, values), ()
                up_prob = stored_up_probabilities(
                    control, build is gl.exponential_density_from_control)
            want = first_outside(up_prob)
            if want is None:
                Q = build(control, *args)
                assert all(np.array_equal(got, p) for got, p in zip(Q.up_prob, up_prob))
                return
            with pytest.raises(gl.AdmissibilityError) as err:
                build(control, *args)
        assert err.value.node == want and err.value.bound == edge
        got, expected = err.value.value, float(control[want.step][want.index])
        assert got == expected or math.isnan(got) and math.isnan(expected)
