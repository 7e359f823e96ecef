import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice.lattice import node_total


class TestBuildGrid:
    def test_recombining_node_counts(self):
        lat = gl.build_grid(1.0, 4, gl.TreeTopology.RECOMBINING)
        assert lat.node_count(4) == 5

    def test_full_binary_node_counts(self):
        lat = gl.build_grid(1.0, 3, gl.TreeTopology.FULL_BINARY)
        assert lat.node_count(3) == 8

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            gl.build_grid(1.0, 0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            gl.build_grid(-1.0, 4)
        with pytest.raises(ValueError):
            gl.build_grid(0.0, 4)

    def test_full_binary_step_bound(self):
        with pytest.raises(ValueError):
            gl.build_grid(1.0, gl.FULL_BINARY_MAX_STEPS + 1, gl.TreeTopology.FULL_BINARY)

    def test_dt_times_steps_is_horizon(self):
        grid = gl.TimeGrid(1.7, 13)
        assert grid.dt * grid.steps == pytest.approx(1.7, abs=1e-15)

    @given(steps=st.integers(1, 12), full=st.booleans())
    def test_node_counts_match_topology(self, steps, full):
        topo = gl.TreeTopology.FULL_BINARY if full else gl.TreeTopology.RECOMBINING
        lat = gl.build_grid(1.0, steps, topo)
        for k in range(steps + 1):
            assert lat.node_count(k) == (2**k if full else k + 1)
            assert lat.level_values(k).shape == (lat.node_count(k),)

    @given(steps=st.integers(1, 20), full=st.booleans())
    def test_node_total_is_sum_of_node_counts(self, steps, full):
        topo = gl.TreeTopology.FULL_BINARY if full else gl.TreeTopology.RECOMBINING
        lat = gl.build_grid(1.0, steps, topo)
        assert node_total(topo, steps) == sum(map(lat.node_count, range(steps + 1)))


class TestBrownianLevel:
    def test_root_is_zero(self):
        lat = gl.build_grid(1.0, 4)
        assert lat.level_values(0)[0] == 0.0

    def test_all_up_node(self):
        lat = gl.build_grid(1.0, 4)  # dt = 0.25
        assert lat.level_values(4)[4] == pytest.approx(2.0, abs=1e-14)

    def test_one_up_one_down(self):
        lat = gl.build_grid(1.0, 2)
        assert lat.level_values(2)[1] == pytest.approx(0.0, abs=1e-14)

    @given(steps=st.integers(1, 10), full=st.booleans())
    @settings(max_examples=30)
    def test_edges_move_by_sqrt_dt(self, steps, full):
        topo = gl.TreeTopology.FULL_BINARY if full else gl.TreeTopology.RECOMBINING
        lat = gl.build_grid(2.0, steps, topo)
        for k in range(steps):
            cur = lat.level_values(k)
            down, up = lat.child_values(lat.level_values(k + 1))
            assert np.allclose(up - cur, lat.sqrt_dt, atol=1e-14)
            assert np.allclose(down - cur, -lat.sqrt_dt, atol=1e-14)

    def test_level_function_constant_on_equal_levels(self, full6):
        # merged-path values agree whenever the walk level agrees
        field = gl.terminal_field(full6, lambda x: np.sin(x))
        levels = full6.level_values(6)
        vals = field[6]
        for level in np.unique(np.round(levels, 12)):
            group = vals[np.isclose(levels, level)]
            assert np.all(group == group[0])


REC, FULL = gl.TreeTopology.RECOMBINING, gl.TreeTopology.FULL_BINARY


def reference_levels(lattice):
    """Per-step level vectors built by walking the up counts forward, one stored array per step."""
    sdt = lattice.sqrt_dt
    levels = []
    upcount = np.zeros(1, dtype=np.int64)
    for k in range(lattice.steps + 1):
        levels.append((2 * upcount - k) * sdt)
        if lattice.topology is REC:
            upcount = np.arange(k + 2, dtype=np.int64)
        else:
            nxt = np.empty(2 * upcount.size, dtype=np.int64)
            nxt[0::2] = upcount
            nxt[1::2] = upcount + 1
            upcount = nxt
    return levels


def reference_push(lattice, values, down, up):
    """The forward map written out per topology: merged children add, binary children interleave."""
    if lattice.topology is REC:
        nxt = np.zeros(values.size + 1, dtype=np.result_type(values * down, values * up))
        nxt[:-1] += values * down
        nxt[1:] += values * up
        return nxt
    nxt = np.empty(2 * values.size, dtype=np.result_type(values * down, values * up))
    nxt[0::2] = values * down
    nxt[1::2] = values * up
    return nxt


def reference_hitting_masks(lattice, event):
    """Absorbing closure of an event, carried forward with explicit ORs and repeats."""
    reached = []
    for k, mask in enumerate(event):
        if k == 0:
            cur = mask.copy()
        elif lattice.topology is REC:
            carried = np.zeros(k + 1, dtype=bool)
            carried[:-1] |= reached[k - 1]
            carried[1:] |= reached[k - 1]
            cur = mask | carried
        else:
            cur = mask | np.repeat(reached[k - 1], 2)
        reached.append(cur)
    reached[lattice.steps] = np.ones(lattice.node_count(lattice.steps), dtype=bool)
    return reached


def assert_same_array(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestLayoutPrimitives:
    """`level_values` and `push` against the stored levels and hand-written forward maps."""

    @pytest.mark.parametrize("topology, sizes", [(REC, [1, 2, 7, 64, 1000]),
                                                 (FULL, [1, 2, 5, 12])])
    @pytest.mark.parametrize("horizon", [0.3, 1.0, 2.5, 7.0, 1e-3])
    def test_level_values_match_stored_levels(self, topology, sizes, horizon):
        for steps in sizes:
            lat = gl.build_grid(horizon, steps, topology)
            for k, expected in enumerate(reference_levels(lat)):
                got = lat.level_values(k)
                assert_same_array(got, expected)
                assert not got.flags.writeable

    def test_level_values_refuse_steps_outside_the_grid(self, rec8):
        with pytest.raises(ValueError):
            rec8.level_values(9)
        with pytest.raises(ValueError):
            rec8.level_values(-1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([REC, FULL]), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_push_matches_forward_maps(self, topology, steps, seed):
        lat = gl.build_grid(1.7, steps, topology)
        rng = np.random.default_rng(seed)
        for k in range(steps):
            n = lat.node_count(k)
            values = rng.normal(size=n)
            p = rng.uniform(0.05, 0.95, size=n)
            for down, up in ((1.0 - p, p), (2.0 * (1.0 - p), 2.0 * p), (1.0, 1.0)):
                got = lat.push(values, down, up)
                assert got.shape == (lat.node_count(k + 1),)
                assert_same_array(got, reference_push(lat, values, down, up))
            mask = rng.uniform(size=n) < 0.4
            assert_same_array(lat.push(mask, True, True), reference_push(lat, mask, True, True))
            if topology is FULL:
                assert_same_array(lat.push(values, 1.0, 1.0), np.repeat(values, 2))
                assert_same_array(lat.push(mask, True, True), np.repeat(mask, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([REC, FULL]), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_push_is_the_transpose_of_child_values(self, topology, steps, seed):
        # small integers keep every sum exact
        lat = gl.build_grid(1.0, steps, topology)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(steps))
        v = rng.integers(-9, 10, size=lat.node_count(k)).astype(float)
        w = rng.integers(-9, 10, size=lat.node_count(k + 1)).astype(float)
        a = rng.integers(-3, 4, size=v.size).astype(float)
        b = rng.integers(-3, 4, size=v.size).astype(float)
        down, up = lat.child_values(w)
        assert float(lat.push(v, a, b) @ w) == float(v @ (a * down + b * up))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([REC, FULL]), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_hitting_time_matches_explicit_closure(self, topology, steps, seed):
        lat = gl.build_grid(1.0, steps, topology)
        rng = np.random.default_rng(seed)
        event = [rng.uniform(size=lat.node_count(k)) < 0.15 for k in range(steps + 1)]
        got = gl.hitting_time(lat, event).reached
        for mine, theirs in zip(got, reference_hitting_masks(lat, event)):
            assert_same_array(mine, theirs)

    @pytest.mark.parametrize("steps", [1, 4, 9])
    def test_pushed_shift_matches_ancestor_gather(self, steps):
        lat = gl.build_grid(1.0, steps, FULL)
        rng = np.random.default_rng(steps)
        for k in range(steps + 1):
            shift = rng.normal(size=lat.node_count(k))
            at_j = shift
            for j in range(k, steps + 1):
                if j > k:
                    at_j = lat.push(at_j, 1.0, 1.0)
                assert_same_array(at_j, shift[np.arange(lat.node_count(j)) >> (j - k)])
            assert_same_array(at_j, shift[lat.terminal_ancestors(k)])


class TestTerminalField:
    def test_identity_payoff(self):
        lat = gl.build_grid(1.0, 2)  # dt = 0.5
        field = gl.terminal_field(lat, lambda x: x)
        r = math.sqrt(0.5)
        assert np.allclose(field[2], [-2 * r, 0.0, 2 * r], atol=1e-14)

    def test_constant_payoff(self):
        lat = gl.build_grid(1.0, 3)
        field = gl.terminal_field(lat, lambda x: np.full_like(x, 3.0))
        assert np.all(field[3] == 3.0)

    def test_explicit_vector_wrong_length(self):
        lat = gl.build_grid(1.0, 2)
        with pytest.raises(ValueError):
            gl.terminal_field(lat, [1.0, 2.0])

    def test_non_finite_rejected(self):
        lat = gl.build_grid(1.0, 1)
        with pytest.raises(ValueError, match="essentially bounded"):
            gl.terminal_field(lat, [1.0, np.inf])

    def test_sup_norm_certificate(self):
        lat = gl.build_grid(1.0, 2)
        field = gl.terminal_field(lat, [1.0, -7.0, 2.0])
        assert field.sup_norm() == 7.0


class TestAdaptedField:
    def test_length_validation(self, rec8):
        with pytest.raises(ValueError):
            gl.AdaptedField(rec8, [np.zeros(3)], start=8)

    def test_step_indexing(self, rec8):
        field = gl.AdaptedField(rec8, [np.zeros(k + 1) for k in range(9)], start=0)
        assert field[5].shape == (6,)
        with pytest.raises(KeyError):
            field[9]


class TestStoppingTime:
    def test_never_true_event(self, rec8):
        event = [np.zeros(k + 1, dtype=bool) for k in range(9)]
        tau = gl.hitting_time(rec8, event)
        for k in range(8):
            assert not tau.reached[k].any()
        assert tau.reached[8].all()

    def test_event_at_root(self, rec8):
        event = [np.zeros(k + 1, dtype=bool) for k in range(9)]
        event[0][0] = True
        tau = gl.hitting_time(rec8, event)
        assert all(mask.all() for mask in tau.reached)

    def test_running_sum_threshold_is_deterministic_ceiling(self):
        # constant control: the accumulated cost f(q) dt crosses n at step ceil(n/(f(q) dt))
        lat = gl.build_grid(1.0, 10)
        q, gamma, n = 0.6, 1.0, 0.1
        per_step = gamma * q * q / 2.0 * lat.dt
        running = np.cumsum(np.full(10, per_step))
        event = [np.full(k + 1, k > 0 and running[k - 1] >= n) for k in range(11)]
        tau = gl.hitting_time(lat, event)
        expected = math.ceil(n / per_step)
        for k in range(11):
            assert tau.reached[k].all() == (k >= expected)

    def test_adaptedness_absorbing_enforced(self, rec8):
        masks = [np.zeros(k + 1, dtype=bool) for k in range(9)]
        masks[3][:] = True
        masks[4][:] = False  # children of reached nodes must stay reached
        masks[8][:] = True
        with pytest.raises(ValueError, match="absorbing"):
            gl.StoppingTime(rec8, masks)

    def test_horizon_must_be_reached(self, rec8):
        masks = [np.zeros(k + 1, dtype=bool) for k in range(9)]
        with pytest.raises(ValueError, match="horizon"):
            gl.StoppingTime(rec8, masks)

    def test_min_max_and_order(self, rec8):
        a = gl.StoppingTime.deterministic(rec8, 2)
        b = gl.StoppingTime.deterministic(rec8, 5)
        assert a.is_before(b)
        assert not b.is_before(a)
        assert a.minimum(b).is_before(a)
        assert b.is_before(a.maximum(b))

    def test_full_binary_hit_is_exact_pathwise(self, full6):
        # barrier event: compare node flags against per-path first hits
        barrier = 0.9
        event = [np.abs(full6.level_values(k)) >= barrier for k in range(7)]
        tau = gl.hitting_time(full6, event)
        steps = tau.step_on_paths()
        for path in range(2**6):
            walk = [path >> (6 - k) for k in range(7)]
            hits = [k for k in range(7) if event[k][walk[k]]]
            expected = min(hits) if hits else 6
            assert steps[path] == expected

    def test_union_of_atoms_invariant(self, rec8):
        rng = np.random.default_rng(0)
        event = [rng.uniform(size=k + 1) < 0.2 for k in range(9)]
        tau = gl.hitting_time(rec8, event)
        # {tau <= k} determined by the step-k node: masks exist and are absorbing
        for k in range(8):
            down, up = rec8.child_values(tau.reached[k + 1])
            assert np.all(~tau.reached[k] | (down & up))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(gl.TreeTopology)), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_combinator_outputs_pass_the_public_constructor(self, topology, steps, seed):
        # the combinators skip the absorption check; the checked constructor must agree
        lat = gl.build_grid(1.0, steps, topology)
        rng = np.random.default_rng(seed)

        def random_event():
            p = rng.uniform(0.0, 0.5)
            return [rng.uniform(size=lat.node_count(k)) < p for k in range(steps + 1)]

        a, b = gl.hitting_time(lat, random_event()), gl.hitting_time(lat, random_event())
        fixed = gl.StoppingTime.deterministic(lat, int(rng.integers(steps + 1)))
        for stop in (a, b, fixed, a.minimum(b), a.maximum(b), fixed.minimum(a),
                     fixed.maximum(b)):
            checked = gl.StoppingTime(lat, stop.reached)
            assert all(np.array_equal(x, y) for x, y in zip(checked.reached, stop.reached))

    def test_combinators_refuse_other_lattices(self, rec8):
        other = gl.StoppingTime.deterministic(gl.build_grid(1.0, 6), 3)
        binary = gl.StoppingTime.deterministic(gl.build_grid(1.0, 8, gl.TreeTopology.FULL_BINARY), 3)
        mine = gl.StoppingTime.deterministic(rec8, 3)
        for theirs in (other, binary):
            with pytest.raises(ValueError, match="different lattices"):
                mine.minimum(theirs)
            with pytest.raises(ValueError, match="different lattices"):
                mine.maximum(theirs)


class TestPredictableControl:
    def test_constant_and_max_abs(self, rec8):
        q = gl.PredictableControl.constant(rec8, -0.7)
        assert q.max_abs() == 0.7
        assert q.is_deterministic()

    def test_state_function(self, rec8):
        q = gl.PredictableControl.from_state_function(rec8, lambda t, x: 0.1 * x)
        assert np.allclose(q[3], 0.1 * rec8.level_values(3))
        assert not q.is_deterministic()

    def test_shape_validation(self, rec8):
        with pytest.raises(ValueError):
            gl.PredictableControl(rec8, [np.zeros(2)] * 8)


# constructor -> (first step, last step, build from a lattice and per-step arrays);
# the checked field is a one-step claim, so an empty list is its step too few
SHAPE_CHECKED = {
    "AdaptedField": (4, 4, lambda lat, arrays: gl.AdaptedField(lat, arrays, start=4)),
    "PredictableControl": (0, 3, gl.PredictableControl),
    "StoppingTime": (0, 4, gl.StoppingTime),
    "hitting_time": (0, 4, gl.hitting_time),
    "MeasureChange": (0, 3, lambda lat, arrays: gl.MeasureChange(
        gl.PredictableControl.constant(lat, 0.0), arrays)),
    "restrict_control": (0, 3, lambda lat, arrays: gl.restrict_control(
        gl.PredictableControl.constant(lat, 0.0), arrays)),
}


class TestPerStepShapeCheck:
    @pytest.mark.parametrize("topology", list(gl.TreeTopology))
    @pytest.mark.parametrize("fault", ["too_few", "too_many", "wrong_count"])
    @pytest.mark.parametrize("name", sorted(SHAPE_CHECKED))
    def test_fault_names_its_step(self, name, fault, topology):
        lat = gl.build_grid(1.0, 4, topology)
        first, last, build = SHAPE_CHECKED[name]
        # 0.5 is an admissible value, probability and (as True) stop flag at every node
        arrays = [np.full(lat.node_count(min(k, lat.steps)), 0.5) for k in range(first, last + 2)]
        build(lat, arrays[:-1])  # the right shape passes
        if fault == "too_few":
            arrays, bad = arrays[:-2], last
        elif fault == "too_many":
            bad = last + 1
        else:
            bad = (first + last) // 2
            arrays = arrays[:-1]
            arrays[bad - first] = np.full(arrays[bad - first].size + 1, 0.5)
        with pytest.raises(ValueError, match=rf"\bstep {bad}\b"):
            build(lat, arrays)
