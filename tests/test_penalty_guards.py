"""Penalty guards and verdicts the other suites never trip: each test fails if its guard is a no-op."""

import math

import numpy as np
import pytest

import glattice as gl
from glattice.penalty import UpperBoundReport, _extended_gap


class TestGuards:
    @pytest.mark.parametrize("whole,parts,gap", [
        ([np.inf, 1.0], ([1.0, 0.5], [0.0, 0.5]), math.inf),  # +inf in the whole only
        ([1.0, 1.0], ([np.inf, 0.5], [0.0, 0.5]), math.inf),  # +inf in a part only
        ([np.inf, 1.0], ([np.inf, 0.5], [0.0, 0.25]), 0.25),  # same pattern: finite entries
    ])
    def test_extended_gap_needs_one_infinite_set(self, whole, parts, gap):
        assert _extended_gap(np.array(whole), *map(np.array, parts)) == gap

    def test_oracle_part_skipped_at_infinite_penalty(self, full3):
        # q = 0.9 leaves the box |q| <= 0.5 where the conjugate of abs:0.5 is finite
        driver = gl.abs_scaled(0.5)
        Q = gl.density_from_control(gl.PredictableControl.constant(full3, 0.9))
        assert math.isinf(gl.penalty_formula(gl.fenchel(driver), Q, 0, 3).initial())
        report = gl.supermartingale_suite(gl.fenchel(driver), Q, trials=5, seed=0, driver=driver)
        assert report.skipped_oracle_part and report.passed
        assert report.lemma_bound_violations is None and report.oracle_gap is None
        assert report.acceptance_residual is None

    @pytest.mark.parametrize("holds,gap,passed", [
        (True, None, True), (True, 1e-6, True), (True, 2e-6, False), (False, None, False),
        (False, 0.0, False)])
    def test_upper_bound_verdict(self, holds, gap, passed):
        assert UpperBoundReport(0.0, 0.0, holds, gap).passed is passed

    def test_upper_bound_checks_pass(self, full3):
        for driver, q in [(gl.entropic(1.0, radius=16.0), 0.4), (gl.abs_scaled(0.5), 0.9)]:
            assert gl.upper_bound_check(driver, gl.PredictableControl.constant(full3, q)).passed

    @staticmethod
    def deterministic(lattice, values, start=0):
        return gl.AdaptedField(lattice, [np.full(lattice.node_count(k), v)
                                         for k, v in enumerate(values, start)], start=start)

    def test_increasing_process_spans_all_steps(self, full3):
        with pytest.raises(ValueError, match="must span all steps"):
            gl.IncreasingProcess(self.deterministic(full3, [0.0, 0.1, 0.2], start=1))
        with pytest.raises(ValueError, match="must span all steps"):
            gl.IncreasingProcess(self.deterministic(full3, [0.0, 0.1, 0.2]))

    def test_increasing_process_starts_at_zero(self, full3):
        with pytest.raises(ValueError, match="must start at zero"):
            gl.IncreasingProcess(self.deterministic(full3, [1.0, 1.0, 1.0, 1.0]))

    def test_increasing_process_never_decreases(self, full3):
        # predictable (equal on both children) but falling over step 1
        with pytest.raises(ValueError, match="decreases over step 1"):
            gl.IncreasingProcess(self.deterministic(full3, [0.0, 0.5, 0.25, 0.25]))
