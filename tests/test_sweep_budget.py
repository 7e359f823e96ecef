"""`price` and `penalty` stream their sweeps: a budget on nodes swept bounds them, not fields."""

import json
import tracemalloc

import numpy as np
import pytest

import glattice as gl
from glattice import cli, penalty
from glattice.cli import COMMANDS, main
from glattice.lattice import node_total
from glattice.report import RunReport
from conftest import random_control


def write_config(tmp_path, **entries):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return str(path)


def limit_physical_memory(monkeypatch, nbytes):
    values = {"SC_PHYS_PAGES": nbytes // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr("glattice.cli.os.sysconf", values.__getitem__)


class TestNodeBudget:
    def test_price_runs_at_600_steps_in_four_mebibytes(self, tmp_path, monkeypatch, capsys):
        limit_physical_memory(monkeypatch, 4 * 2**20)
        cfg = write_config(tmp_path, driver="entropic:1", claim="call:0.2",
                           grid={"horizon": 1.0, "steps": 600})
        assert main(["price", "--config", cfg]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "penalty"])
    def test_refused_above_the_budget_before_anything_runs(self, command, tmp_path, monkeypatch,
                                                           capsys):
        ran = []
        monkeypatch.setitem(COMMANDS, command,
                            lambda config: ran.append(config) or RunReport(command, 0, "test"))
        # the largest recombining grid within the budget, and one step more
        steps = int((2 * cli.SWEEP_NODE_BUDGET) ** 0.5) - 2
        while node_total(gl.TreeTopology.RECOMBINING, steps + 1) <= cli.SWEEP_NODE_BUDGET:
            steps += 1
        for n, code in ((steps, 0), (steps + 1, 2)):
            cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": n})
            assert main([command, "--config", cfg]) == code, n
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} would sweep") and len(ran) == 1

    @pytest.mark.parametrize("command", ["price", "penalty"])
    def test_memory_counts_the_last_step(self, command, tmp_path, monkeypatch, capsys):
        # 8192 recombining steps hold 8193 * STREAM_BYTES_PER_NODE bytes: about 4 MiB
        monkeypatch.setitem(COMMANDS, command, lambda config: RunReport(command, 0, "test"))
        held = 8193 * cli.STREAM_BYTES_PER_NODE
        cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": 8192})
        limit_physical_memory(monkeypatch, held + 4096)
        assert main([command, "--config", cfg]) == 0
        limit_physical_memory(monkeypatch, held - 4096)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {command} would hold")


class TestStreamedPenalty:
    @pytest.mark.parametrize("topology,steps", [(gl.TreeTopology.RECOMBINING, 16),
                                                (gl.TreeTopology.FULL_BINARY, 6)])
    def test_deterministic_cocycle_is_the_stopping_time_one(self, topology, steps):
        lat = gl.build_grid(1.0, steps, topology)
        f = gl.fenchel(gl.entropic(1.0))
        rng = np.random.default_rng(21)
        for trial in range(10):
            measure = gl.density_from_control(random_control(lat, rng, 1.5))
            s, m, e = sorted(int(x) for x in rng.integers(0, steps + 1, size=3))
            times = [gl.StoppingTime.deterministic(lat, j) for j in (s, m, e)]
            assert (penalty._deterministic_cocycle(f, measure, s, m, e)
                    == gl.cocycle_residual(f, measure, *times)), trial

    @pytest.mark.parametrize("control,steps", [("feedback:0.3,0.5", 64),
                                               ("piecewise:0.3,-0.2,0.1", 1000)])
    def test_penalty_command_checks_the_cocycle_at_its_midpoint(self, control, steps):
        config = cli.ExperimentConfig.from_dict({
            "driver": "entropic:1", "integrand": "quadratic:1", "control": control,
            "grid": {"horizon": 1.0, "steps": steps}})
        row = next(r for r in cli.cmd_penalty(config).rows if r.name == "cocycle_residual")
        lat = config.build_lattice()
        measure = gl.density_from_control(config.build_control(lat))
        times = [gl.StoppingTime.deterministic(lat, j) for j in (0, steps // 2, steps)]
        residual = gl.cocycle_residual(config.build_integrand(config.build_driver()), measure, *times)
        assert row.value == residual and residual > 0.0  # roundoff that depends on the midpoint

    @pytest.mark.parametrize("control", ["feedback:0.3,0.5", "zero", "constant:0.2",
                                         "piecewise:0.3,-0.2,0.1"])
    def test_penalty_command_holds_no_field(self, control):
        config = cli.ExperimentConfig.from_dict({
            "driver": "entropic:1", "control": control, "grid": {"horizon": 1.0, "steps": 1024}})
        tracemalloc.start()
        try:
            report = cli.cmd_penalty(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.overall_pass
        # a deterministic control takes the Doob check too
        assert any(r.name == "doob_residual" for r in report.rows) == (control != "feedback:0.3,0.5")
        # one float field of 1024 steps is 4.2 MB; the control, its measure, the formula's
        # root, the cocycle's three windows and the Doob check are all swept a step at a time
        assert peak < 2**20, peak


def eager_doob(integrand, measure):
    """`doob_decomposition` of a deterministic control on stored fields: (A field, residual)."""
    lat = measure.lattice
    fq = [np.asarray(integrand(lat.grid.time(k), measure.control[k]), dtype=float)
          for k in range(lat.steps)]
    running, acc = 0.0, [np.zeros(1)]
    for k in range(lat.steps):
        running += float(fq[k][0]) * lat.dt
        acc.append(np.full(lat.node_count(k + 1), running))
    cost, tail = [np.zeros(lat.node_count(lat.steps))], [acc[lat.steps]]  # steps N .. 0
    for k in reversed(range(lat.steps)):
        p = measure.up_prob[k]
        down, up = lat.child_values(cost[-1])
        cost.append(fq[k] * lat.dt + (p * up + (1.0 - p) * down))
        down, up = lat.child_values(tail[-1])
        tail.append(p * up + (1.0 - p) * down)
    residual = max(float(np.max(np.abs(c - (t - acc[k]))))
                   for k, c, t in zip(range(lat.steps, -1, -1), cost, tail))
    return acc, residual


class TestStreamedDoob:
    @pytest.mark.parametrize("spec", ["zero", "constant:0.4", "piecewise:0.3,-0.2,0.1"])
    def test_lazy_accumulation_is_the_stored_one(self, spec):
        lat = gl.build_grid(1.0, 96)
        f = gl.fenchel(gl.entropic(1.0))
        control = cli.ExperimentConfig.from_dict({"control": spec}).build_control(lat)
        measure = gl.density_from_control(control)
        acc, residual = eager_doob(f, measure)
        report = gl.doob_decomposition(f, measure)
        assert report.residual == residual
        lazy = report.increasing.a
        for k in (5, 96, 0, 50, 50, -1):  # interleaved and repeated reads
            assert lazy[k % 97].tobytes() == acc[k].tobytes(), k
        cost = gl.accumulated_cost(f, measure.control).a
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cost.values, acc))

    def test_recombining_doob_holds_no_field(self):
        lat = gl.build_grid(1.0, 1024)
        f = gl.fenchel(gl.entropic(1.0))
        measure = gl.density_from_control(gl.PredictableControl.constant(lat, 0.3))
        tracemalloc.start()
        try:
            report = gl.doob_decomposition(f, measure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.residual <= 1e-12
        assert peak < 2**20, peak  # one float field of 1024 steps is 4.2 MB
