"""CLI paths the command tests leave aside: soft warnings, size fallbacks and `python -m glattice`."""

import runpy
import sys
from pathlib import Path

import pytest

from glattice import bsde
from glattice.cli import COMMANDS, main
from glattice.conjugate import FAMILY_TOLERANCE
from glattice.report import RunReport, format_cell
from test_cli import ROOT, limit_physical_memory, write_config


def csv_rows(path):
    return {line.split(",")[0]: line.split(",") for line in Path(path).read_text().splitlines()}


def stub_command(monkeypatch, command):
    """Replace `command` by a no-op that records the configs it is given."""
    ran = []
    monkeypatch.setitem(COMMANDS, command,
                        lambda config: ran.append(config) or RunReport(command, 0, "test"))
    return ran


def test_converge_warns_on_error_inversions(tmp_path, capsys):
    # a call's binomial error is not monotone in the steps: N=3 and N=6 are worse than N-1
    cfg = write_config(tmp_path, driver="zero", claim="call:0.3", steps_list=[2, 3, 4, 5, 6],
                       tolerances={"final_error": 1.0})
    out = tmp_path / "converge.csv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    assert "warning: error sequence not monotone: 2 inversion(s); soft check only" \
        in capsys.readouterr().out
    assert csv_rows(out)["error_inversions"][2:] == ["2", "0", "", "true"]


@pytest.mark.parametrize("steps,solved_on", [(3, 3), (12, 12), (13, 8)])
def test_props_solves_axioms_on_small_full_binary_grids(steps, solved_on, tmp_path, monkeypatch,
                                                        capsys):
    grids = []
    suite = bsde.axiom_suite
    monkeypatch.setattr(bsde, "axiom_suite",
                        lambda driver, lattice, **kw: grids.append(lattice) or suite(
                            driver, lattice, **kw))
    cfg = write_config(tmp_path, driver="abs:0.5", suites=["axioms"], trials=2,
                       grid={"horizon": 1.0, "steps": steps, "topology": "full_binary"})
    assert main(["props", "--config", cfg]) == 0, capsys.readouterr().err
    [lattice] = grids
    assert lattice.steps == solved_on and lattice.topology.value == "full_binary"


def test_monotone_family_row_prints_the_applied_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, driver="entropic:1", suites=["monotone_family"],
                       levels=[1.0, 2.0])
    out = tmp_path / "props.csv"
    assert main(["props", "--config", cfg, "--out", str(out)]) == 0
    assert csv_rows(out)["monotone_family"][4] == format_cell(FAMILY_TOLERANCE) == "1e-09"


@pytest.mark.parametrize("topology,steps,code", [
    ("recombining", 2047, 0), ("recombining", 2048, 2),  # 2048 and 2049 last-step nodes
    ("full_binary", 11, 0), ("full_binary", 12, 2),  # 2048 and 4096 last-step nodes
])
def test_price_is_sized_by_its_last_step(topology, steps, code, tmp_path, monkeypatch, capsys):
    # 1 MiB of physical memory holds 2048 last-step nodes at 512 bytes a node
    limit_physical_memory(monkeypatch, 2**20)
    ran = stub_command(monkeypatch, "price")
    cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": steps, "topology": topology})
    assert main(["price", "--config", cfg]) == code
    assert len(ran) == (code == 0)
    assert capsys.readouterr().err.startswith("config error: price would hold") == (code == 2)


def test_no_sysconf_means_no_memory_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr("glattice.cli.os.sysconf")
    ran = stub_command(monkeypatch, "price")
    cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": 10000})
    assert main(["price", "--config", cfg]) == 0, capsys.readouterr().err
    assert len(ran) == 1


def test_python_dash_m_glattice_writes_the_golden_report(tmp_path, monkeypatch, capsys):
    out = tmp_path / "price.csv"
    monkeypatch.setattr(sys, "argv", ["glattice", "price", "--config",
                                      str(ROOT / "configs" / "price.json"), "--out", str(out)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("glattice", run_name="__main__")
    assert stop.value.code == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "price.csv").read_bytes()
