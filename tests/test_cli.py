import inspect
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glattice as gl
from glattice.cli import (CLAIMS, COMMANDS, CONTROLS, DRIVERS, INTEGRANDS, ConfigError,
                          ExperimentConfig, closed_form_reference, main)
from glattice.report import RunReport, format_cell
from conftest import max_field_diff

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"driver": "zero", "bogus": 1})

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ConfigError, match="config.grid"):
            ExperimentConfig.from_dict({"grid": {"horizon": 1.0, "n": 4}})

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tolerances": {"nope": 1.0}})

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            ExperimentConfig.from_dict({"grid": {"topology": "ternary"}})

    def test_claim_and_control_specs(self):
        cfg = ExperimentConfig.from_dict({
            "driver": "abs:0.5",
            "grid": {"horizon": 1.0, "steps": 4},
            "claim": "call:0.5",
            "control": "piecewise:0.1,0.2",
        })
        lat = cfg.build_lattice()
        claim = cfg.build_claim(lat)
        assert np.all(claim[4] >= 0.0)
        control = cfg.build_control(lat)
        assert float(control[0][0]) == 0.1 and float(control[1][0]) == 0.2

    def test_unknown_specs_rejected(self):
        cfg = ExperimentConfig.from_dict({"claim": "woof", "control": "woof"})
        lat = cfg.build_lattice()
        with pytest.raises(ConfigError):
            cfg.build_claim(lat)
        with pytest.raises(ConfigError):
            cfg.build_control(lat)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"driver": "woof"}).build_driver()

    def test_explicit_claim_vector(self):
        cfg = ExperimentConfig.from_dict({
            "grid": {"horizon": 1.0, "steps": 2},
            "claim": {"explicit": [1.0, 2.0, 3.0]},
        })
        claim = cfg.build_claim(cfg.build_lattice())
        assert np.array_equal(claim[2], [1.0, 2.0, 3.0])


class TestClosedForms:
    def test_registered_pairs(self):
        cfg = ExperimentConfig.from_dict({"driver": "entropic:1", "claim": "brownian",
                                          "grid": {"horizon": 1.0, "steps": 8}})
        assert closed_form_reference(cfg) == -0.5
        cfg.driver_spec = "abs:0.5"
        assert closed_form_reference(cfg) == -0.5
        cfg.driver_spec = "zero"
        cfg.claim_spec = "abs_brownian"
        assert closed_form_reference(cfg) == pytest.approx(math.sqrt(2 / math.pi))

    def test_unregistered_pair_rejected(self):
        cfg = ExperimentConfig.from_dict({"driver": "abs:0.5", "claim": "abs_brownian",
                                          "grid": {"horizon": 1.0, "steps": 8}})
        with pytest.raises(ConfigError, match="closed-form"):
            closed_form_reference(cfg)


class TestTableEntries:
    """Table entries and closed forms a config reaches, each against an independent value."""

    def test_box_integrand_prices_like_its_driver(self, rec64):
        driver = DRIVERS["abs"](0.5)
        claim = CLAIMS["call"](rec64, 0.2)
        dual_root = gl.dual_utility(INTEGRANDS["box"](driver, 0.5), claim).u[0][0]
        assert abs(dual_root - gl.utility_solution(driver, claim).y[0][0]) <= 1e-10

    def test_origin_integrand_gives_the_fair_coin_expectation(self, rec8):
        claim = CLAIMS["abs_brownian"](rec8)
        fair = sum(math.comb(8, j) * v for j, v in enumerate(claim[8])) / 2**8
        dual_root = gl.dual_utility(INTEGRANDS["origin"](DRIVERS["zero"]()), claim).u[0][0]
        assert abs(dual_root - fair) <= 1e-12

    def test_quadratic_integrand_matches_entropic_where_no_clamp_binds(self, rec64):
        claim = CLAIMS["call"](rec64, 0.0)
        solution = gl.dual_utility(INTEGRANDS["quadratic"](DRIVERS["zero"](), 1.0), claim)
        assert not solution.any_clamped
        utility = gl.utility_solution(DRIVERS["entropic"](1.0), claim).y
        assert max_field_diff(solution.u, utility) <= 1e-10

    def test_constant_claim_fills_the_horizon(self, rec8):
        assert np.array_equal(CLAIMS["constant"](rec8, 2.5)[8], np.full(9, 2.5))

    @given(driver=st.sampled_from(["zero", "interval:-0.4,0.3", "linear:0.3", "linear:-1.2"]),
           steps=st.integers(1, 10), full=st.booleans(), horizon=st.floats(0.25, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_exact_closed_forms_equal_the_lattice_root(self, driver, steps, full, horizon):
        claim = "constant:1.5" if driver == "zero" else "brownian"
        cfg = ExperimentConfig.from_dict({"driver": driver, "claim": claim, "grid": {
            "horizon": horizon, "steps": steps,
            "topology": "full_binary" if full else "recombining"}})
        root = gl.utility(cfg.build_driver(), cfg.build_claim(cfg.build_lattice()), 0)[0][0]
        assert abs(root - closed_form_reference(cfg)) <= 1e-12

    def test_call_closed_form_within_final_error(self):
        cfg = ExperimentConfig.from_dict({"claim": "call:0.2", "grid": {"steps": 2048}})
        root = gl.utility(cfg.build_driver(), cfg.build_claim(cfg.build_lattice()), 0)[0][0]
        assert abs(root - closed_form_reference(cfg)) <= cfg.tolerance("final_error")

    def test_props_runs_the_oracle_part_on_a_desk_grid(self, tmp_path):
        out = tmp_path / "props.csv"
        cfg = write_config(tmp_path, driver="entropic:1,16", control="constant:0.4", trials=5,
                           suites=["supermartingale"],
                           grid={"horizon": 1.0, "steps": 3, "topology": "full_binary"})
        assert main(["props", "--config", cfg, "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",")[-1] for line in out.read_text().splitlines()}
        assert rows["near_optimal_bound.violations"] == "true"
        assert rows["acceptance_decomposition"] == "true"


class TestCommands:
    def test_price_zero_driver(self, tmp_path, capsys):
        cfg = write_config(tmp_path, driver="zero", claim="brownian",
                           grid={"horizon": 1.0, "steps": 32})
        assert main(["price", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "u0" in out and "PASS" in out

    @pytest.mark.parametrize("spelling", ["conjugate", " conjugate", "conjugate ", "conjugate:"])
    def test_price_gates_the_gap_however_conjugate_is_spelled(self, spelling, tmp_path, capsys):
        # the mislabelled concave driver has no conjugate identity: a gap of about 7.8
        cfg = write_config(tmp_path, driver="malformed", claim="abs_brownian",
                           integrand=spelling, grid={"horizon": 1.0, "steps": 16})
        assert main(["price", "--config", cfg]) == 1
        assert "[FAIL] duality_gap_max" in capsys.readouterr().out

    def test_price_streams_its_sweeps(self):
        config = ExperimentConfig.from_dict({"driver": "entropic:1", "claim": "call:0.2",
                                             "grid": {"horizon": 1.0, "steps": 2048}})
        tracemalloc.start()
        try:
            report = COMMANDS["price"](config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.overall_pass
        assert peak < 2 * 2**20  # the two full fields alone would take 51 MiB

    def test_penalty_desk_scale(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, driver="entropic:1,16", control="constant:0.4",
            grid={"horizon": 1.0, "steps": 3, "topology": "full_binary"})
        assert main(["penalty", "--config", cfg]) == 0
        assert "penalty_primal" in capsys.readouterr().out

    def test_penalty_fair_coin_is_zero(self, tmp_path):
        out = str(tmp_path / "report.csv")
        cfg = write_config(tmp_path, driver="entropic:1,16", control="zero",
                           grid={"horizon": 1.0, "steps": 3, "topology": "full_binary"})
        assert main(["penalty", "--config", cfg, "--out", out]) == 0
        text = open(out).read()
        assert "penalty_formula,entropic:1;16;zero;N=3,0.0" in text

    def test_penalty_outside_domain_serialises_inf(self, tmp_path):
        out = str(tmp_path / "report.csv")
        cfg = write_config(tmp_path, driver="abs:0.5", control="constant:0.9",
                           grid={"horizon": 1.0, "steps": 3, "topology": "full_binary"})
        assert main(["penalty", "--config", cfg, "--out", out]) == 0
        rows = [line for line in open(out).read().splitlines()
                if line.startswith("penalty_formula")]
        assert rows and rows[0].split(",")[2] == "inf"

    def test_converge_exact_fixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path, driver="zero", claim="brownian",
                           steps_list=[8, 16, 32])
        assert main(["converge", "--config", cfg]) == 0
        assert "final_error" in capsys.readouterr().out

    def test_converge_needs_steps_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, driver="zero", claim="brownian")
        assert main(["converge", "--config", cfg]) == 2

    def test_props_small_run_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, driver="entropic:1,8", control="feedback:0.0,0.3",
            grid={"horizon": 1.0, "steps": 16}, trials=10,
            suites=["axioms", "supermartingale", "pasting", "truncation"])
        assert main(["props", "--config", cfg]) == 0

    def test_props_prints_the_tolerance_each_row_applies(self, tmp_path):
        # tolerances.identity governs the acceptance decomposition; the supermartingale
        # and truncation suites count at bsde.TOL_IDENTITY whatever the config says
        out = tmp_path / "props.csv"
        cfg = write_config(tmp_path, driver="entropic:1,16", control="constant:0.4", trials=5,
                           suites=["supermartingale", "truncation"], tolerances={"identity": 1e-6},
                           grid={"horizon": 1.0, "steps": 3, "topology": "full_binary"})
        assert main(["props", "--config", cfg, "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",")[4] for line in out.read_text().splitlines()}
        assert rows["acceptance_decomposition"] == "1e-06"
        assert rows["supermartingale.violations"] == rows["truncation_monotone"] == "1e-12"

    def test_props_malformed_driver_fails_concavity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, driver="malformed", suites=["axioms"], trials=10)
        assert main(["props", "--config", cfg]) == 1
        assert "axiom.concavity" in capsys.readouterr().out

    def test_conjugate_tabulation_inf_literal(self, tmp_path):
        out = str(tmp_path / "table.csv")
        cfg = write_config(tmp_path, driver="abs:0.5",
                           tabulate={"q_min": -1.0, "q_max": 1.0, "points": 5},
                           output=out)
        assert main(["conjugate", "--config", cfg]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t,q,f_value"
        assert lines[1].endswith("inf")
        assert any(line.endswith(",0.0") for line in lines)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["price", "--config", str(bad)]) == 2
        cfg = write_config(tmp_path, driver="zero", bogus=1)
        assert main(["price", "--config", cfg]) == 2
        for command, entries in [
                ("price", {"grid": {"steps": "abc"}}),
                ("price", {"grid": {"steps": 0}}),
                ("price", {"grid": 5}),
                ("price", {"tolerances": {"identity": "tight"}}),
                ("props", {"trials": "x"}),
                ("props", {"trials": -5, "suites": ["axioms"]}),
                ("converge", {"steps_list": [0, 8]}),
                ("price", {"grid": {"horizon": -1}}),
                ("price", {"grid": {"horizon": float("inf")}}),
                ("price", {"grid": {"steps": 30, "topology": "full_binary"}}),
                ("converge", {"grid": {"steps": 4, "topology": "full_binary"},
                              "steps_list": [2, 40]}),
                ("price", {"grid": {"steps": 3.7}}),
                ("price", {"grid": {"steps": True}}),
                ("converge", {"steps_list": [2, 4.5]}),
                ("props", {"trials": 2.5, "suites": ["axioms"]}),
                ("conjugate", {"tabulate": {"points": "x"}}),
                ("conjugate", {"tabulate": {"times": 0.5}}),
                ("price", {"grid": {"steps": 1000000}}),
                ("price", {"claim": "call:x"}),
                ("converge", {"claim": "call:x", "steps_list": [2, 4]}),
                ("penalty", {"control": "constant:x"}),
                ("price", {"integrand": "quadratic:x"}),
                ("penalty", {"integrand": "quadratic:x"}),
                ("price", {"claim": {"explicit": [1, 2]}}),
                ("penalty", {"grid": {"steps": 1000000}}),
                ("price", {"claim": "constant:nan"}),
                ("price", {"claim": "call:inf"}),
                ("price", {"driver": "abs:nan"}),
                ("price", {"driver": "entropic:inf"}),
                ("penalty", {"control": "constant:nan"}),
                ("props", {"suites": "axioms"}),
                ("props", {"suites": ["nope"]}),
                ("props", {"suites": []}),
                ("props", {"levels": [2, 1]}),
                ("props", {"levels": [-1, 1]}),
                ("price", {"tolerances": {"duality_gap": float("inf")}}),
                ("price", {"tolerances": {"duality_gap": float("nan")}}),
                ("price", {"seed": 1.5}),
                ("converge", {"steps_list": [1, 2, 100000]}),
                ("props", {"seed": -1}),
                ("price", {"output": True}),
                ("price", {"output": 5}),
                ("price", {"output": ["a"]}),
                ("conjugate", {"tabulate": {"q_min": float("nan")}}),
                ("conjugate", {"tabulate": {"times": [float("inf")]}}),
                ("conjugate", {"tabulate": {"q_min": -1e308, "q_max": 1e308}}),
                ("price", {"grid": {"horizon": True}}),
                ("price", {"grid": {"steps": 10**10}}),
                ("penalty", {"grid": {"steps": 10**10}})]:
            cfg = write_config(tmp_path, **entries)
            assert main([command, "--config", cfg]) == 2, entries
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "penalty", "converge", "props", "conjugate"])
    def test_negative_seed_option_is_config_error(self, command, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": 4}, steps_list=[4], trials=1)
        assert main([command, "--config", cfg, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "failed:" not in err

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["price", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_refused_before_anything_is_built(self, tmp_path, monkeypatch, capsys):
        limit_physical_memory(monkeypatch, 4 * 2**20)
        cases = [("price", {"output": True}), ("conjugate", {"tabulate": {"q_min": float("nan")}}),
                 ("price", {"grid": {"steps": 10**10}}), ("penalty", {"grid": {"steps": 10**10}}),
                 ("props", {"grid": {"steps": 100000}, "suites": ["pasting"]}),
                 ("conjugate", {"tabulate": {"points": 10**11}})]
        for command, entries in cases:
            assert main([command, "--config", write_config(tmp_path, **entries)]) == 2, entries
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "failed:" not in err, err

    def test_module_error_exit_code(self, tmp_path, capsys):
        # inadmissible control: a module error surfaces as a failed run, not a crash
        cfg = write_config(tmp_path, driver="entropic:1", control="constant:9.0",
                           grid={"horizon": 1.0, "steps": 4}, suites=["supermartingale"])
        assert main(["props", "--config", cfg]) == 1

    def test_pasting_runs_once_dt_exceeds_sixty_four(self, tmp_path, capsys):
        # dt = 125: the amplitude bound 0.8 / sqrt(dt) lies below 0.1
        out = tmp_path / "props.csv"
        cfg = write_config(tmp_path, grid={"horizon": 1000, "steps": 8}, suites=["pasting"],
                           trials=1)
        assert main(["props", "--config", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
        rows = {line.split(",")[0]: line.split(",")[-1] for line in out.read_text().splitlines()}
        assert rows["pasting_increments"] == "true"

    def test_call_reference_for_a_huge_strike(self, tmp_path, capsys):
        out = tmp_path / "converge.csv"
        cfg = write_config(tmp_path, driver="zero", claim="call:1e200", steps_list=[4])
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0, \
            capsys.readouterr().err
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()}
        assert float(rows["final_error"][2]) == 0.0

    def test_unusable_output_path_is_refused_before_the_run(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x.csv")
        cases = [(write_config(tmp_path, "a.json", grid={"steps": 8}, output=missing), []),
                 (write_config(tmp_path, "b.json", grid={"steps": 8}), ["--out", str(tmp_path)])]
        for cfg, options in cases:
            assert main(["price", "--config", cfg, *options]) == 2, options
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "failed:" not in err, err


# spec kind -> (its table, arguments before the spec's parameters, subcommands that build it)
SPEC_KINDS = {
    "driver": (DRIVERS, 0, ["price", "penalty", "converge", "props", "conjugate"]),
    "integrand": (INTEGRANDS, 1, ["price", "penalty", "props", "conjugate"]),
    "claim": (CLAIMS, 1, ["price", "converge"]),
    "control": (CONTROLS, 1, ["penalty", "props"]),
}


def spec_with(name, count):
    return f"{name}:{','.join(str(i + 1) for i in range(count))}" if count else name


def faulty_specs(table, context):
    """Per entry, one parameter fewer than it needs and one more than it takes; an unknown name."""
    specs = {"woof"}
    for name, factory in table.items():
        params = list(inspect.signature(factory).parameters.values())[context:]
        required = sum(p.default is p.empty and p.kind is not p.VAR_POSITIONAL for p in params)
        if required:
            specs.add(spec_with(name, required - 1))
        if not any(p.kind is p.VAR_POSITIONAL for p in params):
            specs.add(spec_with(name, len(params) + 1))
    return specs


SPEC_FAULTS = sorted({(kind, spec, command)
                      for kind, (table, context, commands) in SPEC_KINDS.items()
                      for spec in faulty_specs(table, context) for command in commands}
                     # the faults that ended as FAIL, TypeError or IndexError before
                     | {("driver", "abs:1,2", "converge"), ("driver", "abs", "converge"),
                        ("driver", "interval:1", "price"), ("driver", "linear", "converge"),
                        ("claim", "call:1,2", "price"), ("integrand", "quadratic:1,2", "price")})


class TestSpecFaults:
    @pytest.mark.parametrize("kind,spec,command", SPEC_FAULTS)
    def test_spec_fault_is_config_error(self, kind, spec, command, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": 4}, steps_list=[4], trials=1,
                           **{kind: spec})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "failed:" not in err

    def test_every_table_entry_has_a_fault(self):
        for kind, (table, _, _) in SPEC_KINDS.items():
            faulted = {spec.partition(":")[0] for k, spec, _command in SPEC_FAULTS if k == kind}
            assert faulted == set(table) | {"woof"}

    def test_claim_message_names_explicit_form(self, tmp_path, capsys):
        cfg = write_config(tmp_path, claim=5)
        assert main(["price", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert '{"explicit": [...]}' in err and "{{" not in err


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, driver="entropic:1", claim="brownian",
                           grid={"horizon": 1.0, "steps": 64})
        first = str(tmp_path / "a.csv")
        second = str(tmp_path / "b.csv")
        assert main(["price", "--config", cfg, "--out", first]) == 0
        assert main(["price", "--config", cfg, "--out", second]) == 0
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_seed_changes_samples_not_verdicts(self, tmp_path):
        cfg = write_config(
            tmp_path, driver="abs:0.5", control="feedback:0.0,0.2",
            grid={"horizon": 1.0, "steps": 16}, trials=10,
            suites=["supermartingale", "pasting", "truncation"])
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["props", "--config", cfg, "--seed", "1", "--out", a]) == 0
        assert main(["props", "--config", cfg, "--seed", "2", "--out", b]) == 0
        verdicts_a = [line.split(",")[-1] for line in open(a).read().splitlines()[1:]]
        verdicts_b = [line.split(",")[-1] for line in open(b).read().splitlines()[1:]]
        assert verdicts_a == verdicts_b

    @pytest.mark.parametrize("name", ["conjugate", "converge", "penalty", "price", "props"])
    def test_sample_configs_match_golden_csv(self, name, tmp_path, capsys):
        out = tmp_path / f"{name}.csv"
        config = ROOT / "configs" / f"{name}.json"
        assert main([name, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (ROOT / "tests" / "golden" / f"{name}.csv").read_bytes()


class TestFormatCell:
    # -inf is written by no sample config, so the golden CSVs cannot show it
    @pytest.mark.parametrize("value, text", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (0.1, "0.1"),
        (1e-12, "1e-12"), (5e-324, "5e-324"), (12, "12"), (True, "true"), (False, "false")])
    def test_cell_text(self, value, text):
        assert format_cell(value) == text


def limit_physical_memory(monkeypatch, nbytes):
    """Make the size rule see `nbytes` of physical memory."""
    values = {"SC_PHYS_PAGES": nbytes // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr("glattice.cli.os.sysconf", values.__getitem__)


class TestSizeRule:
    """Commands sized from the config against a small physical memory; nothing big is built."""

    # 128 recombining steps: 8385 nodes; 384 KiB lies between 34 and 48 bytes a node
    GRID = {"horizon": 1.0, "steps": 128}
    PHYSICAL = 384 * 1024

    def test_penalty_fits_four_fields_and_two_masks(self, tmp_path, monkeypatch, capsys):
        limit_physical_memory(monkeypatch, self.PHYSICAL)
        cfg = write_config(tmp_path, driver="entropic:1", control="constant:0.2", grid=self.GRID)
        assert main(["penalty", "--config", cfg]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("suite,code", [("pasting", 2), ("biconjugate", 0)])
    def test_props_counts_the_grid_suites_it_runs(self, suite, code, tmp_path, monkeypatch,
                                                  capsys):
        limit_physical_memory(monkeypatch, self.PHYSICAL)
        cfg = write_config(tmp_path, driver="entropic:1", suites=[suite], trials=1,
                           grid=self.GRID)
        assert main(["props", "--config", cfg]) == code
        assert capsys.readouterr().err.startswith("config error:") == (code == 2)

    def test_price_at_ten_billion_steps_is_refused(self, tmp_path, monkeypatch, capsys):
        limit_physical_memory(monkeypatch, 4 * 2**20)
        cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": 10**10})
        assert main(["price", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: price would hold")

    def test_conjugate_counts_its_rows(self, tmp_path, monkeypatch, capsys):
        limit_physical_memory(monkeypatch, 4 * 2**20)
        cfg = write_config(tmp_path, driver="abs:0.5", tabulate={"points": 20000, "times": [0, 1]})
        assert main(["conjugate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: conjugate would hold")

    def test_penalty_counts_four_fields(self, tmp_path, monkeypatch, capsys):
        # 33 bytes a node: above the four float fields penalty holds, below 34
        limit_physical_memory(monkeypatch, 8385 * 33)
        cfg = write_config(tmp_path, driver="entropic:1", control="constant:0.2", grid=self.GRID)
        assert main(["penalty", "--config", cfg]) == 0, capsys.readouterr().err


class TestTrialBudget:
    """`props` refuses trials times grid nodes over its budget, before any suite runs."""

    @pytest.mark.parametrize("suite,steps,trials,code", [
        ("supermartingale", 8, 10**8, 2),
        ("supermartingale", 8, 10**6, 2),  # 45 nodes, counted as 4096 a trial: 4.1e9
        ("supermartingale", 8, 10**4, 0),  # 4.1e7 fits
        ("supermartingale", 256, 2000, 2),  # 33153 nodes a trial: 6.6e7
        ("axioms", 2048, 10**6, 2),  # axioms solve on 8 full binary steps: 511 nodes a trial
        ("biconjugate", 8, 10**8, 0),  # no trials in this suite
    ])
    def test_trials_times_nodes(self, suite, steps, trials, code, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(COMMANDS, "props",
                            lambda config: ran.append(config) or RunReport("props", 0, "test"))
        cfg = write_config(tmp_path, trials=trials, suites=[suite], grid={"steps": steps})
        exit_code = main(["props", "--config", cfg])
        err = capsys.readouterr().err
        if code == 2:
            assert exit_code == 2 and not ran
            assert err.startswith("config error: props would sweep") and "failed:" not in err
        else:
            assert exit_code == 0 and len(ran) == 1, err


class TestOutputDirectory:
    def test_unwritable_directory_is_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("glattice.cli.os.access", lambda path, mode: False)
        cfg = write_config(tmp_path, output=str(tmp_path / "report.csv"))
        assert main(["price", "--config", cfg]) == 2
        assert main(["price", "--config", write_config(tmp_path, name="plain.json"),
                     "--out", str(tmp_path / "report.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 2 and "not writable" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root may write to a read-only directory")
    def test_read_only_directory_exits_two(self, tmp_path, capsys):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        try:
            cfg = write_config(tmp_path, output=str(locked / "report.csv"))
            assert main(["price", "--config", cfg]) == 2
            assert "not writable" in capsys.readouterr().err
        finally:
            locked.chmod(0o755)


def entropic_abs_brownian(gamma, horizon=1.0):
    """-log E[exp(-gamma |W_T|)] / gamma by Gauss-Laguerre quadrature in s = gamma |W_T|."""
    s, weights = np.polynomial.laguerre.laggauss(120)
    density = np.exp(-(s / (gamma * math.sqrt(horizon))) ** 2 / 2) / math.sqrt(2 * math.pi * horizon)
    return -math.log(2.0 / gamma * float(weights @ density)) / gamma


class TestSteepEntropicReference:
    """The entropic `abs_brownian` closed form where Phi(-gamma sqrt(T)) is far in the tail."""

    @pytest.mark.parametrize("gamma", [8.0, 9.0, 20.0, 37.0, 40.0])
    def test_reference_matches_quadrature(self, gamma):
        cfg = ExperimentConfig.from_dict({"driver": f"entropic:{gamma:g}", "claim": "abs_brownian"})
        assert closed_form_reference(cfg) == pytest.approx(entropic_abs_brownian(gamma), rel=1e-9)

    def test_converge_reaches_its_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, driver="entropic:9", claim="abs_brownian",
                           steps_list=[256, 1024])
        assert main(["converge", "--config", cfg]) == 0
        assert "failed:" not in capsys.readouterr().err


class TestSupermartingaleBytes:
    def test_row_covers_what_the_suite_holds(self):
        cfg = ExperimentConfig.from_dict({"driver": "entropic:1", "suites": ["supermartingale"],
                                          "trials": 2, "grid": {"horizon": 1.0, "steps": 2048}})
        tracemalloc.start()
        try:
            gl.cli.cmd_props(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 38.9 bytes a node: f(t, q), the pair draw's three node vectors and the masks
        assert peak / gl.lattice.node_total(cfg.topology, 2048) <= gl.cli.BYTES_PER_NODE["supermartingale"]


class TestPropsBytes:
    @pytest.mark.parametrize("suite", ["truncation", "pasting"])
    def test_row_covers_what_the_suite_holds(self, suite):
        cfg = ExperimentConfig.from_dict({"driver": "entropic:1", "control": "constant:0.3",
                                          "levels": [0.01, 0.02], "suites": [suite], "trials": 2,
                                          "grid": {"horizon": 1.0, "steps": 2048}})
        tracemalloc.start()
        try:
            gl.cli.cmd_props(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 10 bytes a node for truncation (a gated control, stored by `map`), 36.2 for pasting
        assert peak / gl.lattice.node_total(cfg.topology, 2048) <= gl.cli.BYTES_PER_NODE[suite]
