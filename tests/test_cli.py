import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from glattice.cli import (CLAIMS, CONTROLS, DRIVERS, INTEGRANDS, ConfigError, ExperimentConfig,
                          closed_form_reference, main)

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


class TestCommands:
    def test_price_zero_driver(self, tmp_path, capsys):
        cfg = write_config(tmp_path, driver="zero", claim="brownian",
                           grid={"horizon": 1.0, "steps": 32})
        assert main(["price", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "u0" in out and "PASS" in out

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
                ("props", {"seed": -1})]:
            cfg = write_config(tmp_path, **entries)
            assert main([command, "--config", cfg]) == 2, entries
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "penalty", "converge", "props", "conjugate"])
    def test_negative_seed_option_is_config_error(self, command, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"horizon": 1.0, "steps": 4}, steps_list=[4], trials=1)
        assert main([command, "--config", cfg, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "failed:" not in err

    def test_module_error_exit_code(self, tmp_path, capsys):
        # inadmissible control: a module error surfaces as a failed run, not a crash
        cfg = write_config(tmp_path, driver="entropic:1", control="constant:9.0",
                           grid={"horizon": 1.0, "steps": 4}, suites=["supermartingale"])
        assert main(["props", "--config", cfg]) == 1


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
