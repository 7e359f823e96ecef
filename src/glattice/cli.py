"""Batch front end: JSON experiment configs, verification suites, CSV reports.

Subcommands: price | penalty | converge | props | conjugate.  Configs are
strict JSON (unknown keys rejected); reports are byte-identical for identical
(config, seed, version) and +inf serialises as the literal "inf".  Exit codes:
0 all checks pass, 1 check failure or module error, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from . import __version__, bsde, dual, penalty
from .conjugate import (
    PenaltyIntegrand,
    biconjugate_gap,
    fenchel,
    monotone_family_check,
    truncate_integrand,
)
from .drivers import _BUILTINS, Driver, bind_spec
from .lattice import (
    FULL_BINARY_MAX_STEPS,
    AdaptedField,
    Lattice,
    PredictableControl,
    StoppingTime,
    TreeTopology,
    build_grid,
    node_total,
    terminal_field,
)
from .measure import density_from_control
from .report import RunReport

DEFAULT_TOLERANCES = {
    "duality_gap": 1e-10,
    "primal_equality": 1e-6,
    "final_error": 5e-3,
    "identity": 1e-12,
}


TABULATE_DEFAULTS = {"q_min": -2.0, "q_max": 2.0, "points": 81, "times": (0.0,)}

SUITES = ("axioms", "supermartingale", "monotone_family", "pasting", "truncation", "biconjugate")

# nodes one `converge` ladder may sweep: about 12 s at ~11.6 ns per node
CONVERGE_NODE_BUDGET = 10**9


class ConfigError(ValueError):
    """The experiment configuration failed validation."""


def _require_keys(mapping: dict, allowed: set[str], context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}; allowed: {sorted(allowed)}")


def _read(mapping: dict, key: str, convert, default, context: str = "config"):
    """mapping[key] through `convert`, or the default; unreadable values are config errors."""
    if key not in mapping:
        return default
    try:
        return convert(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}.{key}: cannot read {mapping[key]!r} ({exc})") from None


def _count(value) -> int:
    """A whole number given as an integer or an integral float; booleans are refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def _positive_finite(value) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"not positive and finite: {value!r}")
    return number


def _nonnegative_finite(value) -> float:
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(f"not nonnegative and finite: {value!r}")
    return number


def _suites(value) -> tuple[str, ...]:
    if not (isinstance(value, list) and value and all(name in SUITES for name in value)):
        raise ValueError(f"not a non-empty list of suite names from {list(SUITES)}")
    return tuple(value)


def _build(spec, table: dict, kind: str, *context):
    """Build what `spec` names in `table`, context first; any fault is a config error."""
    try:
        name, bound = bind_spec(spec, table, kind, *context)
        return table[name](*bound.args)
    except ValueError as exc:
        raise ConfigError(f"config.{kind}: {exc}") from None


def _quadratic_integrand(driver: Driver, gamma: float = 1.0) -> PenaltyIntegrand:
    if gamma <= 0:
        raise ValueError("quadratic integrand needs gamma > 0")
    return PenaltyIntegrand(
        name=f"quadratic:{gamma:g}",
        evaluate=lambda t, q: np.asarray(q, dtype=float) ** 2 / (2.0 * gamma),
        domain_radius=math.inf, zero_at_origin=True,
        step_minimizer=lambda t, zed: -gamma * np.asarray(zed, dtype=float),
        domain_certified=False)


def _box_integrand(driver: Driver, radius: float = 1.0) -> PenaltyIntegrand:
    if radius < 0:
        raise ValueError("box integrand needs a nonnegative radius")
    return PenaltyIntegrand(
        name=f"box:{radius:g}",
        evaluate=lambda t, q: np.where(np.abs(np.asarray(q, dtype=float)) <= radius, 0.0, np.inf),
        domain_radius=radius, zero_at_origin=True,
        step_minimizer=lambda t, zed: -radius * np.sign(np.asarray(zed, dtype=float)))


# Spec tables: a factory's parameters after its context are the spec's (`drivers.bind_spec`)
DRIVERS = {
    **_BUILTINS,
    # designed-failure fixture: concave, deliberately mislabelled as convex
    "malformed": lambda: Driver(
        name="malformed", evaluate=lambda t, z: -np.asarray(z, dtype=float) ** 2 / 2.0,
        lipschitz=4.0, convex=True, validity_radius=4.0),
}

INTEGRANDS = {
    "conjugate": fenchel,
    "quadratic": _quadratic_integrand,
    "box": _box_integrand,
    "origin": lambda driver: PenaltyIntegrand(
        name="origin",
        evaluate=lambda t, q: np.where(np.asarray(q, dtype=float) == 0.0, 0.0, np.inf),
        domain_radius=0.0, zero_at_origin=True,
        step_minimizer=lambda t, zed: np.zeros_like(np.asarray(zed, dtype=float))),
}

CLAIMS = {
    "brownian": lambda lattice: terminal_field(lattice, lambda level: level),
    "abs_brownian": lambda lattice: terminal_field(lattice, np.abs),
    "call": lambda lattice, strike=0.0: terminal_field(
        lattice, lambda level: np.maximum(level - strike, 0.0)),
    "constant": lambda lattice, value=0.0: terminal_field(
        lattice, lambda level: np.full_like(level, value)),
}

CONTROLS = {
    "zero": lambda lattice: PredictableControl.constant(lattice, 0.0),
    "constant": lambda lattice, q: PredictableControl.constant(lattice, q),
    "piecewise": lambda lattice, q0, *q1: PredictableControl(lattice, [
        np.full(lattice.node_count(k), (q0, *q1)[k % (1 + len(q1))])
        for k in range(lattice.steps)]),
    "feedback": lambda lattice, intercept, gain: PredictableControl.from_state_function(
        lattice, lambda t, level: intercept + gain * level),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description; builders turn specs into module objects."""

    driver_spec: str = "zero"
    integrand_spec: str = "conjugate"
    horizon: float = 1.0
    steps: int = 64
    topology: TreeTopology = TreeTopology.RECOMBINING
    steps_list: tuple[int, ...] = ()
    claim_spec: object = "brownian"
    control_spec: str = "zero"
    suites: tuple[str, ...] = SUITES
    trials: int = 200
    levels: tuple[float, ...] = (1.0, 2.0, 4.0)
    tolerances: dict = dataclass_field(default_factory=dict)
    seed: int = 0
    output: str | None = None
    tabulate: dict = dataclass_field(default_factory=lambda: dict(TABULATE_DEFAULTS))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require_keys(raw, {"driver", "integrand", "grid", "steps_list", "claim", "control",
                            "suites", "trials", "levels", "tolerances", "seed", "output",
                            "tabulate"}, "config")
        cfg = cls()
        cfg.driver_spec = raw.get("driver", cfg.driver_spec)
        cfg.integrand_spec = raw.get("integrand", cfg.integrand_spec)
        grid = raw.get("grid", {})
        _require_keys(grid, {"horizon", "steps", "topology"}, "config.grid")
        cfg.horizon = _read(grid, "horizon", _positive_finite, cfg.horizon, "config.grid")
        cfg.steps = _read(grid, "steps", _count, cfg.steps, "config.grid")
        cfg.topology = _read(grid, "topology", TreeTopology, cfg.topology, "config.grid")
        cfg.steps_list = _read(raw, "steps_list", lambda v: tuple(_count(n) for n in v), ())
        if any(b <= a for a, b in zip((0,) + cfg.steps_list, cfg.steps_list)):
            raise ConfigError("steps_list must be strictly increasing step counts >= 1")
        if cfg.topology is TreeTopology.FULL_BINARY:
            largest = max((cfg.steps,) + cfg.steps_list)
            if largest > FULL_BINARY_MAX_STEPS:
                raise ConfigError(f"full binary trees are limited to {FULL_BINARY_MAX_STEPS} "
                                  f"steps, got {largest}")
        cfg.claim_spec = raw.get("claim", cfg.claim_spec)
        cfg.control_spec = raw.get("control", cfg.control_spec)
        cfg.suites = _read(raw, "suites", _suites, cfg.suites)
        cfg.trials = _read(raw, "trials", _count, cfg.trials)
        if cfg.steps < 1 or cfg.trials < 1:
            raise ConfigError(f"grid.steps and trials must be >= 1, got {cfg.steps} and {cfg.trials}")
        cfg.levels = _read(raw, "levels", lambda v: tuple(_nonnegative_finite(x) for x in v),
                           cfg.levels)
        if not cfg.levels or any(b <= a for a, b in zip(cfg.levels, cfg.levels[1:])):
            raise ConfigError("levels must be a non-empty, strictly increasing list")
        tolerances = raw.get("tolerances", {})
        _require_keys(tolerances, set(DEFAULT_TOLERANCES), "config.tolerances")
        cfg.tolerances = {k: _read(tolerances, k, _nonnegative_finite, v, "config.tolerances")
                          for k, v in DEFAULT_TOLERANCES.items()}
        cfg.seed = _read(raw, "seed", _count, cfg.seed)
        cfg.output = raw.get("output")
        tabulate = raw.get("tabulate", {})
        _require_keys(tabulate, set(TABULATE_DEFAULTS), "config.tabulate")
        converters = {"q_min": float, "q_max": float, "points": _count,
                      "times": lambda v: tuple(float(t) for t in v)}
        cfg.tabulate = {k: _read(tabulate, k, convert, TABULATE_DEFAULTS[k], "config.tabulate")
                        for k, convert in converters.items()}
        if cfg.tabulate["q_max"] <= cfg.tabulate["q_min"] or cfg.tabulate["points"] < 2:
            raise ConfigError("tabulate needs q_min < q_max and points >= 2")
        return cfg

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    # -- builders ---------------------------------------------------------

    def build_lattice(self, steps: int | None = None) -> Lattice:
        return build_grid(self.horizon, steps if steps is not None else self.steps, self.topology)

    def build_driver(self) -> Driver:
        return _build(self.driver_spec, DRIVERS, "driver")

    def build_integrand(self, driver: Driver) -> PenaltyIntegrand:
        return _build(self.integrand_spec, INTEGRANDS, "integrand", driver)

    def build_claim(self, lattice: Lattice) -> AdaptedField:
        if isinstance(self.claim_spec, str):
            return _build(self.claim_spec, CLAIMS, "claim", lattice)
        try:
            _require_keys(self.claim_spec, {"explicit"}, "config.claim")
            return terminal_field(lattice, self.claim_spec.get("explicit", ()))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f'config.claim {{"explicit": [...]}}: {exc}') from None

    def build_control(self, lattice: Lattice) -> PredictableControl:
        return _build(self.control_spec, CONTROLS, "control", lattice)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def closed_form_reference(config: ExperimentConfig) -> float:
    """Continuous-time closed forms for the registered (driver, claim) pairs."""
    horizon = config.horizon
    try:
        driver_name, d = bind_spec(config.driver_spec, DRIVERS, "driver")
        claim_name, c = bind_spec(config.claim_spec, CLAIMS, "claim", None)  # parameters only
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if driver_name == "zero":
        if claim_name == "brownian":
            return 0.0
        if claim_name == "abs_brownian":
            return math.sqrt(2.0 * horizon / math.pi)
        if claim_name == "call":
            strike = c.arguments["strike"]
            std = math.sqrt(horizon)
            pdf = math.exp(-(strike / std) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
            return std * pdf - strike * _normal_cdf(-strike / std)
        if claim_name == "constant":
            return c.arguments["value"]
    if claim_name == "brownian":
        if driver_name == "abs":
            return -d.arguments["mu"] * horizon
        if driver_name == "entropic":
            return -d.arguments["gamma"] * horizon / 2.0
        if driver_name == "interval":
            return d.arguments["lo"] * horizon
        if driver_name == "linear":
            return d.arguments["slope"] * horizon
    if driver_name == "entropic" and claim_name == "abs_brownian":
        gamma = d.arguments["gamma"]
        return -(math.log(2.0) + gamma**2 * horizon / 2.0
                 + math.log(_normal_cdf(-gamma * math.sqrt(horizon)))) / gamma
    raise ConfigError(f"no closed-form reference registered for driver "
                      f"{config.driver_spec!r} with claim {config.claim_spec!r}")


# -- subcommands -------------------------------------------------------------


def _refuse_oversized(command: str, lattice: Lattice, bytes_per_node: int) -> None:
    """Config error when the node fields a command holds at once exceed physical memory."""
    nodes = node_total(lattice.topology, lattice.steps)
    estimate = nodes * bytes_per_node
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform: no budget
        return
    if estimate > physical:
        raise ConfigError(f"{command} at {lattice.steps} steps would hold about "
                          f"{estimate / 2**30:.1f} GiB of node fields ({nodes} nodes each), "
                          f"more than the {physical / 2**30:.1f} GiB of physical memory")


def cmd_price(config: ExperimentConfig) -> RunReport:
    """Price a claim twice (driver recursion and dual recursion) and compare."""
    report = RunReport("price", config.seed, __version__)
    lattice = config.build_lattice()
    # the utility's y and z, the dual's u and argmin control (float64), its clamp flags (bool)
    _refuse_oversized("price", lattice, 4 * 8 + 1)
    driver = config.build_driver()
    claim = config.build_claim(lattice)
    fixture = f"{config.driver_spec};{config.claim_spec};N={lattice.steps}"

    utility_value = bsde.utility_solution(driver, claim)
    integrand = config.build_integrand(driver)
    dual_solution = dual.dual_utility(integrand, claim)
    gap = max(float(np.max(np.abs(a - b)))
              for a, b in zip(utility_value.y.values, dual_solution.u.values))
    tol = config.tolerance("duality_gap")
    comparable = config.integrand_spec == "conjugate"

    report.add("u0", fixture, float(utility_value.y[0][0]), float(dual_solution.u[0][0]),
               tol, (gap <= tol) if comparable else True)
    report.add("duality_gap_max", fixture, gap, 0.0, tol if comparable else "",
               (gap <= tol) if comparable else True)
    q0 = dual_solution.argmin_control[0]
    report.add("worst_control_root", fixture, float(q0[0]), "", "", True)
    report.add("clamped_nodes", fixture, int(sum(int(np.sum(c)) for c in dual_solution.clamped)),
               0, "", True)
    return report


def cmd_penalty(config: ExperimentConfig) -> RunReport:
    """Penalty of a configured control: formula value, oracle, cocycle and Doob checks."""
    report = RunReport("penalty", config.seed, __version__)
    lattice = config.build_lattice()
    # control, up-probabilities, f(t, q) and the cocycle's three window processes (float64)
    _refuse_oversized("penalty", lattice, 6 * 8)
    driver = config.build_driver()
    integrand = config.build_integrand(driver)
    control = config.build_control(lattice)
    measure = density_from_control(control)
    fixture = f"{config.driver_spec};{config.control_spec};N={lattice.steps}"
    identity_tol = config.tolerance("identity")

    formula = penalty.penalty_formula(integrand, measure, 0, lattice.steps).initial()
    report.add("penalty_formula", fixture, formula, "", "", True)

    if lattice.topology is TreeTopology.FULL_BINARY and lattice.steps <= 4:
        oracle = penalty.penalty_primal_oracle(driver, measure, seed=config.seed)
        tol = config.tolerance("primal_equality")
        if math.isfinite(formula):
            report.add("penalty_primal", fixture, oracle.value, formula, tol,
                       abs(oracle.value - formula) <= tol)
        else:
            report.add("penalty_primal_upper", fixture, oracle.value, formula, "",
                       oracle.value <= formula)
        report.add("oracle_converged", fixture, oracle.converged, True, "", oracle.converged)

    mid = lattice.steps // 2
    residual = penalty.cocycle_residual(
        integrand, measure,
        StoppingTime.deterministic(lattice, 0),
        StoppingTime.deterministic(lattice, mid),
        StoppingTime.deterministic(lattice, lattice.steps))
    report.add("cocycle_residual", fixture, residual, 0.0, identity_tol,
               residual <= identity_tol)

    if math.isfinite(formula) and (
            lattice.topology is TreeTopology.FULL_BINARY or control.is_deterministic()):
        doob = penalty.doob_decomposition(integrand, measure)
        report.add("doob_residual", fixture, doob.residual, 0.0, identity_tol,
                   doob.residual <= identity_tol)
    return report


def cmd_converge(config: ExperimentConfig) -> RunReport:
    """Error-vs-steps sweep of the lattice price against a closed form."""
    report = RunReport("converge", config.seed, __version__)
    if not config.steps_list:
        raise ConfigError("converge needs a strictly increasing steps_list")
    swept = sum(node_total(config.topology, steps) for steps in config.steps_list)
    if swept > CONVERGE_NODE_BUDGET:
        raise ConfigError(f"converge over steps_list {list(config.steps_list)} would sweep "
                          f"{swept} nodes, more than the budget of {CONVERGE_NODE_BUDGET}")
    reference = closed_form_reference(config)
    driver = config.build_driver()
    errors = []
    for steps in config.steps_list:
        lattice = config.build_lattice(steps)
        claim = config.build_claim(lattice)
        value = float(bsde.utility(driver, claim, 0)[0][0])
        err = abs(value - reference)
        errors.append(err)
        report.add(f"u0_error@N={steps}", f"{config.driver_spec};{config.claim_spec}",
                   err, 0.0, "", True)
    tol = config.tolerance("final_error")
    report.add("final_error", f"{config.driver_spec};{config.claim_spec};N={config.steps_list[-1]}",
               errors[-1], 0.0, tol, errors[-1] <= tol)
    inversions = sum(1 for a, b in zip(errors, errors[1:]) if b > a + 1e-15)
    report.add("error_inversions", f"{config.driver_spec};{config.claim_spec}",
               inversions, 0, "", True)
    if inversions:
        report.warn(f"error sequence not monotone: {inversions} inversion(s); "
                    "soft check only")
    return report


def cmd_props(config: ExperimentConfig) -> RunReport:
    """Run the selected verification suites and report residuals."""
    report = RunReport("props", config.seed, __version__)
    driver = config.build_driver()
    integrand = config.build_integrand(driver)
    identity_tol = config.tolerance("identity")
    rng = np.random.default_rng(config.seed)

    if "axioms" in config.suites:
        if config.topology is TreeTopology.FULL_BINARY and config.steps <= 12:
            axiom_lattice = config.build_lattice()
        else:
            axiom_lattice = build_grid(1.0, 8, TreeTopology.FULL_BINARY)
        mu = driver.lipschitz
        claim_bound = 1.0
        if math.isfinite(driver.validity_radius):
            # locally Lipschitz driver: bound claims so the scheme stays monotone
            # (slope * sqrt(dt) < 1 on encountered increments) inside the radius
            gamma = driver.lipschitz / driver.validity_radius
            claim_bound = min(1.0, 0.45 / gamma)
            mu = min(mu, 0.9 / axiom_lattice.sqrt_dt)
        suite = bsde.axiom_suite(driver, axiom_lattice, trials=config.trials,
                                 seed=config.seed, claim_bound=claim_bound,
                                 domination_lipschitz=mu)
        for stat in suite.checks.values():
            report.add(f"axiom.{stat.name}", driver.name, stat.violations, 0, "",
                       stat.violations == 0)

    if "supermartingale" in config.suites:
        lattice = config.build_lattice()
        control = config.build_control(lattice)
        measure = density_from_control(control)
        oracle_driver = driver if (lattice.topology is TreeTopology.FULL_BINARY
                                   and lattice.steps <= 4) else None
        sup = penalty.supermartingale_suite(integrand, measure, trials=config.trials,
                                            seed=config.seed, driver=oracle_driver)
        report.add("supermartingale.violations", config.control_spec,
                   sup.inequality_violations, 0, identity_tol,
                   sup.inequality_violations == 0)
        if not sup.skipped_oracle_part:
            report.add("near_optimal_bound.violations", config.control_spec,
                       sup.lemma_bound_violations, 0, "", sup.lemma_bound_violations == 0)
            report.add("acceptance_decomposition", config.control_spec,
                       sup.acceptance_residual, 0.0, identity_tol,
                       sup.acceptance_residual <= identity_tol)

    if "monotone_family" in config.suites:
        family = monotone_family_check(integrand, config.levels)
        report.add("monotone_family", integrand.name, family.worst_conjugate_violation,
                   0.0, 1e-9, family.passed)

    if "pasting" in config.suites:
        lattice = config.build_lattice()
        worst = 0.0
        ok = True
        for _ in range(10):
            bound = 0.8 / lattice.sqrt_dt
            amp1, amp2 = rng.uniform(0.1, min(1.5, bound), size=2)
            q1 = PredictableControl.from_state_function(
                lattice, lambda t, level, a=amp1: a * np.tanh(level))
            q2 = PredictableControl.from_state_function(
                lattice, lambda t, level, a=amp2: a * np.cos(level))
            sigma, tau = penalty.random_stopping_pair(lattice, rng)
            outcome = penalty.pasting_check(integrand, q1, q2, sigma, tau,
                                            restriction_level=float(rng.uniform(0.2, 1.0)))
            worst = max(worst, outcome.paste_max_error,
                        outcome.restriction_max_error or 0.0)
            ok &= outcome.passed
        report.add("pasting_increments", config.driver_spec, worst, 0.0, 0.0, ok)

    if "truncation" in config.suites:
        lattice = config.build_lattice()
        control = config.build_control(lattice)
        outcome = penalty.truncation_convergence(integrand, control, config.levels)
        report.add("truncation_monotone", config.control_spec,
                   list(outcome.gated_values)[-1] if outcome.gated_values else 0.0,
                   outcome.full_value, identity_tol, outcome.passed)

    if "biconjugate" in config.suites:
        radius = driver.validity_radius if math.isfinite(driver.validity_radius) else 4.0
        z_grid = np.linspace(-radius, radius, 81)
        gap = biconjugate_gap(driver, z_grid)
        report.add("biconjugate_gap", driver.name, gap, 0.0, 1e-6, gap <= 1e-6)

    return report


def cmd_conjugate(config: ExperimentConfig) -> tuple[RunReport, str]:
    """Tabulate the integrand on a q grid as CSV columns (t, q, f_value)."""
    report = RunReport("conjugate", config.seed, __version__)
    driver = config.build_driver()
    integrand = config.build_integrand(driver)
    spec = config.tabulate
    points, times = spec["points"], spec["times"]
    qs = np.linspace(spec["q_min"], spec["q_max"], points)
    lines = ["t,q,f_value"]
    for t in times:
        values = np.asarray(integrand(t, qs), dtype=float)
        for q, v in zip(qs, values):
            text = "inf" if math.isinf(v) else repr(float(v))
            lines.append(f"{repr(float(t))},{repr(float(q))},{text}")
    report.add("tabulated_points", integrand.name, len(times) * points, "", "", True)
    return report, "\n".join(lines) + "\n"


COMMANDS = {
    "price": cmd_price,
    "penalty": cmd_penalty,
    "converge": cmd_converge,
    "props": cmd_props,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="glattice",
                                     description="lattice laboratory for nonlinear "
                                                 "expectations and penalty representations")
    parser.add_argument("command", choices=[*COMMANDS, "conjugate"])
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="CSV output path (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        config = ExperimentConfig.from_dict(raw)
        if args.seed is not None:
            config.seed = args.seed
        if args.out is not None:
            config.output = args.out
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "conjugate":
            report, table = cmd_conjugate(config)
            if config.output:
                with open(config.output, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(table)
            else:
                sys.stdout.write(table)
        else:
            report = COMMANDS[args.command](config)
            if config.output:
                report.write_csv(config.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # module errors become check failures with context
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(report.summary())
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
