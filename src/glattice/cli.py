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
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Sequence

import numpy as np

from . import __version__, bsde, dual, penalty
from .conjugate import (
    FAMILY_TOLERANCE,
    PenaltyIntegrand,
    biconjugate_gap,
    fenchel,
    monotone_family_check,
    truncate_integrand,
)
from .drivers import _BUILTINS, Driver, abs_scaled, bind_spec, zero
from .lattice import (
    FULL_BINARY_MAX_STEPS,
    AdaptedField,
    Lattice,
    PredictableControl,
    TreeTopology,
    _LazySteps,
    build_grid,
    node_total,
    terminal_field,
)
from .measure import density_from_control
from .report import RunReport, format_cell

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
# grid nodes times trials the randomized `props` suites may sweep, a trial counted
# as at least TRIAL_NODE_FLOOR nodes: below that its per-step work dominates.  With
# trials swept in stacked blocks a trial costs 0.002-0.11 us per counted node (2-vCPU
# host), so the budget is at most about 6 s
TRIAL_NODE_BUDGET = 5 * 10**7
TRIAL_NODE_FLOOR = 4096

# grid nodes one `price` or `penalty` run may sweep: about 4 s for price and 6 s for penalty
# with a Markov control, at ~40 and ~60 ns per node (2-vCPU host)
SWEEP_NODE_BUDGET = 10**8
# bytes per node of the last step that `price` and `penalty` hold at once, as both stream
# their sweeps: tracemalloc at 8192 steps gives 110 B for price, 443 B for penalty (any control)
STREAM_BYTES_PER_NODE = 512
# Bytes per grid node of the float64 (8) and bool (1) fields held at once; props: its largest suite
BYTES_PER_NODE = {
    "supermartingale": 3 * 8 + 6,  # control, f(t, q), one field to spare; 6 stop masks
    "truncation": 6 * 8 + 4,  # control, f(t, q), cost; a cut control, its f, a spare; 4 masks
    "pasting": 8 * 8 + 4,  # 4 controls (2 drawn, pasted, restricted), their f(t, q); 4 masks
}
BYTES_PER_ROW = 168  # one `conjugate` row: its CSV line and floats, by getrusage at 2e6 rows


class ConfigError(ValueError):
    """The experiment configuration failed validation."""


def _require_keys(mapping: dict, allowed, context: str) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {mapping!r}")
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}; allowed: {sorted(allowed)}")
    return mapping


def _read(mapping: dict, key: str, convert, default, context: str = "config"):
    """mapping[key] through `convert`, or the default; unreadable values are config errors."""
    if key not in mapping:
        return default
    try:
        return convert(mapping[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}.{key}: cannot read {mapping[key]!r} ({exc})") from None


def _whole(low: int):
    """Reads a whole number >= low: an integer, an integral float or its text, never a boolean."""
    def convert(value) -> int:
        if (isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
                or int(value) < low):
            raise ValueError(f"not a whole number >= {low}")
        return int(value)
    return convert


def _finite(low: float = -math.inf, above: bool = False):
    """Reads a finite number >= low (> low when `above`), never a boolean."""
    def convert(value) -> float:
        number = math.nan if isinstance(value, bool) else float(value)
        if not (math.isfinite(number) and (number > low if above else number >= low)):
            raise ValueError(f"not a finite number {'>' if above else '>='} {low:g}")
        return number
    return convert


def _list_of(item, increasing: bool = False, nonempty: bool = False):
    """Reads a JSON list item by item; strictly increasing and non-empty when asked."""
    def convert(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError("not a list")
        items = tuple(map(item, value))
        if (nonempty and not items) or (increasing and sorted(set(items)) != list(items)):
            raise ValueError("empty" if not items else "not strictly increasing")
        return items
    return convert


def _path(value) -> str:
    """Reads an output file path: not a directory, and in a writable directory that exists."""
    if not (isinstance(value, str) and value):
        raise ValueError("not a non-empty string")
    if os.path.isdir(value):
        raise ValueError("names a directory")
    directory = os.path.dirname(value) or "."
    if not os.path.isdir(directory):
        raise ValueError("its directory does not exist")
    if not os.access(directory, os.W_OK):
        raise ValueError("its directory is not writable")
    return value


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
    # the kappa-ignorance and fair-coin indicators, as the conjugates of abs:R and zero
    "box": lambda driver, radius=1.0: replace(fenchel(abs_scaled(radius)), name=f"box:{radius:g}"),
    "origin": lambda driver: replace(fenchel(zero()), name="origin"),
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
    "piecewise": lambda lattice, q0, *q1: PredictableControl(lattice, _LazySteps(
        lattice.steps, lambda k: np.full(lattice.node_count(k), (q0, *q1)[k % (1 + len(q1))]))),
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
        cfg.claim_spec = raw.get("claim", cfg.claim_spec)
        cfg.control_spec = raw.get("control", cfg.control_spec)
        grid = _require_keys(raw.get("grid", {}), {"horizon", "steps", "topology"}, "config.grid")
        cfg.horizon = _read(grid, "horizon", _finite(0.0, above=True), cfg.horizon, "config.grid")
        cfg.steps = _read(grid, "steps", _whole(1), cfg.steps, "config.grid")
        cfg.topology = _read(grid, "topology", TreeTopology, cfg.topology, "config.grid")
        cfg.steps_list = _read(raw, "steps_list", _list_of(_whole(1), increasing=True), ())
        cfg.suites = _read(raw, "suites", _suites, cfg.suites)
        cfg.trials = _read(raw, "trials", _whole(1), cfg.trials)
        cfg.levels = _read(raw, "levels", _list_of(_finite(0.0), increasing=True, nonempty=True),
                           cfg.levels)
        tolerances = _require_keys(raw.get("tolerances", {}), DEFAULT_TOLERANCES, "config.tolerances")
        cfg.tolerances = {k: _read(tolerances, k, _finite(0.0), v, "config.tolerances")
                          for k, v in DEFAULT_TOLERANCES.items()}
        cfg.seed = _read(raw, "seed", _whole(0), cfg.seed)
        cfg.output = _read(raw, "output", _path, cfg.output)
        tabulate = _require_keys(raw.get("tabulate", {}), TABULATE_DEFAULTS, "config.tabulate")
        converters = dict(q_min=_finite(), q_max=_finite(), points=_whole(2), times=_list_of(_finite()))
        cfg.tabulate = {k: _read(tabulate, k, convert, TABULATE_DEFAULTS[k], "config.tabulate")
                        for k, convert in converters.items()}
        if not 0.0 < cfg.tabulate["q_max"] - cfg.tabulate["q_min"] < math.inf:
            raise ConfigError("tabulate needs q_min < q_max, a finite distance apart")
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
            x = strike / std  # x * x is inf, not OverflowError, for a huge strike
            pdf = math.exp(-(x * x) / 2.0) / math.sqrt(2.0 * math.pi)
            return std * pdf - strike * _normal_cdf(-x)
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


def _axioms_on_config_grid(config: ExperimentConfig) -> bool:
    """True when the axiom suite solves on the configured grid, not on 8 full binary steps."""
    return config.topology is TreeTopology.FULL_BINARY and config.steps <= 12


def _refuse_oversized(command: str, config: ExperimentConfig) -> None:
    """Config error for a size the command must not run at, judged before anything is built."""
    steps = config.steps_list if command == "converge" else (config.steps,)
    if config.topology is TreeTopology.FULL_BINARY and max((0, *steps)) > FULL_BINARY_MAX_STEPS:
        raise ConfigError(f"full binary trees are limited to {FULL_BINARY_MAX_STEPS} steps, "
                          f"got {max(steps)}")
    nodes = sum(node_total(config.topology, n) for n in steps)
    if command == "converge" and not 0 < nodes <= CONVERGE_NODE_BUDGET:
        raise ConfigError(f"converge needs a steps_list that sweeps at most {CONVERGE_NODE_BUDGET} "
                          f"nodes, got {list(steps)} ({nodes} nodes)")
    if command == "props":
        axiom_nodes = (nodes if _axioms_on_config_grid(config)
                       else node_total(TreeTopology.FULL_BINARY, 8))
        floor = TRIAL_NODE_FLOOR
        work = config.trials * (max(axiom_nodes, floor) * ("axioms" in config.suites)
                                + max(nodes, floor) * ("supermartingale" in config.suites))
        if work > TRIAL_NODE_BUDGET:
            raise ConfigError(f"props would sweep {work} nodes over {config.trials} trials "
                              f"(at least {TRIAL_NODE_FLOOR} a trial), more than "
                              f"{TRIAL_NODE_BUDGET}")
    held = max(nodes * BYTES_PER_NODE.get(name, 0)
               for name in (config.suites if command == "props" else [command]))
    if command in ("price", "penalty"):
        last = node_total(config.topology, config.steps) - node_total(config.topology, config.steps - 1)
        held = last * STREAM_BYTES_PER_NODE
    if command == "conjugate":
        held = config.tabulate["points"] * len(config.tabulate["times"]) * BYTES_PER_ROW
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform: no memory bound
        physical = math.inf
    if held > physical:
        raise ConfigError(f"{command} would hold about {held / 2**30:.1f} GiB at this size, "
                          f"more than the {physical / 2**30:.1f} GiB of physical memory")
    if command in ("price", "penalty") and nodes > SWEEP_NODE_BUDGET:
        raise ConfigError(f"{command} would sweep {nodes} nodes, more than {SWEEP_NODE_BUDGET}")


def cmd_price(config: ExperimentConfig) -> RunReport:
    """Price a claim twice (driver recursion and dual recursion) and compare."""
    report = RunReport("price", config.seed, __version__)
    driver = config.build_driver()
    claim = config.build_claim(config.build_lattice())
    fixture = f"{config.driver_spec};{config.claim_spec};N={config.steps}"

    integrand = config.build_integrand(driver)
    u0, dual_u0, gap, q0, clamped = dual.compare_prices(driver, integrand, claim)
    tol = config.tolerance("duality_gap")
    # the gap is an identity only when the integrand is the driver's conjugate
    comparable = bind_spec(config.integrand_spec, INTEGRANDS, "integrand", driver)[0] == "conjugate"
    closed = gap <= tol or not comparable

    report.add("u0", fixture, u0, dual_u0, tol, closed)
    report.add("duality_gap_max", fixture, gap, 0.0, tol if comparable else "", closed)
    report.add("worst_control_root", fixture, q0, "", "", True)
    report.add("clamped_nodes", fixture, clamped, 0, "", True)
    return report


def cmd_penalty(config: ExperimentConfig) -> RunReport:
    """Penalty of a configured control: formula value, oracle, cocycle and Doob checks."""
    report = RunReport("penalty", config.seed, __version__)
    lattice = config.build_lattice()
    driver = config.build_driver()
    integrand = config.build_integrand(driver)
    control = config.build_control(lattice)
    measure = density_from_control(control)
    fixture = f"{config.driver_spec};{config.control_spec};N={lattice.steps}"
    identity_tol = config.tolerance("identity")

    formula = penalty.penalty_formula(integrand, measure, 0, lattice.steps).initial()
    report.add("penalty_formula", fixture, formula, "", "", True)

    if lattice.topology is TreeTopology.FULL_BINARY and lattice.steps <= penalty.ORACLE_MAX_STEPS:
        oracle = penalty.penalty_primal_oracle(driver, measure, seed=config.seed)
        tol = config.tolerance("primal_equality")
        if math.isfinite(formula):
            report.add("penalty_primal", fixture, oracle.value, formula, tol,
                       abs(oracle.value - formula) <= tol)
        else:
            report.add("penalty_primal_upper", fixture, oracle.value, formula, "",
                       oracle.value <= formula)
        report.add("oracle_converged", fixture, oracle.converged, True, "", oracle.converged)

    residual = penalty._deterministic_cocycle(integrand, measure, 0, lattice.steps // 2,
                                              lattice.steps)
    report.add("cocycle_residual", fixture, residual, 0.0, identity_tol,
               residual <= identity_tol)

    if math.isfinite(formula) and penalty._pathwise_cost(control):
        doob = penalty.doob_decomposition(integrand, measure)
        report.add("doob_residual", fixture, doob.residual, 0.0, identity_tol,
                   doob.residual <= identity_tol)
    return report


def cmd_converge(config: ExperimentConfig) -> RunReport:
    """Error-vs-steps sweep of the lattice price against a closed form."""
    report = RunReport("converge", config.seed, __version__)
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
        if _axioms_on_config_grid(config):
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
        oracle_driver = driver if (lattice.topology is TreeTopology.FULL_BINARY
                                   and lattice.steps <= penalty.ORACLE_MAX_STEPS) else None
        sup = penalty.supermartingale_suite(
            integrand, density_from_control(config.build_control(lattice)),
            trials=config.trials, seed=config.seed, driver=oracle_driver)
        report.add("supermartingale.violations", config.control_spec,
                   sup.inequality_violations, 0, bsde.TOL_IDENTITY,
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
                   0.0, FAMILY_TOLERANCE, family.passed)

    if "pasting" in config.suites:
        lattice = config.build_lattice()
        pasting = bsde.CheckStat("pasting_increments")
        # amplitudes keep |q| sqrt(dt) <= 0.8; the range is [0.1, high] unless dt > 16
        high = min(1.5, 0.8 / lattice.sqrt_dt)
        for _ in range(10):
            amp1, amp2 = rng.uniform(min(0.1, high / 2), high, size=2)
            q1 = PredictableControl.from_state_function(
                lattice, lambda t, level, a=amp1: a * np.tanh(level))
            q2 = PredictableControl.from_state_function(
                lattice, lambda t, level, a=amp2: a * np.cos(level))
            sigma, tau = penalty.random_stopping_pair(lattice, rng)
            outcome = penalty.pasting_check(integrand, q1, q2, sigma, tau,
                                            restriction_level=float(rng.uniform(0.2, 1.0)))
            pasting.record(max(outcome.paste_max_error, outcome.restriction_max_error or 0.0), 0.0)
        report.add("pasting_increments", config.driver_spec, pasting.worst, 0.0, 0.0,
                   pasting.passed)

    if "truncation" in config.suites:
        control = config.build_control(config.build_lattice())
        outcome = penalty.truncation_convergence(integrand, control, config.levels)
        report.add("truncation_monotone", config.control_spec,
                   list(outcome.gated_values)[-1] if outcome.gated_values else 0.0,
                   outcome.full_value, bsde.TOL_IDENTITY, outcome.passed)

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
            lines.append(",".join(format_cell(float(x)) for x in (t, q, v)))
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
    parser.add_argument("--seed", default=None, help="master seed (overrides config)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = ExperimentConfig.from_dict(json.load(handle))
        options = {key: value for key, value in vars(args).items() if value is not None}
        config.seed = _read(options, "seed", _whole(0), config.seed, "options")
        config.output = _read(options, "out", _path, config.output, "options")
        _refuse_oversized(args.command, config)
    except (OSError, ValueError) as exc:  # ValueError covers ConfigError and undecodable JSON
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
