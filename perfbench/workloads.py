"""The two glattice benchmark workloads and the four parts they are made of.

`sweeps` runs the `price_deep` and `converge_ladder` parts back to back as one
job, and `checks` the `suites` and `conjugate_numeric` parts.  Each part draws
its inputs from the seed once, at set-up; `job` then runs one closed-loop job through the library's public functions (the same ones the
CLI subcommands call, without going through `cli.main`), checks every result
at the paper's tolerances and returns the root values that make up the job's
digest.  Every library call sits in a tracer span named `<module>.<function>`
so that a traced run can time each layer from outside.

Node counts are computed by the benchmark from the shapes of the lattices it
passes in: a call that sweeps steps a..b of a lattice counts the nodes of those
steps once (once per trial for the randomized suites).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import glattice as gl
from glattice import cli

DUALITY_GAP_TOL = 1e-10   # nodewise |u_driver - u_dual|
REPLAY_TOL = 1e-10        # |E_Q*[claim] + penalty(Q*) - u0|
FINAL_ERROR_TOL = 5e-3    # closed-form error at the top rung
IDENTITY_TOL = 1e-12      # suite residuals
PRIMAL_TOL = 1e-6         # brute-force oracle against the penalty formula
CONJUGATE_TOL = 1e-6      # numeric conjugate and biconjugate round trip
GOLDEN_TOL = 1e-10        # golden-section dual against the driver recursion


def nodes_between(lattice: gl.Lattice, first: int, last: int) -> int:
    """Number of nodes on steps first..last."""
    if lattice.topology is gl.TreeTopology.RECOMBINING:
        return ((last + 1) * (last + 2) - first * (first + 1)) // 2
    return 2 ** (last + 1) - 2 ** first


def all_nodes(lattice: gl.Lattice) -> int:
    return nodes_between(lattice, 0, lattice.steps)


def max_gap(a: gl.AdaptedField, b: gl.AdaptedField) -> float:
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.values, b.values))


@dataclasses.dataclass
class JobResult:
    """Nodes swept, failed checks and root values of one job."""

    nodes: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    roots: tuple = ()

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.roots).encode()).hexdigest()


def call_payoff(strike: float):
    return lambda level: np.maximum(level - strike, 0.0)


class PriceDeep:
    """The README quick start at N=4096: primal, dual, worst-case measure, penalty, replay."""

    steps = 4096

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.strike = float(rng.uniform(0.1, 0.3))
        self.driver = gl.parse_spec("entropic:1")

    def job(self, tr) -> JobResult:
        job = JobResult()
        n = self.steps
        with tr.span("lattice.build_grid") as c:
            lattice = gl.build_grid(1.0, n)
            c["nodes"] = all_nodes(lattice)
        full = all_nodes(lattice)
        transitions = nodes_between(lattice, 0, n - 1)
        with tr.span("lattice.terminal_field", nodes=n + 1):
            claim = gl.terminal_field(lattice, call_payoff(self.strike))
        with tr.span("bsde.utility_solution", nodes=full):
            primal = gl.utility_solution(self.driver, claim)
        with tr.span("conjugate.fenchel"):
            integrand = gl.fenchel(self.driver)
        with tr.span("dual.dual_utility", nodes=full) as c:
            dual = gl.dual_utility(integrand, claim)
            clamped = sum(int(np.count_nonzero(m)) for m in dual.clamped)
            c["clamped_nodes"] = clamped
        gap = max_gap(primal.y, dual.u)
        job.check(gap <= DUALITY_GAP_TOL, f"duality gap {gap!r}")
        with tr.span("measure.density_from_control", nodes=transitions):
            measure = gl.density_from_control(dual.argmin_control)
        with tr.span("measure.expectation_under", nodes=transitions):
            expected = float(gl.expectation_under(measure, claim, 0)[0][0])
        with tr.span("penalty.penalty_formula", nodes=full):
            penalty = gl.penalty_formula(integrand, measure, 0, n).initial()
        u0 = float(primal.y[0][0])
        replay = abs(expected + penalty - u0)
        job.check(replay <= REPLAY_TOL, f"replay residual {replay!r}")
        job.nodes = 4 * full + 2 * transitions + (n + 1)
        job.roots = (u0, float(dual.u[0][0]), float(dual.argmin_control[0][0]),
                     expected, penalty, clamped)
        return job


class ConvergeLadder:
    """Root-only utilities up a ladder of grid sizes, against the continuous-time closed form."""

    ladder = (512, 1024, 2048, 4096, 8192)

    def __init__(self, seed: int):
        # The ladder has no random input; the seed only labels the run.
        spec = {"driver": "entropic:1", "claim": "abs_brownian"}
        self.driver = gl.parse_spec(spec["driver"])
        self.reference = cli.closed_form_reference(cli.ExperimentConfig.from_dict(spec))

    def job(self, tr) -> JobResult:
        job = JobResult()
        values = []
        for n in self.ladder:
            with tr.span("lattice.build_grid") as c:
                lattice = gl.build_grid(1.0, n)
                c["nodes"] = all_nodes(lattice)
            with tr.span("lattice.terminal_field", nodes=n + 1):
                claim = gl.terminal_field(lattice, np.abs)
            with tr.span("bsde.utility", nodes=all_nodes(lattice)):
                values.append(float(gl.utility(self.driver, claim, 0)[0][0]))
            job.nodes += 2 * all_nodes(lattice) + n + 1
        error = abs(values[-1] - self.reference)
        job.check(error <= FINAL_ERROR_TOL, f"closed-form error {error!r} at N={self.ladder[-1]}")
        job.roots = tuple(values)
        return job


class Suites:
    """The randomized structure checks at the fixtures of configs/props.json and criterion 10."""

    # Sized so that a job lasts about 1.5 s: long enough to average over the
    # short slow spells of a shared machine, and few enough jobs per run that
    # job_tail_ms does not sit in the slowest third of them.
    axiom_trials = 80
    supermartingale_trials = 80
    desk_trials = 80
    cocycle_triples = 40
    pasting_checks = 20
    levels = (1.0, 2.0, 4.0)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        (self.coherent_seed, self.concave_seed, self.supermartingale_seed, self.desk_seed,
         self.oracle_seed, self.cocycle_seed, self.pasting_seed) = (
            int(s) for s in rng.integers(0, 2**31, size=7))
        self.gain = float(rng.uniform(0.2, 0.4))  # control feedback:0.0,gain
        self.coherent = gl.parse_spec("abs:0.5")
        self.concave = gl.entropic(0.5, radius=4.0)
        self.penalised = gl.parse_spec("entropic:1,8")
        self.desk_driver = gl.parse_spec("entropic:1,16")

    def job(self, tr) -> JobResult:
        job = JobResult()
        roots: list = []

        with tr.span("lattice.build_grid") as c:
            binary = gl.build_grid(1.0, 8, gl.TreeTopology.FULL_BINARY)
            c["nodes"] = all_nodes(binary)
        for driver, seed, bound in ((self.coherent, self.coherent_seed, 1.0),
                                    (self.concave, self.concave_seed, 0.5)):
            with tr.span("bsde.axiom_suite", trials=self.axiom_trials,
                         nodes=self.axiom_trials * all_nodes(binary)):
                suite = gl.axiom_suite(driver, binary, trials=self.axiom_trials, seed=seed,
                                       claim_bound=bound)
            job.nodes += self.axiom_trials * all_nodes(binary)
            job.check(suite.passed, f"axiom suite {driver.name} violated")
            roots += [(s.violations, s.worst) for s in suite.checks.values()]

        with tr.span("conjugate.fenchel"):
            integrand = gl.fenchel(self.penalised)
        with tr.span("lattice.build_grid") as c:
            lattice = gl.build_grid(1.0, 64)
            c["nodes"] = all_nodes(lattice)
        size = all_nodes(lattice)
        transitions = nodes_between(lattice, 0, lattice.steps - 1)
        with tr.span("lattice.PredictableControl.from_state_function"):
            control = gl.PredictableControl.from_state_function(
                lattice, lambda t, level, g=self.gain: g * level)
        with tr.span("measure.density_from_control", nodes=transitions):
            measure = gl.density_from_control(control)
        with tr.span("penalty.supermartingale_suite", trials=self.supermartingale_trials,
                     nodes=self.supermartingale_trials * size):
            sup = gl.supermartingale_suite(integrand, measure, trials=self.supermartingale_trials,
                                           seed=self.supermartingale_seed)
        job.nodes += transitions + self.supermartingale_trials * size
        job.check(sup.inequality_violations == 0,
                  f"{sup.inequality_violations} supermartingale violations")
        roots += [sup.inequality_violations, sup.inequality_worst]

        self._desk(tr, job, roots)

        rng = np.random.default_rng(self.cocycle_seed)
        for _ in range(self.cocycle_triples):
            with tr.span("penalty.random_stopping_pair"):
                sigma, tau = gl.random_stopping_pair(lattice, rng)
            with tr.span("penalty.random_stopping_pair"):
                upsilon = gl.random_stopping_pair(lattice, rng)[1]
            with tr.span("lattice.StoppingTime.maximum"):
                upsilon = tau.maximum(upsilon)
            with tr.span("penalty.cocycle_residual", nodes=size):
                residual = gl.cocycle_residual(integrand, measure, sigma, tau, upsilon)
            job.nodes += size
            job.check(residual <= IDENTITY_TOL, f"cocycle residual {residual!r}")
            roots.append(residual)

        rng = np.random.default_rng(self.pasting_seed)
        amp_max = min(1.5, 0.8 / lattice.sqrt_dt)
        for _ in range(self.pasting_checks):
            amp1, amp2 = rng.uniform(0.1, amp_max, size=2)
            with tr.span("lattice.PredictableControl.from_state_function"):
                first = gl.PredictableControl.from_state_function(
                    lattice, lambda t, level, a=amp1: a * np.tanh(level))
            with tr.span("lattice.PredictableControl.from_state_function"):
                second = gl.PredictableControl.from_state_function(
                    lattice, lambda t, level, a=amp2: a * np.cos(level))
            with tr.span("penalty.random_stopping_pair"):
                sigma, tau = gl.random_stopping_pair(lattice, rng)
            level = float(rng.uniform(0.2, 1.0))
            with tr.span("penalty.pasting_check", nodes=size):
                outcome = gl.pasting_check(integrand, first, second, sigma, tau,
                                           restriction_level=level)
            job.nodes += size
            job.check(outcome.passed, f"pasting error {outcome.paste_max_error!r}, "
                                      f"restriction {outcome.restriction_max_error!r}")
            roots += [outcome.paste_max_error, outcome.restriction_max_error]

        with tr.span("penalty.truncation_convergence", nodes=size):
            truncation = gl.truncation_convergence(integrand, control, self.levels)
        job.nodes += size
        job.check(truncation.passed, "truncation limits violated")
        roots += [truncation.gated_values, truncation.full_value]

        with tr.span("conjugate.monotone_family_check"):
            family = gl.monotone_family_check(integrand, self.levels)
        job.check(family.passed, f"gated family violated: {family.counterexamples[:1]}")
        roots.append(family.worst_conjugate_violation)
        job.roots = tuple(roots)
        return job

    def _desk(self, tr, job: JobResult, roots: list):
        """Desk-scale oracle variant: 3-step full binary, entropic:1,16, constant:0.4."""
        with tr.span("lattice.build_grid") as c:
            desk = gl.build_grid(1.0, 3, gl.TreeTopology.FULL_BINARY)
            c["nodes"] = all_nodes(desk)
        with tr.span("conjugate.fenchel"):
            integrand = gl.fenchel(self.desk_driver)
        with tr.span("lattice.PredictableControl.constant"):
            control = gl.PredictableControl.constant(desk, 0.4)
        with tr.span("measure.density_from_control", nodes=nodes_between(desk, 0, desk.steps - 1)):
            measure = gl.density_from_control(control)
        with tr.span("penalty.supermartingale_suite.oracle", trials=self.desk_trials,
                     nodes=self.desk_trials * all_nodes(desk)):
            bounded = gl.supermartingale_suite(integrand, measure, trials=self.desk_trials,
                                               seed=self.desk_seed, driver=self.desk_driver)
        job.check(bounded.inequality_violations == 0 and bounded.lemma_bound_violations == 0,
                  f"desk suite: {bounded.inequality_violations} inequality and "
                  f"{bounded.lemma_bound_violations} bound violations")
        job.check(bounded.acceptance_residual <= IDENTITY_TOL,
                  f"acceptance residual {bounded.acceptance_residual!r}")
        with tr.span("penalty.penalty_formula", nodes=all_nodes(desk)):
            formula = gl.penalty_formula(integrand, measure, 0, desk.steps).initial()
        with tr.span("penalty.penalty_primal_oracle") as c:
            oracle = gl.penalty_primal_oracle(self.desk_driver, measure, seed=self.oracle_seed)
            c["iterations"] = oracle.iterations
        job.check(oracle.converged and abs(oracle.value - formula) <= PRIMAL_TOL,
                  f"oracle {oracle.value!r} against formula {formula!r}")
        job.nodes += (self.desk_trials + 2) * all_nodes(desk)
        roots += [bounded.lemma_bound_worst, bounded.acceptance_residual, formula,
                  oracle.value, oracle.iterations]


class ConjugateNumeric:
    """The custom-driver path: grid-sup conjugate engine and golden-section dual recursion."""

    q_points = 201
    z_points = 41   # the z grid of acceptance criterion 9; 81 points made a job 2-3 s long
    golden_steps = (16, 256)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.strike = float(rng.uniform(0.1, 0.3))
        self.analytic = gl.entropic(1.0, radius=4.0)
        # As in acceptance criterion 9: no analytic conjugate, no analytic minimiser.
        self.numeric = dataclasses.replace(self.analytic, conjugate=None, step_minimizer=None)
        self.q = np.linspace(-4.0, 4.0, self.q_points)
        self.z = np.linspace(-4.0, 4.0, self.z_points)

    def job(self, tr) -> JobResult:
        job = JobResult()
        with tr.span("conjugate.fenchel"):
            numeric = gl.fenchel(self.numeric)
        with tr.span("conjugate.integrand_eval", points=self.q_points):
            values = np.asarray(numeric(0.0, self.q), dtype=float)
        error = float(np.max(np.abs(values - self.q**2 / 2.0)))
        job.check(error <= CONJUGATE_TOL, f"numeric conjugate error {error!r}")
        with tr.span("conjugate.biconjugate_gap", points=self.z_points):
            bigap = gl.biconjugate_gap(self.numeric, self.z)
        job.check(bigap <= CONJUGATE_TOL, f"biconjugate gap {bigap!r}")
        with tr.span("conjugate.fenchel"):
            analytic = dataclasses.replace(gl.fenchel(self.analytic), step_minimizer=None)
        roots = [error, bigap]

        for n, integrand in zip(self.golden_steps, (numeric, analytic)):
            counted, evals = counting(integrand)
            with tr.span("lattice.build_grid") as c:
                lattice = gl.build_grid(1.0, n)
                c["nodes"] = all_nodes(lattice)
            with tr.span("lattice.terminal_field", nodes=n + 1):
                claim = gl.terminal_field(lattice, call_payoff(self.strike))
            with tr.span("dual.dual_utility.golden", nodes=all_nodes(lattice)) as c:
                dual = gl.dual_utility(counted, claim)
                c["integrand_evals"] = evals[0]
            with tr.span("bsde.utility_solution", nodes=all_nodes(lattice)):
                primal = gl.utility_solution(self.analytic, claim)
            gap = max_gap(primal.y, dual.u)
            job.check(gap <= GOLDEN_TOL, f"golden dual gap {gap!r} at N={n}")
            job.nodes += 3 * all_nodes(lattice) + n + 1
            roots += [float(dual.u[0][0]), float(primal.y[0][0]), gap]
        job.roots = tuple(roots)
        return job


def counting(integrand: gl.PenaltyIntegrand):
    """The integrand with its evaluations counted in a one-element list."""
    evals = [0]
    inner = integrand.evaluate

    def evaluate(t, q):
        evals[0] += 1
        return inner(t, q)

    return dataclasses.replace(integrand, evaluate=evaluate), evals


class Combined:
    """Parts whose jobs run back to back as one job of a workload."""

    parts: tuple = ()

    def __init__(self, seed: int):
        self.members = [part(seed) for part in self.parts]

    def job(self, tr) -> JobResult:
        job = JobResult()
        roots = []
        for member in self.members:
            part = member.job(tr)
            job.nodes += part.nodes
            job.failures += part.failures
            roots.append(part.roots)
        job.roots = tuple(roots)
        return job


class Sweeps(Combined):
    """Full-field and root-only sweeps: the bsde, dual, measure and penalty kernels at scale."""

    parts = (PriceDeep, ConvergeLadder)


class Checks(Combined):
    """Many tiny sweeps and the numeric conjugate: Python overhead, no large fields."""

    parts = (Suites, ConjugateNumeric)


WORKLOADS = {"sweeps": Sweeps, "checks": Checks}
