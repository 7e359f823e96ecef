"""glattice: nonlinear expectations and penalty representations on binomial lattices.

Builds discrete g-expectations as backward dynamic programs, the matching
dual min-over-measures recursions, and the penalty calculus connecting them
(Girsanov controls, convex conjugates, cocycle/Doob/pasting structure), with
verification suites that check the identities exactly or at stated tolerances.
"""

__version__ = "0.1.0"

from .lattice import (
    FULL_BINARY_MAX_STEPS,
    AdaptedField,
    Lattice,
    NodeId,
    PredictableControl,
    StoppingTime,
    TimeGrid,
    TreeTopology,
    build_grid,
    hitting_time,
    terminal_field,
)
from .measure import (
    AdmissibilityError,
    MeasureChange,
    between_masks,
    density_from_control,
    expectation_under,
    paste_controls,
    restrict_control,
    stop_control,
    truncate_control,
)
from .drivers import (
    Driver,
    abs_scaled,
    builtin,
    entropic,
    interval,
    linear,
    parse_spec,
    probe_zero,
    zero,
)
from .conjugate import (
    PenaltyIntegrand,
    biconjugate_gap,
    fenchel,
    grid_sup_of_linear_minus,
    inverse_fenchel,
    monotone_family_check,
    truncate_integrand,
)
from .bsde import (
    BsdeSolution,
    ValidityRadiusError,
    axiom_suite,
    g_expectation,
    make_utility_operator,
    recover_driver,
    solve,
    utility,
    utility_solution,
)
from .dual import (
    DualSolution,
    dual_utility,
    duality_gap,
    first_order_optimality,
    monotone_utility_check,
    truncated_utility,
)
from .penalty import (
    IncreasingProcess,
    PenaltyField,
    accumulated_cost,
    cocycle_residual,
    doob_decomposition,
    integrand_on_control,
    pasting_check,
    penalty_formula,
    penalty_primal_oracle,
    random_stopping_pair,
    supermartingale_suite,
    truncation_convergence,
    upper_bound_check,
    window_penalty_process,
)
