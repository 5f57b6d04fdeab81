"""Cramér-Rao bounds and dual-homodyne simulation for two-parameter
displacement estimation on Gaussian optical probes.

Subpackage map:

* :mod:`cvmb.gaussian` - moment representation of Gaussian states and
  symplectic operations (hbar = 2 convention)
* :mod:`cvmb.bounds` - classical, SLD, RLD and Holevo Cramér-Rao bounds,
  the last as the maximum of the moment function (``holevo_bound``), and
  the closed-form Holevo bound where one is known
* :mod:`cvmb.holevo` - the Holevo bound for pure probes from the Gram
  matrix: analytic KKT solution and an independent certified dual solver
* :mod:`cvmb.simulate` - seeded Monte Carlo of the dual homodyne
  measurement
* :mod:`cvmb.cli` - ``cvmb`` command-line harness
"""

from cvmb.gaussian import (
    GaussianState,
    SymplecticOp,
    apply,
    beam_splitter,
    displace,
    make_thermal,
    single_mode_squeezer,
    symplectic_form,
    two_mode_squeezer,
    vacuum,
)
from cvmb.bounds import (
    BoundResult,
    DegenerateModelError,
    DisplacementModel,
    classical_fisher_gaussian,
    closed_form_bounds,
    closed_form_holevo,
    dual_homodyne_mse_analytic,
    holevo_bound,
    rld_bound,
    single_mode_probe,
    sld_bound,
    trabs,
    two_mode_probe,
)
from cvmb.holevo import (
    ConvergenceError,
    HolevoProblem,
    HolevoSolution,
    build_problem,
    gram_single_mode,
    gram_two_mode,
    kkt_case_audit,
    solve_analytic,
    solve_numeric,
)
from cvmb.simulate import (
    OutcomeModel,
    SimConfig,
    SimResult,
    estimate,
    outcome_distribution,
    run,
    run_many,
)

__version__ = "0.1.0"
