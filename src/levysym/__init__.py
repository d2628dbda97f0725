"""Simulation and verification toolkit for Markov jump processes defined by
state-dependent Levy exponents.

The package has five layers:

* :mod:`levysym.measures` - exact complex-measure algebra on 1-D lattices;
* :mod:`levysym.symbols` - symbols q(x, u), triplets and generators;
* :mod:`levysym.simulate` - exact-lattice kinetic Monte Carlo simulation;
* :mod:`levysym.mcstats` - moments, empirical characteristic functions,
  support audits, martingale residuals;
* :mod:`levysym.checks` - Fourier-series dominance, term measures, majorant
  assembly, ellipticity audits, Groenwall verification.
"""

from .checks import (
    DominanceReport,
    EllipticityAudit,
    FourierSymbol,
    GronwallReport,
    KReport,
    MajorantReport,
    TermMeasureReport,
    assemble_majorant,
    audit_ellipticity,
    build_term_measure,
    check_dominance,
    compute_K,
    fourier_symbol_of_product_cosine,
    groenwall_recursion_table,
    groenwall_verify,
    localize_fourierize,
    term_measure,
    verify_term_measure,
)
from .errors import (
    BudgetExceeded,
    DegenerateSample,
    DomainError,
    QuadratureUnderresolved,
    RepresentationLost,
    UnitMismatch,
    UnsupportedSpec,
    ViolatedDominance,
)
from .measures import (
    LatticeComplexMeasure,
    convolve_sequence,
    dirac,
    exp_measure,
)
from .mcstats import (
    Sample,
    closed_moment,
    dynkin_residual,
    ecf,
    ecf_distance,
    moment_ci,
    support_audit,
)
from .simulate import (
    EnsembleResult,
    ExactState,
    JumpRule,
    Path,
    SimConfig,
    jump_rule_of,
    simulate_ensemble,
    simulate_path,
)
from .symbols import (
    BrownianNegative,
    ConstantSymbol,
    IncreasingDoubling,
    IncreasingDoublingApprox,
    LatticeUnit,
    LevyTriplet,
    ProductCosine,
    SymmetricDoubling,
    SymmetricDoublingApprox,
    TestFunction,
    TripletExponent,
    apply_generator,
    eval_symbol,
)

__version__ = "0.1.0"
