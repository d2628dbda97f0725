"""Simulation and verification toolkit for Markov jump processes defined by
state-dependent Levy exponents.

Each module imports only the package modules named after it here (the
table is in ``tests/test_imports.py``):

* ``errors``, ``rng`` (Philox streams) and ``svgplot``: none;
* ``measures`` (complex-measure algebra on 1-D lattices) and ``symbols``
  (symbols q(x, u), triplets, generators): ``errors``;
* ``simulate`` (exact-lattice kinetic Monte Carlo): ``errors``, ``rng``, ``symbols``;
* ``checks`` (Fourier-series dominance, term measures, majorants, ellipticity
  audits, Groenwall verification): ``errors``, ``measures``, ``symbols``;
* ``mcstats`` (moments, empirical characteristic functions, support audits,
  martingale residuals): ``errors``, ``measures``, ``rng``, ``simulate``, ``symbols``;
* ``selftest`` (property sweeps): ``checks``, ``measures``;
* ``cli`` (batch front-end, the one writer of artifacts): ``checks``, ``errors``,
  ``mcstats``, ``selftest``, ``simulate``, ``svgplot``, ``symbols``.
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
