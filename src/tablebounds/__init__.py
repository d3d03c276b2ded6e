"""Cell-entry bounds for multiway contingency tables from released marginals.

The package splits into:

- ``table``: dense tables, marginalization, anchored marginal functions
- ``lattice``: functions on 2^L, monotonicity/supermodularity checkers,
  cumulative constructions, the Fan inequality evaluator
- ``bounds``: every bound family of a MarginalFamily, one whole-grid kernel each
- ``positivity``: MTP2 checks, relabeling search, lattice exponential
  families, FKG covariances
- ``oracle``: exact enumeration of all tables matching a family, sharp
  bounds, and certification of formula bounds
- ``io`` / ``cli``: JSON and CSV formats, the ``tablebounds`` command
"""

from .bounds import (
    BoundReport,
    Decomposition,
    FanDecompositionComparison,
    KwerelStats,
    MarginalFamily,
    best_bounds,
    bounds_grid,
    compare_fan_vs_decomposition,
    decomposition_bound,
    fan_lower_bound,
    frechet_3way,
    frechet_ddim,
    kwerel_form,
    simple_frechet,
    validate_report_against_table,
)
from .datasets import lead_path, lead_table
from .errors import (
    BudgetExhaustedError,
    CertificationError,
    CountRangeError,
    InconsistentFamilyError,
    LatticeCapError,
    MissingMarginalError,
    NonpositiveValueError,
    RangeError,
    SchemaError,
    SearchSpaceError,
    TableBoundsError,
    UnnormalizedError,
)
from .lattice import (
    CheckResult,
    FanEvaluation,
    FanTerm,
    LatticeFunction,
    Witness,
    cumulative_fn,
    fan_evaluate,
    indicator_fn,
    is_decreasing,
    is_increasing,
    is_submodular,
    is_supermodular,
    meet_restriction,
    random_supermodular_fn,
    subset_sum_transform,
)
from .oracle import (
    Certification,
    EnumerationBudget,
    SharpBounds,
    certify,
    count_tables,
    enumerate_tables,
    sharp_bounds,
    sharp_bounds_all,
)
from .positivity import (
    ExpFamily,
    Relabeling,
    anchored_margin_observable,
    expfam_density,
    expfam_log_density,
    fkg_covariance,
    is_log_supermodular,
    is_mtp2_additive,
    is_mtp2_multiplicative,
    search_mtp2_relabeling,
)
from .table import (
    CellIndex,
    ContingencyTable,
    MarginalTable,
    cell_margin_fn,
    marginalize,
    project_cell,
)
from .varset import LATTICE_CAP, VarSet

__version__ = "0.1.0"
