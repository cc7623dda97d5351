"""Assortment optimization under tree-ensemble (decision forest) choice models.

Exact solvers (three monolithic formulations plus a two-phase decomposition
with greedy/closed-form cut oracles), heuristic baselines, seeded instance
generators, and an experiment harness.  See README.md for an overview.
"""

from .benders import (
    BendersCut,
    Budget,
    MasterState,
    RelaxationResult,
    integer_phase,
    relaxation_phase,
    solve_two_phase,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DfoptError,
    DomainError,
    IterationLimitError,
    SizeGuardError,
    SolverError,
    ValidationError,
)
from .formulations import (
    BuiltFormulation,
    Kind,
    build,
    integrality_gap,
    solve_integer_monolithic,
    solve_relaxation,
)
from .heuristics import (
    HeuristicResult,
    divide_and_conquer,
    local_search,
    ls10,
    revenue_ordered,
)
from .instancegen import (
    Cnf3Formula,
    GeneratorConfig,
    TreeShape,
    gen_lambda,
    gen_revenues,
    generate_instance,
    max3sat_to_instance,
    parse_dimacs,
)
from .lp import LinearProgram, LpSolution, WarmBasis, solve_lp
from .model import (
    AssortmentVector,
    DecisionForest,
    Leaf,
    ProductCatalog,
    PurchaseTree,
    Split,
    brute_force_optimal,
    expected_revenue,
    instance_from_json,
    instance_to_json,
    traverse,
    validate_instance,
)
from .subproblems import (
    DualCertificate,
    integer_cut,
    leaf_dual_greedy,
    leaf_primal_greedy,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
)

__version__ = "0.1.0"
