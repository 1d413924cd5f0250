"""Fairness-aware clustering and many-objective scheduling of multiple DAG
workflows on heterogeneous cloud resources."""

from .model import (
    Edge,
    GraphError,
    Resource,
    ResourceCatalog,
    Task,
    ValidationError,
    Workflow,
    WorkflowSet,
    ensure_valid,
    validate,
)
from .generator import GeneratorSpec, generate, stable_seed, table2_specs
from .io import (
    FormatError,
    default_catalog,
    load_dax,
    load_native,
    load_resources,
    save_native,
    save_resources,
)
from .clustering import (
    CLUSTERERS,
    Cluster,
    ClusterPlan,
    OrderedPlan,
    cluster_dfs_cst,
    cluster_mdnc,
    cluster_none,
    cluster_p2p,
    make_plan,
    order_interleave,
    upward_rank,
)
from .evaluation import (
    Baselines,
    Evaluator,
    Placement,
    Schedule,
    WorkflowLoss,
    cheapest_alone,
    comm_time,
    compute_baselines,
    decode,
    exec_cost,
    exec_time,
    heft_alone,
    unfairness,
    validate_schedule,
)
from .nsga3 import (
    Front,
    Individual,
    OptimizerConfig,
    niche_preserve,
    nondominated_sort,
    reference_directions,
    run,
)
from .metrics import (
    HV_REFERENCE,
    aggregate_scores,
    hv,
    igd,
    normalize,
    pareto_filter,
    rdi,
    score_fronts,
    union_reference,
)
from .experiment import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    RunRecord,
    load_config,
    replay,
    run_experiment,
    score_stored_runs,
)

__version__ = "0.1.0"
