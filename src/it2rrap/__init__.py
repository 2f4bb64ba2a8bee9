"""IT2 fuzzy multi-objective reliability-redundancy allocation toolkit."""

from .typereduce import (
    CentroidInterval,
    centroid_rows,
    defuzzify,
)
from .datasets import (
    BUNDLED_DATASETS,
    Dataset,
    bundled_dataset,
    dump_dataset,
    dumps_dataset,
    load_dataset,
    loads_dataset,
)
from .optimizer import (
    GaConfig,
    RunResult,
    SwarmConfig,
    constriction,
    evolve_maximize,
    genetic_solve,
    swarm_maximize,
    swarm_solve,
)
from .stats import (
    AnovaResult,
    SampleSummary,
    TestResult,
    anova_f,
    describe,
    t_test,
)
from .sysmodel import (
    FITNESS_NORMALIZED,
    FITNESS_RAW,
    PARALLEL_SERIES,
    SERIES_PARALLEL,
    WEIGHT_AS_WRITTEN,
    WEIGHT_DATASET_CONSISTENT,
    Candidate,
    IdealBounds,
    MetricSet,
    SystemSpec,
    constraint_violation,
    crisp_metrics,
    dominates,
    evaluate_objectives,
    is_feasible,
    scalarize,
    subsystem_reliability,
    validate_candidate,
)

__version__ = "0.1.0"
