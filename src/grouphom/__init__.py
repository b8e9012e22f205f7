"""Tests of simultaneous homogeneity for paired multinomial samples
observed across many small groups.

The central object is an aggregated per-group U-statistic whose null
variance can be estimated seven ways (:mod:`grouphom.variance`,
:mod:`grouphom.decision`); classical chi-square and likelihood-ratio
aggregates live in :mod:`grouphom.classical`, per-group bootstrap
p-values with multiplicity control in :mod:`grouphom.decision`, and the
Monte Carlo machinery for the level/power tables in
:mod:`grouphom.simulate`.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classical import (
    MomentPair,
    chi_square_moments_oracle,
    chi_square_pooled,
    lrt_moments_oracle,
    uit_statistic,
    vk_prime,
    vk_statistic,
    wk_prime,
    wk_statistic,
)
from .data import (
    GroupedDataset,
    ProbVector,
    load_dataset,
    read_counts_csv,
    validate_dataset,
    write_dataset_csv,
)
from .decision import (
    ESTIMATORS,
    PerGroupResult,
    TestReport,
    adjust_pvalues,
    global_minp_rule,
    pergroup_bootstrap_pvalues,
    run_all_tests,
    run_global_test,
)
from .errors import (
    DatasetError,
    EstimatorPrecondition,
    GrouphomError,
    OutOfRange,
    SampleTooSmall,
    UnknownTable,
    UnsupportedDimension,
)
from .simulate import (
    MCResult,
    SettingSpec,
    TableResult,
    estimate_rejection_rate,
    generate_replicate,
    null_z_scores,
    pi_library,
    reproduce_table,
)
from .ustat import (
    aggregate_statistic,
    group_statistics,
    group_ustat,
    group_ustat_kernel_oracle,
)
from .variance import (
    VarianceEstimate,
    var0_bootstrap,
    var0_true,
    var_true_full,
)

__all__ = [
    "__version__",
    # data
    "ProbVector",
    "GroupedDataset",
    "validate_dataset",
    "read_counts_csv",
    "load_dataset",
    "write_dataset_csv",
    # statistic
    "group_ustat",
    "group_ustat_kernel_oracle",
    "group_statistics",
    "aggregate_statistic",
    # variance estimators
    "VarianceEstimate",
    "var0_bootstrap",
    "var0_true",
    "var_true_full",
    # classical aggregates
    "MomentPair",
    "uit_statistic",
    "wk_statistic",
    "vk_statistic",
    "wk_prime",
    "vk_prime",
    "chi_square_pooled",
    "chi_square_moments_oracle",
    "lrt_moments_oracle",
    # decisions
    "ESTIMATORS",
    "TestReport",
    "PerGroupResult",
    "run_global_test",
    "run_all_tests",
    "adjust_pvalues",
    "global_minp_rule",
    "pergroup_bootstrap_pvalues",
    # simulation
    "SettingSpec",
    "MCResult",
    "TableResult",
    "pi_library",
    "generate_replicate",
    "estimate_rejection_rate",
    "null_z_scores",
    "reproduce_table",
    # errors
    "GrouphomError",
    "DatasetError",
    "EstimatorPrecondition",
    "SampleTooSmall",
    "OutOfRange",
    "UnknownTable",
    "UnsupportedDimension",
]
