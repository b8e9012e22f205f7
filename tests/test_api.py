"""The package's public surface, and the names the benchmark tracer wraps."""

from __future__ import annotations

import inspect
import types
from pathlib import Path

import grouphom
from grouphom import (
    _batch,
    classical,
    cli,
    data,
    decision,
    errors,
    simulate,
    ustat,
    variance,
)

ROOT = Path(__file__).resolve().parents[1]

# Growing or shrinking the public surface shows up as a change to this list.
PUBLIC = [
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


def test_public_surface_is_pinned():
    assert grouphom.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC) == 47
    for name in PUBLIC:
        assert getattr(grouphom, name) is not None, name


# Adding or removing an option shows up as a change to these lists.
SIGNATURES = {
    simulate.estimate_rejection_rate: ["spec", "tests", "reps", "alpha",
                                       "workers", "bootstrap_B", "minp_B"],
    simulate.null_z_scores: ["spec", "estimator", "reps", "workers"],
    simulate.reproduce_table: ["table_id", "reps", "seed", "alpha", "workers",
                               "outdir", "k_values", "size_pairs", "d_values",
                               "progress"],
    simulate.generate_replicate: ["spec", "replicate_index"],
    classical.wk_statistic: ["ds"],
    classical.vk_statistic: ["ds"],
    decision.run_global_test: ["ds", "estimator", "alpha", "seed", "B"],
    decision.run_all_tests: ["ds", "alpha", "seed", "B"],
    decision.pergroup_bootstrap_pvalues: ["ds", "B", "seed", "smoothed"],
    decision.global_minp_rule: ["pvalues", "alpha"],
    variance.var0_bootstrap: ["ds", "B", "seed"],
}


def test_parameter_names_are_pinned():
    for fn, names in SIGNATURES.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_retired_object_layer_is_gone():
    for name in ("CountVector", "GroupPair", "sample_multinomial"):
        assert not hasattr(grouphom, name)
        assert not hasattr(data, name) and not hasattr(simulate, name)
    for attr in ("from_counts", "counts_matrix", "group_ids", "groups", "__iter__"):
        assert not hasattr(grouphom.GroupedDataset, attr)


def test_retired_moment_paths_are_gone():
    # the oracles compute exact moments one way, for every cell
    for name in ("exact_enumeration_feasible", "TooManyOutcomes"):
        assert not hasattr(grouphom, name)
    assert not hasattr(errors, "TooManyOutcomes")
    for name in ("exact_enumeration_feasible", "EXACT_PAIR_LIMIT", "_PIECE_PAIRS",
                 "_compositions"):
        assert not hasattr(classical, name)
    for fn in (classical.chi_square_moments_oracle, classical.lrt_moments_oracle):
        assert list(inspect.signature(fn).parameters) == ["pi", "n1", "n2"]
    for fn in (simulate.estimate_rejection_rate, simulate.reproduce_table):
        params = inspect.signature(fn).parameters
        assert "moment_method" not in params and "moment_reps" not in params


def test_retired_argument_checks_are_gone():
    # errors._check_integer and errors._check_alpha are the only checks
    for name in ("_check_seed", "_check_bootstrap_size"):
        assert not hasattr(variance, name)
    for module in (decision, simulate, classical, cli, variance):
        for name in ("_check_integer", "_check_alpha"):
            assert getattr(module, name, getattr(errors, name)) is getattr(errors, name)
    assert not hasattr(classical, "numbers") and not hasattr(simulate, "operator")


def test_tracer_targets_resolve():
    # perfbench/tracing.py is run from its source, so nothing is written
    # beside it; a name it wraps that the package no longer has raises here
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    modules = {
        "_batch": _batch, "classical": classical, "cli": cli, "data": data,
        "decision": decision, "simulate": simulate, "ustat": ustat,
    }
    targets = tracing.grouphom_targets(tracing.Tracer(), modules)
    assert targets
    for module, attr, wrapper in targets:
        assert wrapper.__wrapped__ is getattr(module, attr), (module, attr)
