"""Command-line front end.

Three subcommands::

    grouphom test DATA.csv       global homogeneity test
    grouphom pergroup DATA.csv   per-group bootstrap p-values
    grouphom simulate ...        rejection-rate study / table reproduction

Each takes ``--format human|csv|json``.

Exit codes: 0 success, 2 bad input (data, arguments, unknown tables),
3 estimator precondition violated by otherwise-valid data.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, classical, decision, simulate, ustat
from .data import load_dataset, write_dataset_csv
from .errors import (
    DatasetError,
    EstimatorPrecondition,
    GrouphomError,
    OutOfRange,
    _check_alpha,
)

_FORMATS = ("human", "json", "csv")


def _resolve_seed(seed):
    """A concrete seed: the given one, else fresh OS entropy."""
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy)


def _report_payload(report: decision.TestReport) -> dict:
    return {
        "statistic": float(report.statistic),
        "variance": float(report.variance.value),
        "variance_estimator": report.variance.estimator,
        "z": float(report.z),
        "p_value": float(report.p_value),
        "alpha": float(report.alpha),
        "reject": bool(report.reject),
        "degenerate_variance": bool(report.degenerate_variance),
    }


def _emit(fmt: str, human, payload=None, table=None, note=None) -> int:
    """Write one subcommand's result to stdout in ``fmt``; returns 0.

    ``payload`` is the JSON document, ``table`` the CSV ``(header, rows)``
    and ``note`` a line for stderr after the CSV table.  ``human()``
    returns the human-readable lines; it runs only for the human format
    and for a format the result has no part for.
    """
    if fmt == "json" and payload is not None:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif fmt == "csv" and table is not None:
        for line in simulate._csv_lines(*table):
            print(line)
        if note is not None:
            print(note, file=sys.stderr)
    else:
        for line in human():
            print(line)
    return 0


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _cmd_test(args) -> int:
    ds = load_dataset(args.data)
    needs_seed = args.estimator in ("test7", "all")
    seed = _resolve_seed(args.seed) if needs_seed else args.seed
    if args.estimator == "all":
        reports = decision.run_all_tests(
            ds, alpha=args.alpha, seed=seed, B=args.bootstrap_b
        )
    else:
        reports = {
            args.estimator: decision.run_global_test(
                ds, args.estimator, alpha=args.alpha, seed=seed,
                B=args.bootstrap_b,
            )
        }
    payload = {
        "groups": ds.k,
        "categories": ds.d,
        "alpha": args.alpha,
        "seed": seed,
        "reports": {est: _report_payload(r) for est, r in reports.items()},
    }
    rows = [
        (est, r["statistic"], r["variance"], r["z"], r["p_value"], r["reject"],
         r["degenerate_variance"])
        for est, r in payload["reports"].items()
    ]
    chi2_stat = chi2_p = None
    if args.estimator == "all":
        chi2_stat, chi2_p = classical.chi_square_pooled(ds)
        payload["chi2_pooled"] = {"statistic": chi2_stat, "p_value": chi2_p}
        rows.append(("chi2_pooled", chi2_stat, None, None, chi2_p,
                     chi2_p <= args.alpha, False))

    def human():
        yield f"dataset: {ds.k} groups, {ds.d} categories"
        if needs_seed:
            yield f"bootstrap seed: {seed}"
        for est, r in reports.items():
            verdict = "reject homogeneity" if r.reject else "retain homogeneity"
            flag = "  [degenerate variance]" if r.degenerate_variance else ""
            yield (
                f"{est}: T_U = {r.statistic:.4g}, var = {r.variance.value:.4g}, "
                f"z = {r.z:.4g}, p = {r.p_value:.4g}  "
                f"-> {verdict} at alpha = {args.alpha:g}{flag}"
            )
        if chi2_stat is not None:
            verdict = "reject" if chi2_p <= args.alpha else "retain"
            yield (
                f"chi2 (no grouping): stat = {chi2_stat:.4g}, "
                f"p = {chi2_p:.4g}  -> {verdict}"
            )
        stats = ustat.group_statistics(ds)
        yield "largest per-group statistics:"
        for i in np.argsort(stats)[::-1][: min(5, ds.k)]:
            yield f"  {ds.ids[i]}: T_U_r = {stats[i]:.4g}"

    header = ("estimator", "statistic", "variance", "z", "p_value", "reject",
              "degenerate")
    return _emit(args.format, human, payload, (header, rows))


# ---------------------------------------------------------------------------
# pergroup
# ---------------------------------------------------------------------------


def _cmd_pergroup(args) -> int:
    _check_alpha(args.alpha)  # before the bootstrap, not after
    ds = load_dataset(args.data)
    seed = _resolve_seed(args.seed)
    results = decision.pergroup_bootstrap_pvalues(
        ds, B=args.bootstrap_b, seed=seed, smoothed=args.smoothed
    )
    minp_reject = decision.global_minp_rule(
        [r.p_raw for r in results], alpha=args.alpha
    )
    n_bh = sum(r.p_bh <= args.alpha for r in results)
    n_bonf = sum(r.p_bonferroni <= args.alpha for r in results)
    per_group = [
        {
            "group": r.group_id,
            "statistic": float(r.statistic),
            "p_raw": float(r.p_raw),
            "p_bh": float(r.p_bh),
            "p_bonferroni": float(r.p_bonferroni),
            "degenerate": bool(r.degenerate),
        }
        for r in results
    ]
    payload = {
        "groups": ds.k,
        "categories": ds.d,
        "alpha": args.alpha,
        "seed": seed,
        "bootstrap_b": args.bootstrap_b,
        "smoothed": bool(args.smoothed),
        "minp_reject": bool(minp_reject),
        "significant_bh": int(n_bh),
        "significant_bonferroni": int(n_bonf),
        "per_group": per_group,
    }
    # the CSV columns are the per-group JSON record's keys
    table = (tuple(per_group[0]), [tuple(g.values()) for g in per_group])
    verdict = "reject" if minp_reject else "retain"

    def human():
        yield (
            f"dataset: {ds.k} groups, {ds.d} categories; "
            f"B = {args.bootstrap_b}, seed = {seed}"
        )
        yield (f"{'group':<12}{'T_U_r':>10}{'p_raw':>9}{'p_BH':>9}"
               f"{'p_Bonf':>9}")
        for r in results:
            mark = "  *" if r.p_bh <= args.alpha else ""
            flag = "  [degenerate]" if r.degenerate else ""
            yield (
                f"{r.group_id:<12}{r.statistic:>10.4f}{r.p_raw:>9.4f}"
                f"{r.p_bh:>9.4f}{r.p_bonferroni:>9.4f}{mark}{flag}"
            )
        yield (
            f"BH-significant groups at alpha = {args.alpha:g}: {n_bh} "
            f"(Bonferroni: {n_bonf})"
        )
        yield f"min-p global rule: {verdict} homogeneity"

    return _emit(args.format, human, payload, table,
                 note=f"min-p global rule: {verdict}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(";"):
        try:
            n1, n2 = (int(bit) for bit in part.split(","))
        except ValueError:
            raise OutOfRange(
                f"bad size pair {part!r} in {text!r}: size pairs look like "
                f"'n1,n2' separated by ';'"
            ) from None
        pairs.append((n1, n2))
    return pairs


#: ``simulate`` flags that only one form reads.  Each parses to None
#: (``--progress`` to False) when not given; the --setting form's
#: defaults are filled in once the form is known.
_SETTING_DEFAULTS = {"d": 5, "k": 50, "n1": 10, "n2": 10, "pi0": None,
                     "tests": "test1"}
_TABLE_FLAGS = ("outdir", "k_values", "d_values", "sizes", "progress")
_RATE_FLAGS = ("tests", "reps", "workers")


def _reject_flags(args, names, form: str) -> None:
    """Raise ``OutOfRange`` naming each of ``names`` given on the command
    line, as they do not apply to ``form``."""
    given = [
        "--" + name.replace("_", "-")
        for name in names
        if getattr(args, name) not in (None, False)
    ]
    if given:
        raise OutOfRange(f"{', '.join(given)}: not used by {form}")


def _cmd_simulate(args) -> int:
    if args.table is not None and args.setting is not None:
        raise OutOfRange("--table and --setting are mutually exclusive")
    if args.table is None and args.setting is None:
        raise OutOfRange("one of --table or --setting is required")

    if args.table is not None:
        if args.export_replicate is not None:
            raise OutOfRange("--export-replicate needs the --setting form")
        _reject_flags(args, (*_SETTING_DEFAULTS, "out"), "the --table form")
        result = simulate.reproduce_table(
            args.table,
            reps=args.reps,
            seed=args.seed,
            alpha=args.alpha,
            workers=args.workers,
            outdir=args.outdir,
            k_values=args.k_values,
            size_pairs=_parse_sizes(args.sizes) if args.sizes else None,
            d_values=args.d_values,
            progress=(
                (lambda msg: print(msg, file=sys.stderr))
                if args.progress
                else None
            ),
        )
        payload = {
            "table": result.table,
            "columns": list(result.columns),
            "rows": result.rows,
            "csv_path": result.csv_path,
            "sidecar_path": result.sidecar_path,
        }
        if result.csv_path is not None:
            return _emit(
                args.format,
                lambda: (f"wrote {result.csv_path}",
                         f"wrote {result.sidecar_path}"),
                payload,
            )
        table = (
            result.columns,
            [[row.get(c) for c in result.columns] for row in result.rows],
        )
        return _emit(args.format, lambda: simulate._csv_lines(*table),
                     payload, table)

    _reject_flags(args, _TABLE_FLAGS, "the --setting form")
    if args.export_replicate is None:
        _reject_flags(args, ("out",), "the --setting form without --export-replicate")
    else:
        _reject_flags(args, _RATE_FLAGS, "--export-replicate")
    for name, default in _SETTING_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    spec = simulate.SettingSpec(
        setting=args.setting,
        d=args.d,
        k=args.k,
        n1=args.n1,
        n2=args.n2,
        pi0=args.pi0,
        master_seed=args.seed,
    )
    if args.export_replicate is not None:
        if args.out is None:
            raise OutOfRange("--export-replicate requires --out PATH")
        ds, null_flags = simulate.generate_replicate(spec, args.export_replicate)
        write_dataset_csv(ds, args.out)
        record = {
            "replicate": args.export_replicate,
            "path": args.out,
            "k": ds.k,
            "d": ds.d,
            "null_groups": int(null_flags.sum()),
        }
        return _emit(
            args.format,
            lambda: (
                f"wrote replicate {args.export_replicate} to {args.out} "
                f"({ds.k} groups, {ds.d} categories, "
                f"{record['null_groups']} null groups)",
            ),
            record,
            (tuple(record), [tuple(record.values())]),
        )

    tests = tuple(t.strip() for t in args.tests.split(",") if t.strip())
    reps = args.reps if args.reps is not None else 10_000
    results = simulate.estimate_rejection_rate(
        spec,
        tests,
        reps=reps,
        alpha=args.alpha,
        workers=args.workers,
    )
    payload = {
        "spec": {
            "setting": spec.setting,
            "d": spec.d,
            "k": spec.k,
            "n1": spec.n1,
            "n2": spec.n2,
            "pi0": spec.pi0,
            "seed": spec.master_seed,
        },
        "reps": reps,
        "alpha": args.alpha,
        "results": {
            t: {
                "rate": float(r.rate),
                "se": float(r.se),
                "rejections": int(r.rejections),
                "degenerate": int(r.degenerate),
            }
            for t, r in results.items()
        },
    }
    table = (
        ("test", "rate", "se", "rejections", "reps", "degenerate"),
        [(t, r.rate, r.se, r.rejections, r.reps, r.degenerate)
         for t, r in results.items()],
    )

    def human():
        yield (
            f"setting {spec.setting}, d = {spec.d}, k = {spec.k}, "
            f"sizes = ({spec.n1}, {spec.n2}), reps = {reps}, "
            f"seed = {spec.master_seed}"
        )
        for t, r in results.items():
            extra = f", degenerate = {r.degenerate}" if r.degenerate else ""
            yield f"{t}: rejection rate = {r.rate:.4f} (se = {r.se:.4f}){extra}"

    return _emit(args.format, human, payload, table)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouphom",
        description=(
            "Tests of simultaneous homogeneity of two multinomial "
            "populations across many small groups."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser(
        "test", help="global homogeneity test from a counts CSV"
    )
    p_test.add_argument("data", help="counts CSV (group,population,c1,...,cd)")
    p_test.add_argument(
        "--estimator",
        default="test1",
        choices=tuple(decision.ESTIMATORS) + ("all",),
        help="null-variance estimator (default: test1)",
    )
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--seed", type=int, default=None,
                        help="bootstrap seed (test7); default: OS entropy")
    p_test.add_argument("--bootstrap-b", type=int, default=200,
                        help="bootstrap replicates for test7 (default: 200)")
    p_test.add_argument("--format", choices=_FORMATS, default="human")
    p_test.set_defaults(func=_cmd_test)

    p_pg = sub.add_parser(
        "pergroup", help="per-group bootstrap p-values with BH/Bonferroni"
    )
    p_pg.add_argument("data")
    p_pg.add_argument("--alpha", type=float, default=0.05)
    p_pg.add_argument("--seed", type=int, default=None,
                      help="bootstrap seed; default: OS entropy")
    p_pg.add_argument("--bootstrap-b", type=int, default=1000)
    p_pg.add_argument("--smoothed", action="store_true",
                      help="use the (count+1)/(B+1) p-value convention")
    p_pg.add_argument("--format", choices=_FORMATS, default="human")
    p_pg.set_defaults(func=_cmd_pergroup)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo rejection rates / table reproduction"
    )
    p_sim.add_argument("--table", default=None,
                       choices=simulate.TABLE_IDS, metavar="TABLE",
                       help=f"one of {', '.join(simulate.TABLE_IDS)}")
    p_sim.add_argument("--setting", type=int, default=None,
                       help="data-generating setting 1..5")
    p_sim.add_argument("--d", type=int, default=None)
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--n1", type=int, default=None)
    p_sim.add_argument("--n2", type=int, default=None)
    p_sim.add_argument("--pi0", type=int, default=None, choices=(2, 4),
                       help="alternative library vector (settings 3-4)")
    p_sim.add_argument("--tests", default=None,
                       help="comma-separated test ids (default: test1)")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replicates (default: the table's published "
                            "count, or 10000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: MH_WORKERS or 1)")
    p_sim.add_argument("--outdir", default=None,
                       help="write <table>.csv and a JSON sidecar here")
    p_sim.add_argument("--k-values", type=int, nargs="+", default=None)
    p_sim.add_argument("--d-values", type=int, nargs="+", default=None)
    p_sim.add_argument("--sizes", default=None,
                       help="size pairs like '5,10;10,10'")
    p_sim.add_argument("--progress", action="store_true",
                       help="report each cell on stderr as it starts")
    p_sim.add_argument("--export-replicate", type=int, default=None,
                       metavar="INDEX",
                       help="write one generated replicate as a counts CSV")
    p_sim.add_argument("--out", default=None,
                       help="output path for --export-replicate")
    p_sim.add_argument("--format", choices=_FORMATS, default="human")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EstimatorPrecondition as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GrouphomError as exc:
        # UnknownTable is a KeyError, whose str() quotes the message.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
