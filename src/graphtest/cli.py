"""Command-line interface.

One executable with five subcommands:

* ``generate`` - write sampled adjacency CSVs for a model document
* ``test``     - run the statistics on two directories of adjacency CSVs
* ``theory``   - print closed-form diagnostics for a model document
* ``simulate`` - run a Monte Carlo experiment grid to a CSV report
* ``realdata`` - resampling pipeline for unequal-size observed groups

Exit codes: 0 success, 1 usage error, 2 runtime error.  Errors are printed
to stderr as one line, ``<code>: <message>``.  A subcommand takes only the
flags it reads: ``--seed`` all but ``theory``, ``--output-format`` the
three that print records, the group flags ``test`` and ``realdata`` (each
set declared once, in a parent parser), ``--alpha`` ``test``, the only one
that prints decisions, ``--threads`` ``simulate``.  An
``--out`` that cannot be written fails before the run, and before
``realdata`` reads any file.  Without ``--seed``, ``generate``, ``test``
and ``realdata`` draw a seed from OS entropy and print it to stderr as
``graphtest: seed <N> (from OS entropy)``;
``simulate`` uses its config's ``master_seed``.  ``test`` and ``realdata``
read the group files and run their splits (through
:func:`graphtest.realdata.run_passes`) on one worker process per usable CPU
(the affinity mask), and ``simulate`` its cells on ``--threads`` workers;
:mod:`graphtest.pool` cuts all of this work into chunks by one rule,
and output does not depend on the worker count.  ``test`` prints each
split's results, so its splits are those of ``realdata --strategy
split-only``; ``realdata`` fails with ``all-na`` when every weighted
repetition of every method is NA.  Both commands check the group sizes by
one rule on the file counts, before any file is read and before a seed is
drawn.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import diagnostics, simulate
from .errors import AllNAError, GraphTestError
from .graphs import save_adjacency_csv, write_csv
from .models import load_model_json, sample_population
from .pool import usable_cpus
from .realdata import RepeatedRun, ResamplingPlan, load_groups, run_passes
from .rng import check_seed, fresh_seed, substream
from .twosample import METHODS


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _open_unit(name: str):
    def fraction(value: str) -> float:
        number = float(value)
        if not 0.0 < number < 1.0:
            raise argparse.ArgumentTypeError(f"{name} must lie in (0, 1), got {value}")
        return number
    return fraction


def _seed(value: str) -> int:
    try:
        return check_seed(int(value))
    except (ValueError, GraphTestError):
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit int, got {value}")


def _int_at_least(low: int):
    def integer(value: str) -> int:
        number = int(value)
        if number < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return number
    return integer


def _tau_list(value: str) -> tuple[float, ...]:
    try:
        # Adding 0.0 turns -0.0 into 0.0, which would otherwise print as "-0".
        taus = tuple(float(part) + 0.0 for part in value.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"thresholds must be comma-separated reals: {value!r}")
    if not taus or not all(math.isfinite(t) and t >= 0 for t in taus):
        raise argparse.ArgumentTypeError(
            f"thresholds must be finite non-negative reals: {value!r}")
    if len(set(taus)) != len(taus):
        raise argparse.ArgumentTypeError(f"thresholds must not repeat: {value!r}")
    return taus


def _build_parser() -> argparse.ArgumentParser:
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=None,
                        help="master seed; omit for a fresh one from OS entropy")
    printing = _Parser(add_help=False)
    printing.add_argument("--output-format", choices=("json", "csv", "table"),
                          default="json", help="stdout format for printed results")

    def grouped(method: str) -> argparse.ArgumentParser:
        # One per command: set_defaults on a shared parent changes both.
        groups = _Parser(add_help=False)
        groups.add_argument("--group-a", required=True)
        groups.add_argument("--group-b", required=True)
        groups.add_argument("--method", choices=("tn", "tfro", "both"), default=method)
        groups.add_argument("--drop-last", action="store_true",
                            help="drop the last graph of each group when sizes are odd")
        return groups

    parser = _Parser(prog="graphtest",
                     description="Two-sample testing for weighted networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[seeded, printing],
                       help="sample graphs from a model document into CSV files")
    p.add_argument("--model", required=True, help="model JSON document")
    p.add_argument("--m", type=_int_at_least(1), required=True, help="number of graphs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--shifted", action="store_true",
                   help="sample the epsilon-shifted population")

    p = sub.add_parser("test", parents=[seeded, printing, grouped("tn")],
                       help="test two equally sized groups of adjacency CSVs")
    p.add_argument("--splits", type=_int_at_least(1), default=1,
                   help="number of random-split repetitions")
    p.add_argument("--alpha", type=_open_unit("alpha"), default=0.05)

    p = sub.add_parser("theory", parents=[printing],
                       help="closed-form diagnostics for a model document")
    p.add_argument("--config", required=True, help="model JSON document")
    p.add_argument("--m", type=_int_at_least(1), required=True,
                   help="group size the diagnostics assume")
    p.add_argument("--delta", type=_open_unit("delta"), default=0.05,
                   help="margin for the binary-mean bound (means above 1-delta flag)")

    p = sub.add_parser("simulate", parents=[seeded],
                       help="run a Monte Carlo experiment grid")
    p.add_argument("--config", required=True, help="experiment JSON document")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--threads", type=_int_at_least(0), default=1,
                   help="worker processes for replicate chunks (0 = one per usable CPU)")

    p = sub.add_parser("realdata", parents=[seeded, grouped("both")],
                       help="resampling pipeline for unequal-size groups")
    p.add_argument("--strategy", choices=("oversample", "subsample", "split-only"),
                   default="oversample",
                   help="how unequal groups are equalized (default oversample). "
                        "oversample is not a calibrated test: on null data "
                        "(n=30, 10 v 14 graphs) it rejected 0.677 of datasets "
                        "at alpha 0.05; subsample held its size (0.043)")
    p.add_argument("--reps", type=_int_at_least(1), default=100)
    p.add_argument("--taus", type=_tau_list, default=None,
                   help="comma-separated thresholds; adds a binarized sweep")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    return parser


def _methods(flag: str) -> tuple[str, ...]:
    return METHODS if flag == "both" else (flag,)


def _result_record(split: int, result) -> dict:
    return {
        "split": split,
        "method": result.method,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "reject": result.reject,
        "na_reason": result.na_reason,
    }


def _print_records(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for record in records:
            print(json.dumps(record))
    elif fmt == "csv":
        write_csv(list(records[0]), (r.values() for r in records))
    else:
        keys = list(records[0])
        widths = [max(len(k), *(len(_cell(r[k])) for r in records)) for k in keys]
        print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        for record in records:
            print("  ".join(_cell(record[k]).ljust(w) for k, w in zip(keys, widths)))


def _master_seed(args) -> int:
    """``--seed``, or a fresh seed from OS entropy, which is then written to
    stderr so the run can be repeated; stdout and reports are unchanged."""
    if args.seed is not None:
        return args.seed
    seed = fresh_seed()
    print(f"graphtest: seed {seed} (from OS entropy)", file=sys.stderr)
    return seed


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_generate(args) -> int:
    model = load_model_json(args.model)
    seed = _master_seed(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sample = sample_population(model, args.shifted, args.m, substream(seed, 0))
    names = []
    for k, graph in enumerate(sample.graphs):
        name = f"graph_{k:04d}.csv"
        save_adjacency_csv(graph, out_dir / name)
        names.append(name)
    _print_records([{"directory": str(out_dir), "files": len(names), "seed": seed}],
                   args.output_format)
    return 0


def _cmd_test(args) -> int:
    group_a, group_b = load_groups((args.group_a, args.group_b), usable_cpus(),
                                   "split_only", args.drop_last)
    plan = ResamplingPlan("split_only", args.splits, _master_seed(args))
    methods = _methods(args.method)
    runs, _ = run_passes(group_a, group_b, plan, methods, args.alpha,
                         args.drop_last, taus=(), workers=usable_cpus())
    _print_records([_result_record(split, runs[method].results[split])
                    for split in range(args.splits) for method in methods],
                   args.output_format)
    return 0


def _cmd_theory(args) -> int:
    model = load_model_json(args.config)
    moments = diagnostics.two_block_moments(model, args.m)
    null_moments = dataclasses.replace(moments, mu2=moments.mu1,
                                       sigma2_sq=moments.sigma1_sq)
    # Raises on a model whose variances are all zero.  Otherwise sum(V^2) > 0,
    # so lambda_n and the power ratios below are defined.
    ratios = diagnostics.condition_ratios(null_moments)

    report = {
        "family": model.family,
        "n": model.n,
        "m": args.m,
        "epsilon": model.epsilon,
        "lambda_n": diagnostics.lambda_from_moments(moments),
        "null_variance": diagnostics.null_variance(null_moments),
        "condition_ratios": {
            "size_vs_sigma4": ratios.size_vs_sigma4,
            "sigma8_concentration": ratios.sigma8_concentration,
            "sigma4_eta": ratios.sigma4_eta,
            "eta_sq": ratios.eta_sq,
            # Advisory heuristic only; the ratios are asymptotic and have no
            # universal finite-sample cutoff.
            "all_below_0.1_heuristic": ratios.all_below(0.1),
        },
        "tfro_consistency_ratio": diagnostics.tfro_consistency_ratio(null_moments),
        "power_condition_ratios": diagnostics.power_condition_ratios(moments),
    }
    if model.family == "bernoulli":
        cond = diagnostics.bernoulli_condition(null_moments, args.delta)
        report["bernoulli_condition"] = {
            "n": cond.n,
            "mu_fro_sq": cond.mu_fro_sq,
            "ratio": cond.ratio,
            "degenerate": cond.degenerate,
            "bounded": cond.bounded,
            "violation_count": len(cond.violations),
        }

    if args.output_format == "json":
        print(json.dumps(report, indent=2))
    else:
        flat = _flatten(report)
        _print_records([{"key": k, "value": v} for k, v in flat.items()],
                       args.output_format)
    return 0


def _flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        else:
            out[name] = value
    return out


def _cmd_simulate(args) -> int:
    config: simulate.ExperimentConfig = simulate.load_experiment_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    _check_out(args.out)
    report = simulate.run_experiment(config, threads=args.threads)
    simulate.emit_report(report, args.out)
    return 0


def _cmd_realdata(args) -> int:
    strategy = {"oversample": "oversample_smaller",
                "subsample": "subsample_larger",
                "split-only": "split_only"}[args.strategy]
    if args.out:
        _check_out(args.out)
    group_a, group_b = load_groups((args.group_a, args.group_b), usable_cpus(),
                                   strategy, args.drop_last)
    seed = _master_seed(args)
    plan = ResamplingPlan(strategy=strategy, repetitions=args.reps, seed=seed)
    methods = _methods(args.method)
    runs, sweep = run_passes(group_a, group_b, plan, methods, drop_last=args.drop_last,
                             taus=args.taus or (), workers=usable_cpus())
    if all(run.summary is None for run in runs.values()):
        raise AllNAError(
            f"all {plan.repetitions} repetitions produced undefined statistics")
    rows = [_summary_row(strategy, "", runs[method]) for method in methods]
    rows += [_summary_row(strategy, f"{tau:g}", swept[method])
             for tau, swept in sweep for method in methods]
    write_csv(REALDATA_HEADER, rows, args.out or None)
    return 0


def _check_out(path: str) -> None:
    """Raise now the error that writing ``path`` after the run would, by
    creating and removing it, or by opening an existing ``path`` for
    writing, which leaves its bytes as they are."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        os.close(os.open(path, os.O_WRONLY))
    else:
        os.unlink(path)


REALDATA_HEADER = ("strategy", "tau", "method", "min", "q1", "median", "q3",
                   "max", "na_count")


def _summary_row(strategy, tau: str, run: RepeatedRun) -> list[str]:
    """One output row for the repetitions of one method."""
    values = (None,) * 5 if run.summary is None else run.summary.as_tuple()
    return [strategy, tau, run.method, *map(_cell, values), str(run.na_count)]


_COMMANDS = {
    "generate": _cmd_generate,
    "test": _cmd_test,
    "theory": _cmd_theory,
    "simulate": _cmd_simulate,
    "realdata": _cmd_realdata,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage-error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exit_:  # --help
        return int(exit_.code or 0)

    try:
        return _COMMANDS[args.command](args)
    except GraphTestError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io-error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
