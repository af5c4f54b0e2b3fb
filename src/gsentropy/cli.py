"""Command-line front end.

Subcommands:
  compute   exact entropy, Shannon entropy, and asymptotic spread of a distribution
  estimate  plug-in estimate with confidence interval from a count or label file
  coverage  Monte Carlo coverage sweep with CSV (and optional SVG) output
  verify    run the oracle battery on the fixed-seed corpus

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 mathematical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from .coverage import (
    DEFAULT_GRID,
    STABLE_BAND_SE,
    coverage_csv,
    coverage_sweep,
    default_grid,
    stable_from,
    write_coverage_csv,
    write_coverage_svg,
)
from .distributions import NonConvergenceError, _check_order, parse_distribution
from .entropy import gse_analytic_info, shannon_entropy
from .estimation import (
    _SIGNED_DIGITS,
    _check_alpha,
    confidence_interval,
    gse_estimate,
    read_counts_csv,
    read_raw_labels,
    sigma_sq_true,
)
from .oracles import DEFAULT_CORPUS_SEED, DEFAULT_CORPUS_SIZE, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NON_CONVERGENT = 3
# the most orders or grid points a --m-range or --grid span may hold, and the
# most pmfs a --corpus-size may ask for: each is refused before it is built
MAX_SPAN = 10**6
_ZERO_SIGMA_NOTE = ("note: sigma_m is 0, so the sqrt(n) limit of the estimate is a point mass; "
                    "the interval's nominal level does not apply.")

def _load_distribution(spec: str):
    text = spec.strip()
    if not text.startswith("{"):
        text = Path(text).read_text(encoding="utf-8")
    return parse_distribution(text)


def _ints(parts: list[str]) -> list[int]:
    """int() of each part, which must be an optional sign and ASCII digits,
    spaces around it aside, as the counts-CSV reader requires; int() alone
    would also take digit separators and non-ASCII digits."""
    if not all(_SIGNED_DIGITS.fullmatch(part.strip()) for part in parts):
        raise ValueError(f"not plain integers: {parts!r}")
    return [int(part) for part in parts]


def _int(text: str) -> int:
    """The integer options' type: _ints' rule, in argparse's own words."""
    try:
        return _ints([text])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_grid(spec: str) -> list[int]:
    try:  # a wrong count of parts fails the unpacking, a bad part _ints()
        start, stop, step = _ints(spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must look like start:stop:step, got {spec!r}") from None
    if start < 2 or stop < start or step < 1:
        raise ValueError(f"unusable grid {spec!r}")
    # as for orders: past 2^53 a sample size would be rounded as a float, and a
    # far larger stop overflows list(range())
    if stop > 2**53:
        raise ValueError(f"grid stop must be at most 2**53, got {stop}")
    return list(_capped(range(start, stop + 1, step), "grid", spec))


def _parse_m_range(spec: str) -> tuple[int, ...]:
    try:
        ends = _ints(spec.split("..", 1))
    except ValueError:
        raise ValueError(f"order range must look like m or lo..hi, got {spec!r}") from None
    lo, hi = _check_order(ends[0]), _check_order(ends[-1])
    if hi < lo:
        raise ValueError(f"unusable order range {spec!r}")
    return tuple(_capped(range(lo, hi + 1), "order range", spec))


def _capped(span: range, what: str, spec: str) -> range:
    # len() of a range allocates nothing, so a span too long to build or run
    # is refused before it is built
    if len(span) > MAX_SPAN:
        raise ValueError(f"{what} {spec!r} holds {len(span)} values, more than {MAX_SPAN}")
    return span


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cmd_compute(args: argparse.Namespace) -> int:
    dist = _load_distribution(args.dist)
    h_m, terms = gse_analytic_info(dist, args.m)
    sigma_sq = sigma_sq_true(dist, args.m)
    shannon = shannon_entropy(dist)

    if args.format == "json":
        payload = {
            "m": args.m,
            "h_m": h_m,
            "shannon": shannon,
            "sigma_m": math.sqrt(sigma_sq),
            "sigma_sq_m": sigma_sq,
            "truncation_terms": terms,
        }
        print(json.dumps(payload))
        return EXIT_OK

    print(f"order m            : {args.m}")
    print(f"H_m                : {_fmt(h_m)}")
    print(f"Shannon H          : {_fmt(shannon)}")
    print(f"sigma_m            : {_fmt(math.sqrt(sigma_sq))}")
    print(f"truncation terms   : {terms}")
    if dist.zero_sigma:
        print(_ZERO_SIGMA_NOTE)
    if args.m >= 2 and not dist.shannon_clt:
        print("note: with a tail this heavy the plain Shannon plug-in lacks asymptotic "
              "normality; the collision-order estimator retains it.")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    # the options are checked, m then alpha as gse_estimate and
    # confidence_interval check them, before the reader reads what may be a
    # large file
    m = _check_order(args.m)
    _check_alpha(args.alpha)
    reader = read_raw_labels if args.raw else read_counts_csv
    counts, _ = reader(args.data, labels=False)
    est = gse_estimate(counts, m)
    ci = confidence_interval(est, args.alpha)

    if args.format == "json":
        payload = {
            "n": est.n,
            "m": est.m,
            "support_observed": est.support_observed,
            "h_hat": est.h_hat,
            "sigma_hat": est.sigma_hat,
            "interval": {
                "lower": ci.lower,
                "upper": ci.upper,
                "level": ci.level,
                "degenerate": ci.degenerate,
            },
        }
        print(json.dumps(payload))
        return EXIT_OK

    print(f"n                  : {est.n}")
    print(f"observed support   : {est.support_observed}")
    print(f"H_hat_{est.m}            : {_fmt(est.h_hat)}")
    print(f"sigma_hat_{est.m}        : {_fmt(est.sigma_hat)}")
    print(f"{ci.level * 100:g}% interval       : [{_fmt(ci.lower)}, {_fmt(ci.upper)}]")
    if ci.degenerate:
        if est.support_observed == 1:
            print("warning: single observed category; the interval is degenerate.")
        else:
            print("warning: the sample is empirically uniform over its support, the "
                  "variance estimate vanishes there and the interval is degenerate.")
    return EXIT_OK


def _cmd_coverage(args: argparse.Namespace) -> int:
    dist = _load_distribution(args.dist)
    grid = _parse_grid(args.grid) if args.grid else default_grid()
    result = coverage_sweep(dist, args.m, grid, args.reps, args.alpha, args.seed)
    if args.svg:  # the files first, so that a closed stdout cuts none of them short
        write_coverage_svg(result, args.svg)
    if args.out:
        write_coverage_csv(result, args.out)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(coverage_csv(result.points))
        summary_stream = sys.stderr

    covs = [p.coverage for p in result.points]
    stable = stable_from(result)
    print(f"true H_{args.m} = {_fmt(result.true_gse)}; coverage min {min(covs):.4f} "
          f"max {max(covs):.4f} over {len(covs)} sample sizes", file=summary_stream)
    if dist.zero_sigma:
        print(_ZERO_SIGMA_NOTE, file=summary_stream)
    band = f"{STABLE_BAND_SE:g}"
    print(f"no grid point starts an all-within-{band}-SE run of the nominal level" if stable is None
          else f"all points within {band} binomial SEs of {1 - args.alpha:g} from n = {stable}",
          file=summary_stream)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.corpus_size > MAX_SPAN:
        raise ValueError(f"corpus size must be at most {MAX_SPAN}, got {args.corpus_size}")
    report = run_verification(corpus_seed=args.corpus_seed,
                              corpus_size=args.corpus_size,
                              m_values=_parse_m_range(args.m_range))
    args.status = EXIT_OK if report.passed else EXIT_VERIFY_FAILED  # also if stdout is closed
    print(f"corpus: {report.corpus_size} pmfs, seed {report.corpus_seed}, "
          f"orders {list(report.m_values)}")
    for check in report.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    return args.status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gse",
        description="Collision-order generalized entropy: exact values, plug-in "
                    "estimation with confidence intervals, and coverage experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact entropy of a distribution")
    p.add_argument("--dist", required=True,
                   help='inline JSON like {"kind":"zeta","s":1.5} or a path to a JSON file')
    p.add_argument("--m", type=_int, default=2, help="collision order (default 2)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("estimate", help="plug-in estimate from a data file")
    p.add_argument("--data", required=True, help="counts CSV (category,count) or raw labels")
    p.add_argument("--raw", action="store_true", help="treat the file as one label per line")
    p.add_argument("--m", type=_int, default=2)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("coverage", help="Monte Carlo coverage sweep")
    p.add_argument("--dist", required=True)
    p.add_argument("--m", type=_int, default=2)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=_int, default=5000)
    p.add_argument("--grid", default=None,
                   help="start:stop:step sample sizes (default {}:{}:{})".format(*DEFAULT_GRID))
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("verify", help="run the oracle battery")
    p.add_argument("--corpus-seed", type=_int, default=DEFAULT_CORPUS_SEED)
    p.add_argument("--corpus-size", type=_int, default=DEFAULT_CORPUS_SIZE)
    p.add_argument("--m-range", default="1..4", help="orders to sweep, e.g. 1..4")
    p.set_defaults(func=_cmd_verify)

    return parser


def _stdout_closed() -> bool:
    """Whether stdout is a pipe or socket whose reader has gone."""
    import select  # only a broken pipe asks

    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no file under stdout, as when it is captured
        return False
    poll = select.poll()
    poll.register(fd, select.POLLOUT)
    return any(events & (select.POLLERR | select.POLLHUP) for _, events in poll.poll(0))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.status = EXIT_OK  # a command may set its status before it writes
    try:
        args.status = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENT
    except (ValueError, OSError, MemoryError) as exc:  # a MemoryError may carry no message
        # a reader of stdout that has gone is no error of the command's, unlike
        # a broken pipe the command opened itself (such as an --out FIFO)
        if not (isinstance(exc, BrokenPipeError) and _stdout_closed()):
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return EXIT_USAGE
        # the interpreter flushes stdout again at exit: there it writes to nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return args.status


if __name__ == "__main__":
    raise SystemExit(main())
