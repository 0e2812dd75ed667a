"""Command-line surface: experiments, bound calculators, CSV and SVG output.

Exit codes: 0 on success (and all checks passing), 1 on runtime or check
failure, 2 on usage errors. All output is deterministic given the flags;
wall-clock time is never written to files.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .bounds import (
    BoundInputs,
    clip_threshold,
    expectation_gap_bound,
    heuristic_kl_std,
    kl_deviation_bound,
    prior_deviation_bound,
    variance_lower_bound,
)
from .harness import (
    DistSpec,
    ExperimentConfig,
    coupling_diagnostic,
    coupling_marginal_gof,
    expected_kl_check,
    poisson_tail_check,
    run_facts_checks,
    run_kl_trials,
    sweep_std_vs_heuristic,
    verify_kl_tail_bound,
    verify_variance_lb,
)
from .svg import render_xy_plot

__all__ = ["main"]


class UsageError(Exception):
    pass


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_table(path: str | None, header: list[str], rows: list[list], sep: str) -> None:
    lines = [sep.join(header)]
    for row in rows:
        lines.append(sep.join(_fmt_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _count(text: str) -> int:
    """argparse type for trial and thread counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type for master seeds: an integer in [0, 2^64)."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


def _sep(fmt: str) -> str:
    return "\t" if fmt == "tsv" else ","


def _parse_dist(args) -> DistSpec:
    spec = args.dist
    if spec.startswith("file:"):
        return DistSpec.from_file(spec[len("file:") :])
    if spec == "file":
        raise UsageError("file distributions are given as --dist file:PATH")
    if spec not in ("uniform", "zipf", "twopoint"):
        raise UsageError(f"unknown distribution {spec!r}")
    if args.k is None:
        raise UsageError(f"--dist {spec} requires --k")
    if spec == "uniform":
        return DistSpec.uniform(args.k)
    if spec == "zipf":
        return DistSpec.zipf(args.k, args.zipf_s)
    return DistSpec.twopoint(args.k, args.mass)


def _cmd_simulate(args) -> int:
    dist = _parse_dist(args)
    cfg = ExperimentConfig(
        dist=dist, n=args.n, reps=args.reps, master_seed=args.seed, t=args.t, delta=args.delta
    )
    summary = run_kl_trials(cfg)
    exceed_frac = None if summary.exceed_count is None else summary.exceed_count / summary.reps
    header = ["k", "n", "reps", "t", "mean_kl", "var_kl", "std_kl", "q50", "q90", "q99",
              "exceed_frac", "t_delta"]
    row = [
        summary.k, summary.n, summary.reps, summary.t,
        summary.mean_kl, summary.var_kl, summary.std_kl,
        summary.quantiles[0.5], summary.quantiles[0.9], summary.quantiles[0.99],
        exceed_frac, summary.t_delta,
    ]
    _write_table(args.out, header, [row], _sep(args.format))
    return 0


def _cmd_bounds(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise UsageError(f"--delta must lie in (0, 1), got {args.delta}")
    if args.k < 1 or args.n < 1:
        raise UsageError("--k and --n must be >= 1")
    b = BoundInputs(k=args.k, n=args.n, delta=args.delta)
    variance_lb = variance_lower_bound(args.k, args.n) if args.n >= 10 * args.k else None
    prior = prior_deviation_bound(b) if args.n >= 2 else None
    header = ["kl_tail_bound", "prior_tail_bound", "variance_lb", "heuristic_std",
              "expectation_gap", "clip_threshold"]
    row = [
        kl_deviation_bound(b), prior, variance_lb,
        heuristic_kl_std(args.k, args.n),
        expectation_gap_bound(args.k, args.n),
        clip_threshold(b),
    ]
    _write_table(args.out, header, [row], _sep(args.format))
    return 0


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--ks must be a comma-separated list of integers, got {text!r}") from None
    if not ks:
        raise UsageError("--ks must name at least one alphabet size")
    if any(k < 1 for k in ks):
        raise UsageError("--ks entries must be >= 1")
    return ks


def _cmd_figure1(args) -> int:
    ks = _parse_ks(args.ks)
    rows = sweep_std_vs_heuristic(ks, n=args.n, reps=args.reps, master_seed=args.seed)
    header = ["k", "sample_std", "heuristic_std", "ratio"]
    table = [[r.k, r.sample_std, r.heuristic_std, r.ratio] for r in rows]
    _write_table(args.out, header, table, _sep(args.format))
    if args.svg:
        svg = render_xy_plot(
            [
                ("sample std", [r.k for r in rows], [r.sample_std for r in rows]),
                ("sqrt(k/2)/n", [r.k for r in rows], [r.heuristic_std for r in rows]),
            ],
            x_label="alphabet size k",
            y_label="std of KL loss",
            log_x=True,
            log_y=True,
            title=f"add-one estimator, n={args.n}, {args.reps} trials per point",
        )
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
    return 0


def _cmd_plot(args) -> int:
    with open(args.infile, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{args.infile}: empty CSV") from None
        data = [row for row in reader if row]
    if not data:
        raise UsageError(f"{args.infile}: CSV has a header but no rows")
    columns = {name: i for i, name in enumerate(header)}
    if args.x not in columns:
        raise UsageError(f"missing column {args.x!r} in {args.infile}")
    y_names = [name.strip() for name in args.y.split(",") if name.strip()]
    if not y_names:
        raise UsageError("--y must name at least one column")
    for name in y_names:
        if name not in columns:
            raise UsageError(f"missing column {name!r} in {args.infile}")

    series = []
    xi = columns[args.x]
    for name in y_names:
        yi = columns[name]
        xs, ys = [], []
        for row in data:
            if not row[xi] or not row[yi]:
                continue
            xs.append(float(row[xi]))
            ys.append(float(row[yi]))
        series.append((name, xs, ys))
    svg = render_xy_plot(series, x_label=args.x, log_x=args.logx, log_y=args.logy)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    return 0


def _line(passed: bool, claim: str, detail: str) -> tuple[bool, str]:
    verdict = "PASS" if passed else "FAIL"
    return passed, f"{verdict}  {claim}: {detail}"


def _suite_variance(args) -> list[tuple[bool, str]]:
    configs = [(2, 20), (10, 100), (64, 10240)]
    if args.k is not None or args.n is not None:
        if args.k is None or args.n is None:
            raise UsageError("variance suite override needs both --k and --n")
        configs = [(args.k, args.n)]
    reps = args.reps or 100_000
    lines = []
    for k, n in configs:
        r = verify_variance_lb(k, n, reps, args.seed)
        lines.append(
            _line(
                r.passed,
                "variance of add-one KL loss >= k/(32 n^2)",
                f"k={k} n={n} reps={reps} var={r.empirical_var:.4e} bound={r.lower_bound:.4e} "
                f"ratio={r.ratio:.2f} ci95=[{r.ci_low:.4e}, {r.ci_high:.4e}]",
            )
        )
    return lines


def _suite_thm(args) -> list[tuple[bool, str]]:
    configs = [(10, 1000, 0.1), (100, 10_000, 0.05)]
    if args.k is not None or args.n is not None:
        if args.k is None or args.n is None:
            raise UsageError("tail suite override needs both --k and --n")
        configs = [(args.k, args.n, args.delta if args.delta is not None else 0.1)]
    reps = args.reps or 10_000
    lines = []
    for k, n, delta in configs:
        r = verify_kl_tail_bound(k, n, reps, delta, args.seed)
        lines.append(
            _line(
                r.passed,
                "KL loss exceeds mean + deviation bound on at most a delta fraction",
                f"k={k} n={n} delta={delta} reps={reps} t_delta={r.t_delta:.4g} "
                f"exceed={r.exceed_frac:.6f} allowed={r.allowed:.6f}",
            )
        )
    return lines


def _suite_poisson_tail(args) -> list[tuple[bool, str]]:
    lams = [args.lam] if args.lam is not None else [1.0, 10.0, 100.0, 10_000.0]
    deltas = [args.delta] if args.delta is not None else [0.05, 0.1, 0.5]
    reps = args.reps or 1_000_000
    lines = []
    for lam in lams:
        for delta in deltas:
            r = poisson_tail_check(lam, delta, reps, args.seed)
            lines.append(
                _line(
                    r.passed,
                    "|N+1-lam| <= 6 sqrt(N+1) log(2/delta) fails on at most a delta fraction",
                    f"lam={lam:g} delta={delta} reps={reps} fail={r.fail_frac:.6f} "
                    f"allowed={r.allowed:.6f}",
                )
            )
    return lines


_COUPLING_CONFIGS = [(20, 0.4), (100, 0.5), (10_000, 0.01)]


def _coupling_configs(args) -> list[tuple[int, float]]:
    if args.n is not None or args.prob is not None:
        if args.n is None or args.prob is None:
            raise UsageError("coupling suite override needs both --n and --prob")
        return [(args.n, args.prob)]
    return _COUPLING_CONFIGS


def _suite_coupling(args) -> list[tuple[bool, str]]:
    reps = args.reps or 1_000_000
    lines = []
    for n, prob in _coupling_configs(args):
        r = coupling_diagnostic(n, prob, reps, args.seed)
        lines.append(
            _line(
                r.passed,
                "coupling gap E[(M-M')/(M'+1)] within 311/n + 160/(n^1.5 p)",
                f"n={n} p={prob} reps={reps} est={r.est_gap:.4e} "
                f"ci99=[{r.ci_low:.4e}, {r.ci_high:.4e}] bound={r.bound:.4e}",
            )
        )
    return lines


def _suite_marginals(args) -> list[tuple[bool, str]]:
    reps = args.reps or 1_000_000
    lines = []
    for n, prob in _coupling_configs(args):
        r = coupling_marginal_gof(n, prob, reps, args.seed)
        lines.append(
            _line(
                r.passed,
                "coupling marginals are exactly Bin(n,p) and Poi(np)",
                f"n={n} p={prob} reps={reps} chi2(M)={r.chi2_m:.1f} p(M)={r.p_m:.4f} "
                f"chi2(M')={r.chi2_m_prime:.1f} p(M')={r.p_m_prime:.4f}",
            )
        )
    return lines


def _suite_expectation(args) -> list[tuple[bool, str]]:
    dists = [DistSpec.uniform(10), DistSpec.zipf(10, 1.0), DistSpec.twopoint(10, 0.99)]
    n = args.n if args.n is not None else 1000
    reps = args.reps or 100_000
    lines = []
    for dist in dists:
        r = expected_kl_check(dist, n, reps, args.seed)
        lines.append(
            _line(
                r.passed,
                "mean add-one KL loss <= (k-1)/n",
                f"{r.dist} n={n} reps={reps} mean={r.mean_kl:.6e} "
                f"ceiling={r.ceiling:.6e} slack={r.slack:.2e}",
            )
        )
    return lines


def _suite_facts(args) -> list[tuple[bool, str]]:
    return [_line(c.passed, c.name, c.detail) for c in run_facts_checks()]


_SUITES = {
    "variance": _suite_variance,
    "thm": _suite_thm,
    "poisson-tail": _suite_poisson_tail,
    "coupling": _suite_coupling,
    "marginals": _suite_marginals,
    "expectation": _suite_expectation,
    "facts": _suite_facts,
}


def _cmd_check(args) -> int:
    if args.suite == "all":
        names = list(_SUITES)
    elif args.suite in _SUITES:
        names = [args.suite]
    else:
        raise UsageError(f"unknown suite {args.suite!r}; expected all or one of {', '.join(_SUITES)}")
    all_ok = True
    for name in names:
        print(f"== suite: {name}")
        for passed, text in _SUITES[name](args):
            print(text)
            all_ok = all_ok and passed
    print("== verdict:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


_THREADS_HELP = "accepted and ignored: trials run on one thread, and results do not depend on it"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klconc",
        description="KL-loss concentration toolbox: experiments, bounds, and claim checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one KL-loss experiment and write a CSV row")
    sim.add_argument("--dist", required=True, help="uniform | zipf | twopoint | file:PATH")
    sim.add_argument("--k", type=int, help="alphabet size (uniform/zipf/twopoint)")
    sim.add_argument("--n", type=int, required=True, help="samples per trial")
    sim.add_argument("--reps", type=_count, required=True, help="number of trials")
    sim.add_argument("--seed", type=_seed, required=True, help="64-bit master seed")
    sim.add_argument("--t", type=float, default=1.0, help="add-constant parameter (default 1)")
    sim.add_argument("--delta", type=float, help="failure probability for exceedance columns")
    sim.add_argument("--zipf-s", type=float, default=1.0, help="zipf exponent (default 1)")
    sim.add_argument("--mass", type=float, default=0.99, help="twopoint head mass (default 0.99)")
    sim.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    sim.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sim.add_argument("--threads", type=_count, help=_THREADS_HELP)
    sim.set_defaults(func=_cmd_simulate)

    bnd = sub.add_parser("bounds", help="evaluate the closed-form bounds for (k, n, delta)")
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--delta", type=float, required=True)
    bnd.add_argument("--out", help="output CSV path (default stdout)")
    bnd.add_argument("--format", choices=("csv", "tsv"), default="csv")
    bnd.set_defaults(func=_cmd_bounds)

    fig = sub.add_parser("figure1", help="sample std vs sqrt(k/2)/n sweep over alphabet sizes")
    fig.add_argument("--ks", default="2,4,8,16,32,64", help="comma-separated alphabet sizes")
    fig.add_argument("--n", type=int, default=10240)
    fig.add_argument("--reps", type=_count, default=1000)
    fig.add_argument("--seed", type=_seed, default=0)
    fig.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    fig.add_argument("--svg", help="also render a log-log SVG plot to this path")
    fig.add_argument("--format", choices=("csv", "tsv"), default="csv")
    fig.add_argument("--threads", type=_count, help=_THREADS_HELP)
    fig.set_defaults(func=_cmd_figure1)

    chk = sub.add_parser("check", help="run claim-verification suites")
    chk.add_argument("--suite", default="all",
                     help="all | variance | thm | poisson-tail | coupling | marginals | expectation | facts")
    chk.add_argument("--seed", type=_seed, default=0)
    chk.add_argument("--reps", type=_count, help="override repetitions for the suite")
    chk.add_argument("--k", type=int, help="override alphabet size (variance/thm)")
    chk.add_argument("--n", type=int, help="override sample size (variance/thm/coupling/expectation)")
    chk.add_argument("--delta", type=float, help="override failure probability (thm/poisson-tail)")
    chk.add_argument("--lam", type=float, help="override the Poisson rate (poisson-tail)")
    chk.add_argument("--prob", type=float, help="override the coupling probability")
    chk.add_argument("--threads", type=_count, help=_THREADS_HELP)
    chk.set_defaults(func=_cmd_check)

    plt = sub.add_parser("plot", help="render CSV columns to a standalone SVG")
    plt.add_argument("--in", dest="infile", required=True, help="input CSV path")
    plt.add_argument("--x", required=True, help="x column name")
    plt.add_argument("--y", required=True, help="comma-separated y column names")
    plt.add_argument("--out", required=True, help="output SVG path")
    plt.add_argument("--logx", action="store_true")
    plt.add_argument("--logy", action="store_true")
    plt.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
