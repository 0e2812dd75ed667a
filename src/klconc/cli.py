"""Command-line surface: experiments, bound calculators, CSV and SVG output.

Exit codes: 0 on success (and all checks passing), 1 on runtime or check
failure, 2 on usage errors. All output is deterministic given the flags;
wall-clock time is never written to files.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Callable, NamedTuple

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
    MAX_STORED_TRIALS,
    DistSpec,
    ExperimentConfig,
    check_gof_reps,
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
    """argparse type for counts (trials, threads, alphabet and sample sizes): an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _reps(text: str) -> int:
    """argparse type for trial counts: an integer in [1, MAX_STORED_TRIALS]."""
    value = _count(text)
    if value > MAX_STORED_TRIALS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_STORED_TRIALS}, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type for master seeds: an integer in [0, 2^64)."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


def _real(accept, what: str):
    """argparse type for a float that ``accept`` admits (NaN never is)."""

    def parse(text: str) -> float:
        value = float(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


_delta = _real(lambda x: 0.0 < x < 1.0, "in (0, 1)")
_prob = _real(lambda x: 0.0 < x <= 1.0, "in (0, 1]")
_rate = _real(lambda x: 0.0 <= x < math.inf, "finite and >= 0")

# check flags named like a suite config field: field -> (argparse type, what it is)
_FIELD_FLAGS = {
    "k": (_count, "alphabet size"),
    "n": (_count, "sample size"),
    "delta": (_delta, "failure probability"),
    "lam": (_rate, "Poisson rate"),
    "prob": (_prob, "coupling probability"),
}


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


class _Suite(NamedTuple):
    """One claim suite of ``check``. Each default config gives a value per
    field; ``run(**config, reps=reps, seed=seed)`` returns a report, or a list
    of them, whose fields fill the ``claim: detail`` template ``line``.
    ``regime``, given the same arguments, raises ValueError for a config
    outside the claim's regime; every config is checked before any output."""

    fields: tuple[str, ...]
    configs: list[tuple]
    reps: int | None  # None: the suite runs exact oracles and takes no reps or seed
    run: Callable
    line: str
    regime: Callable | None = None


def _suites() -> dict[str, _Suite]:
    # Built per call, so each runner is looked up in this module when check runs.
    coupling = [(20, 0.4), (100, 0.5), (10_000, 0.01)]
    return {
        "variance": _Suite(
            ("k", "n"), [(2, 20), (10, 100), (64, 10240)], 100_000, verify_variance_lb,
            "variance of add-one KL loss >= k/(32 n^2): k={k} n={n} reps={reps} "
            "var={empirical_var:.4e} bound={lower_bound:.4e} ratio={ratio:.2f} "
            "ci95=[{ci_low:.4e}, {ci_high:.4e}]",
            lambda k, n, **_: variance_lower_bound(k, n),  # raises unless n >= 10k
        ),
        "thm": _Suite(
            ("k", "n", "delta"), [(10, 1000, 0.1), (100, 10_000, 0.05)], 10_000, verify_kl_tail_bound,
            "KL loss exceeds mean + deviation bound on at most a delta fraction: k={k} n={n} "
            "delta={delta} reps={reps} t_delta={t_delta:.4g} exceed={exceed_frac:.6f} "
            "allowed={allowed:.6f}",
        ),
        "poisson-tail": _Suite(
            ("lam", "delta"),
            [(lam, delta) for lam in (1.0, 10.0, 100.0, 10_000.0) for delta in (0.05, 0.1, 0.5)],
            1_000_000, poisson_tail_check,
            "|N+1-lam| <= 6 sqrt(N+1) log(2/delta) fails on at most a delta fraction: lam={lam:g} "
            "delta={delta} reps={reps} fail={fail_frac:.6f} allowed={allowed:.6f}",
        ),
        "coupling": _Suite(
            ("n", "prob"), coupling, 1_000_000, coupling_diagnostic,
            "coupling gap E[(M-M')/(M'+1)] within 311/n + 160/(n^1.5 p): n={n} p={prob} "
            "reps={reps} est={est_gap:.4e} ci99=[{ci_low:.4e}, {ci_high:.4e}] bound={bound:.4e}",
        ),
        "marginals": _Suite(
            ("n", "prob"), coupling, 1_000_000, coupling_marginal_gof,
            "coupling marginals are exactly Bin(n,p) and Poi(np): n={n} p={prob} reps={reps} "
            "chi2(M)={chi2_m:.1f} p(M)={p_m:.4f} chi2(M')={chi2_m_prime:.1f} p(M')={p_m_prime:.4f}",
            lambda reps, **_: check_gof_reps(reps),
        ),
        "expectation": _Suite(
            ("dist", "n"),
            [(dist, 1000) for dist in (DistSpec.uniform(10), DistSpec.zipf(10, 1.0),
                                       DistSpec.twopoint(10, 0.99))],
            100_000, expected_kl_check,
            "mean add-one KL loss <= (k-1)/n: {dist} n={n} reps={reps} mean={mean_kl:.6e} "
            "ceiling={ceiling:.6e} slack={slack:.2e}",
        ),
        "facts": _Suite((), [()], None, run_facts_checks, "{name}: {detail}"),
    }


def _cmd_check(args) -> int:
    suites = _suites()
    names = list(suites) if args.suite == "all" else [args.suite]
    given = {f: getattr(args, f) for f in _FIELD_FLAGS if getattr(args, f) is not None}
    for field in given:
        if not any(field in suites[name].fields for name in names):
            raise UsageError(f"--{field} is a field of none of the suites run: {', '.join(names)}")
    runs = {}
    for name in names:
        suite = suites[name]
        configs = [tuple(given.get(f, v) for f, v in zip(suite.fields, cfg)) for cfg in suite.configs]
        runs[name] = []
        for cfg in dict.fromkeys(configs):  # configs an override made equal run once
            kwargs = dict(zip(suite.fields, cfg))
            if suite.reps is not None:
                kwargs.update(reps=args.reps or suite.reps, seed=args.seed)
            if suite.regime is not None:
                try:
                    suite.regime(**kwargs)
                except ValueError as exc:
                    raise UsageError(f"suite {name}: {exc}") from None
            runs[name].append(kwargs)
    all_ok = True
    for name, configs in runs.items():
        suite = suites[name]
        print(f"== suite: {name}")
        for kwargs in configs:
            out = suite.run(**kwargs)
            for report in out if isinstance(out, list) else [out]:
                verdict = "PASS" if report.passed else "FAIL"
                print(f"{verdict}  {suite.line.format_map(vars(report))}")
                all_ok = all_ok and report.passed
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
    sim.add_argument("--k", type=_count, help="alphabet size (uniform/zipf/twopoint)")
    sim.add_argument("--n", type=_count, required=True, help="samples per trial")
    sim.add_argument("--reps", type=_reps, required=True, help="number of trials")
    sim.add_argument("--seed", type=_seed, required=True, help="64-bit master seed")
    sim.add_argument("--t", type=float, default=1.0, help="add-constant parameter (default 1)")
    sim.add_argument("--delta", type=_delta, help="failure probability for exceedance columns")
    sim.add_argument("--zipf-s", type=float, default=1.0, help="zipf exponent (default 1)")
    sim.add_argument("--mass", type=float, default=0.99, help="twopoint head mass (default 0.99)")
    sim.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    sim.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sim.add_argument("--threads", type=_count, help=_THREADS_HELP)
    sim.set_defaults(func=_cmd_simulate)

    bnd = sub.add_parser("bounds", help="evaluate the closed-form bounds for (k, n, delta)")
    bnd.add_argument("--k", type=_count, required=True)
    bnd.add_argument("--n", type=_count, required=True)
    bnd.add_argument("--delta", type=_delta, required=True)
    bnd.add_argument("--out", help="output CSV path (default stdout)")
    bnd.add_argument("--format", choices=("csv", "tsv"), default="csv")
    bnd.set_defaults(func=_cmd_bounds)

    fig = sub.add_parser("figure1", help="sample std vs sqrt(k/2)/n sweep over alphabet sizes")
    fig.add_argument("--ks", default="2,4,8,16,32,64", help="comma-separated alphabet sizes")
    fig.add_argument("--n", type=_count, default=10240)
    fig.add_argument("--reps", type=_reps, default=1000)
    fig.add_argument("--seed", type=_seed, default=0)
    fig.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    fig.add_argument("--svg", help="also render a log-log SVG plot to this path")
    fig.add_argument("--format", choices=("csv", "tsv"), default="csv")
    fig.add_argument("--threads", type=_count, help=_THREADS_HELP)
    fig.set_defaults(func=_cmd_figure1)

    suites = _suites()
    chk = sub.add_parser("check", help="run claim-verification suites")
    chk.add_argument("--suite", default="all", choices=["all", *suites])
    chk.add_argument("--seed", type=_seed, default=0)
    chk.add_argument("--reps", type=_reps, help="override repetitions for the suite")
    for field, (kind, what) in _FIELD_FLAGS.items():
        takers = ", ".join(name for name, suite in suites.items() if field in suite.fields)
        chk.add_argument(f"--{field}", type=kind,
                         help=f"{what}: replaces {field} in every default config of {takers}")
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
