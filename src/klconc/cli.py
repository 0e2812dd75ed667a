"""Command-line surface: experiments, bound calculators, CSV and SVG output.

Exit codes: 0 on success (and all checks passing), 1 on runtime or check
failure, 2 on usage errors. All output is deterministic given the flags:
tables and the hand-rolled SVG plot (no plotting dependency) are written
with fixed float formats, so the same flags always yield byte-identical
files, and wall-clock time is never written to them.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple

from .bounds import (
    clip_threshold,
    expectation_gap_bound,
    heuristic_kl_std,
    kl_deviation_bound,
    prior_deviation_bound,
    variance_lower_bound,
)
from .distributions import Pmf, load_pmf, two_point_pmf, uniform_pmf, zipf_pmf
from .harness import (
    MAX_STORED_TRIALS,
    _MAX_RATE,
    _check_two_reps,
    _usable_cores,
    check_gof_regime,
    coupling_checks,
    expected_kl_check,
    poisson_tail_checks,
    run_facts_checks,
    run_kl_trials,
    sweep_std_vs_heuristic,
    verify_kl_tail_bound,
    verify_variance_lb,
)

__all__ = ["main", "render_xy_plot"]


class UsageError(Exception):
    pass


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_table(path: str, header: list[str], rows: list[list], fmt: str) -> None:
    sep = "\t" if fmt == "tsv" else ","
    lines = [sep.join(header)]
    for row in rows:
        lines.append(sep.join(_fmt_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _number(kind, accept, what: str):
    """argparse type for a ``kind`` (int or float) that ``accept`` admits (NaN never is)."""

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" / "invalid float value"
    return parse


# counts: trials, threads, alphabet and sample sizes
_count = _number(int, lambda x: x >= 1, ">= 1")
_size = _number(int, lambda x: 1 <= x <= _MAX_RATE, f"in [1, {_MAX_RATE:.6g}]")
_reps = _number(int, lambda x: 1 <= x <= MAX_STORED_TRIALS, f"in [1, {MAX_STORED_TRIALS}]")
_seed = _number(int, lambda x: 0 <= x < 2**64, "in [0, 2^64)")
_delta = _number(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_prob = _number(float, lambda x: 0.0 < x <= 1.0, "in (0, 1]")
_rate = _number(float, lambda x: 0.0 <= x < math.inf, "finite and >= 0")
_lam = _number(float, lambda x: 0.0 <= x <= _MAX_RATE, f"in [0, {_MAX_RATE:.6g}]")
_mass = _number(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_finite = _number(float, math.isfinite, "finite")

# check flags named like a suite config field: field -> (argparse type, what it is)
_FIELD_FLAGS = {
    "k": (_count, "alphabet size"),
    "n": (_size, "sample size"),
    "delta": (_delta, "failure probability"),
    "lam": (_lam, "Poisson rate"),
    "prob": (_prob, "coupling probability"),
}


def _parse_dist(args) -> Pmf:
    spec = args.dist
    if spec in ("file", "file:"):
        raise UsageError("file distributions are given as --dist file:PATH")
    if spec.startswith("file:"):
        return load_pmf(spec[len("file:") :])
    if spec not in ("uniform", "zipf", "twopoint"):
        raise UsageError(f"unknown distribution {spec!r}")
    if args.k is None:
        raise UsageError(f"--dist {spec} requires --k")
    if spec == "twopoint" and args.k < 2:
        raise UsageError(f"--dist twopoint needs --k >= 2, got {args.k}")
    if spec == "uniform":
        return uniform_pmf(args.k)
    if spec == "zipf":
        return zipf_pmf(args.k, args.zipf_s)
    return two_point_pmf(args.k, args.mass)


def _cmd_simulate(args) -> int:
    pmf = _parse_dist(args)
    k = len(pmf)
    if not math.isfinite(args.n + k * args.t):
        raise UsageError(f"--t {args.t:g} overflows the add-t denominator n + k*t at k={k}")
    summary = run_kl_trials(pmf, args.n, args.reps, args.seed, t=args.t, delta=args.delta, threads=args.threads)
    _write_table(args.out, ["k", "n", "reps", "t", *summary], [[k, args.n, args.reps, args.t, *summary.values()]],
                 args.format)
    return 0


def _cmd_bounds(args) -> int:
    b = (args.k, args.n, args.delta)
    try:
        variance_lb = variance_lower_bound(args.k, args.n)
    except ValueError:  # (k, n) outside the floor's regime: the cell stays blank
        variance_lb = None
    prior = prior_deviation_bound(*b) if args.n >= 2 else None
    header = ["kl_tail_bound", "prior_tail_bound", "variance_lb", "heuristic_std",
              "expectation_gap", "clip_threshold"]
    row = [kl_deviation_bound(*b), prior, variance_lb, heuristic_kl_std(args.k, args.n),
           expectation_gap_bound(args.k, args.n), clip_threshold(*b)]
    _write_table(args.out, header, [row], args.format)
    return 0


def _ks(text: str) -> list[int]:
    """argparse type for --ks: comma-separated alphabet sizes, at least one, each a ``_count``."""
    ks = [_count(part) for part in text.split(",") if part.strip()]
    if not ks:
        raise argparse.ArgumentTypeError("must name at least one alphabet size")
    return ks


_ks.__name__ = "int list"  # argparse names the type in "invalid int list value"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 520
_MARGIN_L = 78
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0**e <= hi * (1 + 1e-12):
        for mult in (1.0, 2.0, 5.0):
            t = mult * 10.0**e
            if lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12):
                ticks.append(t)
        e += 1
    if len(ticks) > 9:
        ticks = [t for t in ticks if f"{t:.0e}".startswith("1")]
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(x, y, size, body: str, anchor: str = "middle", extra: str = "") -> str:
    """One ``<text>`` element with ``&``, ``<`` and ``>`` escaped in ``body``;
    an empty ``anchor`` omits ``text-anchor``, ``extra`` is appended as is."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{anchor}{extra}>{body}</text>'


def _log_scale(values: list[float], px_lo: float, px_hi: float):
    """``(lo, hi, to_px)``: the span of ``values``, widened to [v/2, 2v] for a
    single value v, and the map of that span onto [px_lo, px_hi] in log10."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo / 2.0, hi * 2.0

    def to_px(v: float) -> float:
        frac = (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        return px_lo + frac * (px_hi - px_lo)

    return lo, hi, to_px


def render_xy_plot(
    series: list[tuple[str, list[float], list[float]]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render named (x, y) series as polylines with circle markers on log-log axes.

    Points with a nonpositive or nonfinite coordinate are dropped. Raises
    ValueError when no plottable points remain.
    """
    cleaned = []
    for name, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0
        ]
        cleaned.append((name, pts))
    all_pts = [pt for _, pts in cleaned for pt in pts]
    if not all_pts:
        raise ValueError("nothing to plot: no finite points in range")

    ax_bottom = _HEIGHT - _MARGIN_B
    x_lo, x_hi, xp = _log_scale([p[0] for p in all_pts], _MARGIN_L, _WIDTH - _MARGIN_R)
    y_lo, y_hi, yp = _log_scale([p[1] for p in all_pts], ax_bottom, _MARGIN_T)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(f"{_WIDTH / 2:.0f}", 22, 15, title),
        f'<line x1="{_MARGIN_L}" y1="{ax_bottom}" x2="{_WIDTH - _MARGIN_R}" y2="{ax_bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{ax_bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for t in _decade_ticks(x_lo, x_hi):
        px = _fmt(xp(t))
        out.append(f'<line x1="{px}" y1="{ax_bottom}" x2="{px}" y2="{ax_bottom + 5}" stroke="black"/>')
        out.append(_text(px, ax_bottom + 18, 11, f"{t:.6g}"))
    for t in _decade_ticks(y_lo, y_hi):
        py = yp(t)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(_text(_MARGIN_L - 8, _fmt(py + 4), 11, f"{t:.6g}", anchor="end"))

    out.append(_text(f"{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}", _HEIGHT - 14, 13, x_label))
    cy = f"{(_MARGIN_T + ax_bottom) / 2:.0f}"
    out.append(_text(18, cy, 13, y_label, extra=f' transform="rotate(-90 18 {cy})"'))

    legend, legend_x = [], _WIDTH - _MARGIN_R - 180
    for idx, (name, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{_fmt(xp(x))},{_fmt(yp(y))}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{_fmt(xp(x))}" cy="{_fmt(yp(y))}" r="3" fill="{color}"/>')
        y0 = _MARGIN_T + 6 + idx * 18
        legend.append(f'<rect x="{legend_x}" y="{y0 - 9}" width="12" height="12" fill="{color}"/>')
        legend.append(_text(legend_x + 18, y0 + 2, 12, name, anchor=""))

    out += legend
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cmd_figure1(args) -> int:
    ks = args.ks
    rows = sweep_std_vs_heuristic(ks, args.n, args.reps, args.seed, threads=args.threads)
    _write_table(args.out, list(rows[0]), [list(r.values()) for r in rows], args.format)
    if args.svg:
        svg = render_xy_plot(
            [
                ("sample std", ks, [r["sample_std"] for r in rows]),
                ("sqrt(k/2)/n", ks, [r["heuristic_std"] for r in rows]),
                ("sqrt((k-1)/2)/n", ks, [math.sqrt((k - 1) / 2) / args.n for k in ks]),
            ],
            x_label="alphabet size k",
            y_label="std of KL loss",
            title=f"add-one estimator, n={args.n}, {args.reps} trials per point",
        )
        with open(args.svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
    return 0


class _Suite(NamedTuple):
    """One claim suite of ``check``. Each default config gives a value per
    field; ``run(**config, reps=reps, seed=seed, threads=threads)`` (or
    ``run()`` when ``reps`` is None) returns a ``ClaimResult``, or a list of
    them. The run's arguments and then each result's ``values`` fill the
    ``claim: detail`` template ``line``, or the i-th result the i-th
    template when ``line`` is a tuple. ``regime``, given the same arguments,
    raises ValueError for a config outside the claim's regime (by default it
    admits every config); every config is checked before any output."""

    fields: tuple[str, ...]
    configs: list[tuple]
    reps: int | None  # None: the suite runs exact oracles and takes no reps or seed
    run: Callable
    line: str | tuple[str, ...]
    regime: Callable = lambda **_: None


def _poisson_tail(lam, delta, **kw):
    """poisson-tail runner: a default config's delta is a tuple of deltas,
    which are all checked on one sample of draws; an override is one delta."""
    return poisson_tail_checks(lam, delta if isinstance(delta, tuple) else (delta,), **kw)


# Second names of suites: `--suite marginals` runs `coupling`, which checks both coupling claims.
_ALIASES = {"marginals": "coupling"}


def _suites() -> dict[str, _Suite]:
    # Built per call, so each runner is looked up in this module when check runs.
    expectation = {"uniform(10)": uniform_pmf(10), "zipf(10,1)": zipf_pmf(10, 1.0),
                   "twopoint(10,0.99)": two_point_pmf(10, 0.99)}
    return {
        "variance": _Suite(
            ("k", "n"), [(2, 20), (10, 100), (64, 10240)], 100_000, verify_variance_lb,
            "variance of add-one KL loss >= k/(32 n^2): k={k} n={n} reps={reps} "
            "var={empirical_var:.4e} bound={lower_bound:.4e} ratio={ratio:.2f} "
            "ci95=[{ci_low:.4e}, {ci_high:.4e}]",
            # variance_lower_bound raises unless k >= 2 and n >= 10k
            lambda k, n, reps, **_: (_check_two_reps(reps), variance_lower_bound(k, n)),
        ),
        "thm": _Suite(
            ("k", "n", "delta"), [(10, 1000, 0.1), (100, 10_000, 0.05)], 10_000, verify_kl_tail_bound,
            "KL loss exceeds mean + deviation bound on at most a delta fraction: k={k} n={n} "
            "delta={delta} reps={reps} t_delta={t_delta:.4g} exceed={exceed_frac:.6f} "
            "allowed={allowed:.6f}",
        ),
        "poisson-tail": _Suite(
            ("lam", "delta"),
            [(lam, (0.05, 0.1, 0.5)) for lam in (1.0, 10.0, 100.0, 10_000.0)],
            1_000_000, _poisson_tail,
            "|N+1-lam| <= 6 sqrt(N+1) log(2/delta) fails on at most a delta fraction: lam={lam:g} "
            "delta={delta} reps={reps} fail={fail_frac:.6f} allowed={allowed:.6f}",
        ),
        "coupling": _Suite(
            ("n", "prob"), [(20, 0.4), (100, 0.5), (10_000, 0.01)], 1_000_000, coupling_checks,
            ("coupling gap E[(M-M')/(M'+1)] within 311/n + 160/(n^1.5 p): n={n} p={prob} "
             "reps={reps} est={est_gap:.4e} ci99=[{ci_low:.4e}, {ci_high:.4e}] bound={bound:.4e}",
             "coupling marginals are exactly Bin(n,p) and Poi(np): n={n} p={prob} reps={reps} "
             "chi2(M)={chi2_m:.1f} p(M)={p_m:.4f} chi2(M')={chi2_m_prime:.1f} p(M')={p_m_prime:.4f}"),
            lambda n, reps, **_: check_gof_regime(n, reps),
        ),
        "expectation": _Suite(
            ("dist", "n"), [(label, 1000) for label in expectation], 100_000,
            lambda dist, **kw: expected_kl_check(expectation[dist], **kw),
            "mean add-one KL loss <= (k-1)/n: {dist} n={n} reps={reps} mean={mean_kl:.6e} "
            "ceiling={ceiling:.6e} slack={slack:.2e}",
            lambda reps, **_: _check_two_reps(reps),
        ),
        "facts": _Suite((), [()], None, run_facts_checks, "{name}: {detail}"),
    }


def _cmd_check(args) -> int:
    suites = _suites()
    names = list(suites) if args.suite == "all" else [_ALIASES.get(args.suite, args.suite)]
    given = {f: getattr(args, f) for f in _FIELD_FLAGS if getattr(args, f) is not None}
    for field in given:
        if not any(field in suites[name].fields for name in names):
            raise UsageError(f"--{field} is a field of none of the suites run: {', '.join(names)}")
    runs = {}  # suite name -> runner arguments of each of its configs, in output order
    for name in names:
        suite = suites[name]
        configs = [tuple(given.get(f, v) for f, v in zip(suite.fields, cfg)) for cfg in suite.configs]
        runs[name] = []
        for cfg in dict.fromkeys(configs):  # configs an override made equal run once
            kwargs = dict(zip(suite.fields, cfg))
            if suite.reps is not None:
                kwargs.update(reps=args.reps or suite.reps, seed=args.seed, threads=args.threads)
            try:
                suite.regime(**kwargs)
            except ValueError as exc:
                raise UsageError(f"suite {name}: {exc}") from None
            runs[name].append(kwargs)

    # Configs run one after another; each shares its blocks or chunks among the threads.
    all_ok = True
    for name, suite_runs in runs.items():
        suite = suites[name]
        print(f"== suite: {name}")
        for kwargs in suite_runs:
            out = suite.run(**kwargs)
            results = out if isinstance(out, list) else [out]
            lines = suite.line if isinstance(suite.line, tuple) else [suite.line] * len(results)
            for result, line in zip(results, lines, strict=True):
                verdict = "PASS" if result.passed else "FAIL"
                print(f"{verdict}  {line.format_map({**kwargs, **result.values})}")
                all_ok = all_ok and result.passed
    print("== verdict:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


_THREADS_HELP = ("worker threads for the trial blocks and draw chunks (default: usable cores); "
                 "output does not depend on it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klconc",
        description="KL-loss concentration toolbox: experiments, bounds, and claim checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one KL-loss experiment and write a CSV row")
    sim.add_argument("--dist", required=True, help="uniform | zipf | twopoint | file:PATH")
    sim.add_argument("--k", type=_count, help="alphabet size (uniform/zipf/twopoint)")
    sim.add_argument("--n", type=_size, required=True, help="samples per trial")
    sim.add_argument("--reps", type=_reps, required=True, help="number of trials")
    sim.add_argument("--seed", type=_seed, required=True, help="64-bit master seed")
    sim.add_argument("--t", type=_rate, default=1.0, help="add-constant parameter (default 1)")
    sim.add_argument("--delta", type=_delta, help="failure probability for exceedance columns")
    sim.add_argument("--zipf-s", type=_finite, default=1.0, help="zipf exponent (default 1)")
    sim.add_argument("--mass", type=_mass, default=0.99, help="twopoint head mass (default 0.99)")
    sim.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    sim.add_argument("--format", choices=("csv", "tsv"), default="csv")
    sim.set_defaults(func=_cmd_simulate)

    bnd = sub.add_parser("bounds", help="evaluate the closed-form bounds for (k, n, delta)")
    bnd.add_argument("--k", type=_count, required=True)
    bnd.add_argument("--n", type=_size, required=True)
    bnd.add_argument("--delta", type=_delta, required=True)
    bnd.add_argument("--out", default="-", help="output CSV path ('-', the default, for stdout)")
    bnd.add_argument("--format", choices=("csv", "tsv"), default="csv")
    bnd.set_defaults(func=_cmd_bounds)

    fig = sub.add_parser("figure1", help="sample std vs sqrt(k/2)/n sweep over alphabet sizes")
    fig.add_argument("--ks", type=_ks, default="2,4,8,16,32,64", help="comma-separated alphabet sizes")
    fig.add_argument("--n", type=_size, default=10240)
    fig.add_argument("--reps", type=_reps, default=1000)
    fig.add_argument("--seed", type=_seed, default=0)
    fig.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    fig.add_argument("--svg", help="also render a log-log SVG plot to this path")
    fig.add_argument("--format", choices=("csv", "tsv"), default="csv")
    fig.set_defaults(func=_cmd_figure1)

    suites = _suites()
    chk = sub.add_parser("check", help="run claim-verification suites")
    chk.add_argument("--suite", default="all", choices=["all", *suites, *_ALIASES],
                     help="suite to run (marginals is a second name for coupling)")
    chk.add_argument("--seed", type=_seed, default=0)
    chk.add_argument("--reps", type=_reps, help="override repetitions for the suite")
    for field, (kind, what) in _FIELD_FLAGS.items():
        takers = ", ".join(name for name, suite in suites.items() if field in suite.fields)
        chk.add_argument(f"--{field}", type=kind,
                         help=f"{what}: replaces {field} in every default config of {takers}")
    chk.set_defaults(func=_cmd_check)

    for drawing in (sim, fig, chk):
        drawing.add_argument("--threads", type=_count, default=_usable_cores(), help=_THREADS_HELP)

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
    except MemoryError as exc:  # numpy's names the array it could not allocate; Python's is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
