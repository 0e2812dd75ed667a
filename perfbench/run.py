"""klconc benchmark: time from a ``klconc`` command to its verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one caller runs the workload's CLI jobs
back to back, every job with ``--seed N``. The package is imported from
``src/`` of the checkout and never edited. A run starts fresh interpreters
(``child.py``) one after another while the next is expected to end within
``--seconds``, and at least two. Each child runs every job once, as a user's
``klconc`` command would, at ``--threads nproc`` (``nproc`` from the CPU
affinity mask) or at ``--threads 1``; the children take the two in ABBA
order, so a drift in machine speed falls evenly on both.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` and ``wall_s.t1``
(median over the children at nproc and at one thread of the jobs' summed
``main`` time), ``setup_s`` (median over the children of the time to import
``klconc.cli``) and ``peak_rss_mb`` (largest peak RSS of a child).
``--trace 1`` runs untraced children for half the time, then one child under
the outside-in tracer (``tracer.py``) at one thread and one at nproc, and
prints the per-layer metrics. Spans are written to ``.perfbench_out/`` when
the run ends.

Every job's output goes through the correctness gate (``gate.py``); the
last line of stdout is the JSON result with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it records the run's
environment, samples and any misses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path
from typing import Callable

import numpy as np

from gate import Gate, check_job, check_same_output, exact_mean_add_one_kl
from tracer import PER_TRIAL_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_CHILDREN = 2  # one at each thread count
CHILD_TIMEOUT_S = 150
IMPORTTIME_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple[tuple[str, ...], ...]
    # Exact mean loss that a simulate job's mean_kl is checked against.
    exact_mean: Callable[[], float] | None = None


def _zipf(k: int, s: float = 1.0) -> np.ndarray:
    w = np.arange(1, k + 1, dtype=np.float64) ** (-s)
    return w / w.sum()


# Four trial blocks per config, so the pool has work for two threads; a job of ~3 s at one
# thread averages over the host's second-to-second speed swings, which made the
# one-thread median of ~1.3 s jobs spread by up to 0.23 between runs.
VARIANCE_REPS = 8192
# Half a trial block, so the pool runs it on one thread and is judged on variance-suite. At
# ~2 ms a trial, a whole block (2048 reps) gave too few children for a steady median: its
# wall_s spread by 0.35 between runs on a shared 2-core machine, against 0.09-0.17 here.
LARGE_K, LARGE_N, LARGE_REPS = 10_000, 1000, 1024

WORKLOADS = {
    "variance-suite": Workload(
        why="variance floor at k=2,10,64: small k, so the fixed per-trial cost, the thread pool "
        "and the bootstrap dominate",
        jobs=(("check", "--suite", "variance", "--reps", str(VARIANCE_REPS)),),
    ),
    "large-k-zipf": Workload(
        why="zipf k=10000 n=1000 simulate, 1024 reps in one trial block: n < k, so per-symbol sampling, "
        "estimate and loss dominate; mean checked against the exact mean loss",
        jobs=(("simulate", "--dist", "zipf", "--k", str(LARGE_K), "--n", str(LARGE_N),
               "--reps", str(LARGE_REPS), "--delta", "0.1", "--out", "-"),),
        exact_mean=lambda: exact_mean_add_one_kl(_zipf(LARGE_K), LARGE_N),
    ),
    "vectorized-claims": Workload(
        why="poisson-tail, coupling, marginals, facts: vectorised draws, GOF and bound oracles "
        "that bypass the per-trial engine and the pool",
        jobs=tuple(("check", "--suite", suite) for suite in ("poisson-tail", "coupling", "marginals", "facts")),
    ),
}

# Layers of the per-layer metrics; "cli.self" is the cli.main span's self time.
LAYERS = PER_TRIAL_LAYERS + (
    "harness.trial_loop",
    "harness.bootstrap",
    "harness.aggregate",
    "harness.api",
    "harness.chi_square_gof",
    "sampling.coupled_pairs",
    "bounds",
    "cli.self",
)
IMPORTS = ("klconc", "klconc.bounds", "klconc.harness", "klconc.cli", "scipy.stats")

END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("wall_s.t1", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``--trace 1`` prints."""
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"),
                  (f"{layer}.us_per_call", "us", "lower")]
        if layer in PER_TRIAL_LAYERS:
            specs.append((f"{layer}.ns_per_symbol", "ns", "lower"))
    specs.append(("sampling.coupled_pairs.ns_per_draw", "ns", "lower"))
    specs += [("harness.pool.speedup", "x", "higher"), ("harness.pool.busy_frac", "fraction", "higher")]
    specs += [(f"import.{name}_s", "s", "lower") for name in IMPORTS]
    specs += [("trace.wall_s", "s", "lower"), ("trace.overhead_frac", "fraction", "lower"),
              ("trace.catchall_frac", "fraction", "lower")]
    return specs


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("KLCONC_THREADS", None)  # an inherited value must not change the thread count
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(jobs, threads: int, trace_path: Path | None = None) -> dict:
    """Run each of ``jobs`` once at ``threads`` threads in a fresh interpreter (child.py)."""
    spec = {"jobs": jobs, "threads": threads, "src": str(SRC),
            "trace": None if trace_path is None else str(trace_path)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_children(jobs, cores: int, seconds: float) -> list[dict]:
    """Children at nproc and one thread in ABBA order, started while the next
    is expected to end within ``seconds``."""
    children = []
    start = time.monotonic()
    last = 0.0
    while len(children) < MIN_CHILDREN or time.monotonic() - start + last <= seconds:
        i = len(children)
        t0 = time.monotonic()
        children.append(run_child(jobs, (cores, 1)[(i + i // 2) % 2]))
        last = time.monotonic() - t0
    return children


def gate_children(gate: Gate, children: list[dict], exact_mean: float | None) -> None:
    """Each job passes, and prints the same bytes in every child, at either thread count."""
    ref = children[0]
    for child in children:
        for job, ref_job in zip(child["jobs"], ref["jobs"]):
            check_job(gate, job, exact_mean)
            if child is not ref:
                check_same_output(gate, ref_job, job,
                                  f"{child['threads']} vs {ref['threads']} threads")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per name in IMPORTS from ``-X importtime`` output.

    klconc's only scipy import is ``from scipy import stats``, and the
    lazily loaded ``scipy.stats`` gets no line of its own, so its entry is
    the summed cumulative time of the outermost lines of the scipy tree.
    """
    out = dict.fromkeys(IMPORTS, 0.0)
    rows = []
    for line in text.splitlines():
        # "import time: self [us] | cumulative | <indent>imported package"; children precede parents
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            rows.append((name, len(parts[2]) - len(parts[2].lstrip()), int(parts[1]) / 1e6))
    for i, (name, depth, cumulative) in enumerate(rows):
        parent = next((n for n, d, _ in rows[i + 1 :] if d < depth), "")
        if name in out:
            out[name] = cumulative
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["scipy.stats"] += cumulative
    return out


def import_times() -> dict[str, float]:
    """Median over IMPORTTIME_SAMPLES interpreters of ``parse_importtime``."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import klconc.cli"],
            cwd=ROOT, env=child_env(), stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
            text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return {name: statistics.median(s[name] for s in samples) for name in IMPORTS}


def walls(children: list[dict], threads: int) -> list[float]:
    return [child["wall_s"] for child in children if child["threads"] == threads]


def end_to_end(children: list[dict], cores: int) -> dict[str, float]:
    return {
        "wall_s": statistics.median(walls(children, cores)),
        "wall_s.t1": statistics.median(walls(children, 1)),
        "setup_s": statistics.median(child["import_s"] for child in children),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
    }


def per_layer(children, traced_t1: dict, traced_all: dict, cores: int, imports) -> dict[str, float]:
    layers = traced_t1["layers"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0}
    trial_symbols = layers.get("harness.trial_loop", zero)["size"]
    metrics = {}
    for layer in LAYERS:
        row = layers.get("cli.main" if layer == "cli.self" else layer, zero)
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.us_per_call"] = 1e6 * row["self_s"] / row["calls"] if row["calls"] else 0.0
        if layer in PER_TRIAL_LAYERS:
            metrics[f"{layer}.ns_per_symbol"] = 1e9 * row["self_s"] / trial_symbols if trial_symbols else 0.0
    pairs = layers.get("sampling.coupled_pairs", zero)
    metrics["sampling.coupled_pairs.ns_per_draw"] = 1e9 * pairs["self_s"] / pairs["size"] if pairs["size"] else 0.0

    untraced = end_to_end(children, cores)
    metrics["harness.pool.speedup"] = untraced["wall_s.t1"] / untraced["wall_s"]
    loops = traced_all["layers"].get("harness.trial_loop", zero)["total_s"]
    busy = sum(traced_all["layers"].get(layer, zero)["total_s"] for layer in PER_TRIAL_LAYERS)
    metrics["harness.pool.busy_frac"] = busy / (cores * loops) if loops else 0.0

    metrics.update({f"import.{name}_s": value for name, value in imports.items()})
    traced_wall = traced_t1["wall_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced["wall_s.t1"] - 1.0
    # Self times sum to the cli.main spans, and so to the traced wall, by construction; what
    # the named layers leave unexplained is the self time of the two catch-all layers.
    catchall = metrics["cli.self.self_s"] + metrics["harness.api.self_s"]
    metrics["trace.catchall_frac"] = catchall / traced_wall
    return metrics


def environment(cores: int) -> dict:
    return {
        "nproc": cores,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    jobs = [list(job) + ["--seed", str(seed)] for job in workload.jobs]
    cores = nproc()
    gate = Gate()
    exact_mean = workload.exact_mean() if workload.exact_mean else None

    # A traced run spends half its time on untraced children, for the pool speedup and the
    # tracing overhead, and the rest on the traced children and the import-time samples.
    children = run_children(jobs, cores, seconds / 2 if trace else seconds)
    if trace:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{workload_name}-seed{seed}"
        traced_t1 = run_child(jobs, 1, Path(f"{stem}-t1.json"))
        traced_all = run_child(jobs, cores, Path(f"{stem}-nproc.json"))
        gate_children(gate, children + [traced_t1, traced_all], exact_mean)
        metrics = per_layer(children, traced_t1, traced_all, cores, import_times())
        units = {name: unit for name, unit, _ in per_layer_specs()}
        absent = traced_t1["absent"]
    else:
        gate_children(gate, children, exact_mean)
        metrics = end_to_end(children, cores)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        absent = []

    print(json.dumps({
        "workload": workload_name, "seed": seed, "trace": trace, "children": len(children),
        "env": environment(cores), "absent": absent, "failed_frac": gate.failed_frac,
        "misses": gate.misses[:20],
        "samples": {"all": walls(children, cores), "t1": walls(children, 1)},
        "setup_samples": [child["import_s"] for child in children],
    }))
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "klconc" / "cli.py").is_file():
        print(f"error: no klconc package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
