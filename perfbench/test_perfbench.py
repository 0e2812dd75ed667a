"""Tests of the benchmark itself: negative controls for the correctness
gate, the tracer, the import-time parser, and BENCHMARK.json's agreement
with what ``run.py`` prints.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

import run
from gate import Gate, check_job, exact_mean_add_one_kl
from tracer import Tracer


@pytest.fixture(scope="module")
def zipf_children():
    """Two real children of a small zipf simulate: one at nproc threads and one at one thread."""
    k, n = 200, 100
    jobs = [["simulate", "--dist", "zipf", "--k", str(k), "--n", str(n), "--reps", "3000",
             "--seed", "5", "--out", "-"]]
    children = [run.run_child(jobs, threads) for threads in (max(2, run.nproc()), 1)]
    assert [child["threads"] for child in children] == [max(2, run.nproc()), 1]
    return children, exact_mean_add_one_kl(run._zipf(k), n)


def _gate(children, exact_mean) -> Gate:
    gate = Gate()
    run.gate_children(gate, children, exact_mean)
    return gate


def test_gate_passes_real_output(zipf_children):
    children, exact = zipf_children
    gate = _gate(children, exact)
    assert gate.attempted >= 3
    assert gate.failed_frac == 0.0, gate.misses


def test_negative_control_shifted_oracle(zipf_children):
    children, exact = zipf_children
    row = children[1]["jobs"][0]["stdout"].splitlines()
    values = dict(zip(row[0].split(","), row[1].split(",")))
    se = float(values["std_kl"]) / math.sqrt(int(values["reps"]))
    gate = _gate(children, exact + 5 * se)
    assert gate.failed_frac > 0.0
    assert any("SE from exact" in miss for miss in gate.misses)


def test_negative_control_thread_mismatch(zipf_children):
    children, exact = zipf_children
    mismatched = copy.deepcopy(children)
    job = mismatched[1]["jobs"][0]
    job["stdout"] = job["stdout"].replace(",1,", ",1.0000000000000002,", 1)
    assert job["stdout"] != children[1]["jobs"][0]["stdout"]
    gate = _gate(mismatched, exact)
    assert gate.failed_frac > 0.0
    assert any("1 vs" in miss for miss in gate.misses)


def test_failed_claim_and_exit_code_are_counted():
    gate = Gate()
    check_job(gate, {"argv": ["check"], "code": 1,
                     "stdout": "== suite: x\nFAIL  claim: detail\n== verdict: FAIL\n"})
    assert gate.failed == 1
    check_job(gate, {"argv": ["check"], "code": 0,
                     "stdout": "== suite: x\nPASS  a\nFAIL  b\n== verdict: FAIL\n"})
    assert gate.failed == 3 and gate.attempted == 6


def test_exact_mean_matches_full_enumeration():
    p = np.array([0.5, 0.3, 0.2])
    n, k = 6, 3
    total = 0.0
    for c0, c1 in itertools.product(range(n + 1), repeat=2):
        if c0 + c1 > n:
            continue
        c = np.array([c0, c1, n - c0 - c1])
        prob = math.factorial(n) / np.prod([math.factorial(x) for x in c]) * np.prod(p**c)
        q = (c + 1) / (n + k)
        total += prob * float(np.sum(p * np.log(p / q)))
    assert exact_mean_add_one_kl(p, n) == pytest.approx(total, rel=1e-12)


def test_tracer_records_absent_names_without_raising():
    tracer = Tracer()
    tracer.patch("klconc_no_such_module", "f", "x")
    tracer.patch("json", "no_such_function", "x")
    assert tracer.absent == ["klconc_no_such_module.f", "json.no_such_function"]
    tracer.uninstall()


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 1
    assert layers["outer"]["total_s"] >= layers["inner"]["total_s"] + 0.01
    assert layers["outer"]["self_s"] == pytest.approx(
        layers["outer"]["total_s"] - layers["inner"]["total_s"], abs=1e-9)


def test_tracer_is_thread_safe():
    tracer = Tracer()
    counter = tracer.wrap("leaf", lambda x: x + 1, size=lambda args, kwargs: args[0])
    calls_per_thread, workers = 2000, 8

    def work():
        for _ in range(calls_per_thread):
            counter(1)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    leaf = tracer.layers()["leaf"]
    assert leaf["calls"] == workers * calls_per_thread
    assert leaf["size"] == workers * calls_per_thread
    assert len(tracer.threads()) == workers


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:       300 |        300 |         scipy._lib",
        "import time:       200 |        500 |       scipy",
        "import time:       400 |        400 |       scipy.stats._stats_py",
        "import time:        50 |       1050 |     klconc.bounds",
        "import time:        10 |         10 |     klconc.harness",
        "import time:         5 |       1065 |   klconc",
        "import time:         7 |       1072 | klconc.cli",
    ])
    out = run.parse_importtime(text)
    assert out["scipy.stats"] == pytest.approx(900e-6)
    assert out["klconc.bounds"] == pytest.approx(1050e-6)
    assert out["klconc.cli"] == pytest.approx(1072e-6)


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
