import math
import pathlib
import shlex
import threading

import numpy as np
import pytest

from klconc import cli, harness
from klconc.cli import UsageError, _parse_dist, _suites, build_parser, main
from klconc.distributions import two_point_pmf, uniform_pmf, zipf_pmf
from klconc.harness import ClaimResult


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"


def assert_golden(name, data):
    """``data`` (bytes or str) is byte-identical to tests/golden/<name>, the output
    of the same command on the tree that wrote the file. A change that moves a
    stream on purpose rewrites the file with the new output."""
    if isinstance(data, str):
        data = data.encode()
    assert data == (GOLDEN / name).read_bytes(), f"output differs from tests/golden/{name}"


# simulate rows kept in tests/golden/: the symbol path, an all-inf row (t=0, k > n), a
# one-symbol alphabet, and a tsv row with t and the zipf exponent set
_GOLDEN_SIMULATE = {
    "simulate-zipf-symbols.csv": ["--dist", "zipf", "--k", "10000", "--n", "1000", "--reps", "1024",
                                  "--delta", "0.1", "--seed", "3"],
    "simulate-twopoint-inf.csv": ["--dist", "twopoint", "--k", "400", "--n", "100", "--reps", "3000",
                                  "--t", "0", "--seed", "3"],
    "simulate-uniform-k1.csv": ["--dist", "uniform", "--k", "1", "--n", "10", "--reps", "5", "--seed", "3"],
    "simulate-zipf-tsv.tsv": ["--dist", "zipf", "--k", "50", "--n", "300", "--reps", "5000", "--t", "0.5",
                              "--zipf-s", "1.3", "--format", "tsv", "--seed", "5"],
}


class _CountedThread(threading.Thread):
    """threading.Thread that records each instance made."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


@pytest.fixture
def started_threads(monkeypatch):
    """The worker threads the harness makes, on a host taken to have 4 usable
    cores (the cap and the --threads default), so that up to 4 workers run
    whatever the machine has."""
    for module in (harness, cli):
        monkeypatch.setattr(module, "_usable_cores", lambda: 4)
    monkeypatch.setattr(harness.threading, "Thread", _CountedThread)
    _CountedThread.made = []
    return _CountedThread.made


# Three whole trial blocks and five trials of a fourth.
_MULTI_BLOCK_REPS = str(3 * 2048 + 5)


class TestSimulate:
    def test_writes_csv_row(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(
            "simulate", "--dist", "uniform", "--k", "2", "--n", "512", "--reps", "300",
            "--seed", "42", "--out", str(out),
        )
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "k,n,reps,t,mean_kl,var_kl,std_kl,q50,q90,q99,exceed_frac,t_delta"
        cells = row.split(",")
        assert cells[0] == "2" and cells[1] == "512" and cells[2] == "300"
        assert float(cells[4]) > 0
        assert cells[10] == "" and cells[11] == ""  # no --delta given

    def test_one_trial_has_undefined_variance(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("simulate", "--dist", "uniform", "--k", "8", "--n", "500", "--reps", "1",
                   "--seed", "11", "--out", str(out)) == 0
        cells = out.read_text().strip().split("\n")[1].split(",")
        assert float(cells[4]) > 0
        assert cells[5] == "nan" and cells[6] == "nan"  # var_kl, std_kl

    def test_delta_fills_exceedance_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            "simulate", "--dist", "uniform", "--k", "4", "--n", "128", "--reps", "200",
            "--seed", "1", "--delta", "0.1", "--out", str(out),
        ) == 0
        cells = out.read_text().strip().split("\n")[1].split(",")
        assert cells[10] != "" and float(cells[11]) > 0

    def test_degenerate_alphabet_zero_loss(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(
            "simulate", "--dist", "uniform", "--k", "1", "--n", "10", "--reps", "10",
            "--seed", "1", "--out", str(out),
        ) == 0
        cells = out.read_text().strip().split("\n")[1].split(",")
        assert float(cells[4]) == 0.0

    def test_tiny_smoothing_on_the_symbol_path(self, capsys):
        # k > n takes the symbol path, where c/t overflows below t = n/DBL_MAX
        assert run("simulate", "--dist", "uniform", "--k", "100", "--n", "10", "--reps", "5",
                   "--seed", "1", "--t", "1e-320", "--out", "-") == 0
        out, err = capsys.readouterr()
        assert err == "" and math.isfinite(float(out.split("\n")[1].split(",")[4]))

    def test_missing_k_is_usage_error(self, tmp_path):
        code = run("simulate", "--dist", "uniform", "--n", "10", "--reps", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unknown_dist_is_usage_error(self, tmp_path):
        code = run("simulate", "--dist", "cauchy", "--k", "2", "--n", "10", "--reps", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unreadable_file_dist_is_runtime_error(self, tmp_path):
        code = run("simulate", "--dist", "file:" + str(tmp_path / "absent.txt"), "--n", "10",
                   "--reps", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_file_dist(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("0.9\n0.1\n")
        out = tmp_path / "r.csv"
        assert run("simulate", "--dist", f"file:{dist}", "--n", "64", "--reps", "50",
                   "--seed", "3", "--out", str(out)) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[0] == "2"

    def test_file_dist_ignores_blank_lines(self, tmp_path, capsys):
        rows = []
        for name, text in (("plain.txt", "0.2\n0.3\n0.5\n"), ("blanks.txt", "\n0.2\n\n  \n0.3\n\n0.5\n\n")):
            (tmp_path / name).write_text(text)
            assert run("simulate", "--dist", f"file:{tmp_path / name}", "--n", "64", "--reps", "50",
                       "--seed", "3", "--out", "-") == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("text", ["\n\n  \n", "0.5\nnan\n0.5\n"], ids=["only-blank-lines", "nan-weight"])
    def test_bad_file_dist_is_runtime_error(self, text, tmp_path, capsys):
        dist = tmp_path / "d.txt"
        dist.write_text(text)
        assert run("simulate", "--dist", f"file:{dist}", "--n", "10", "--reps", "5", "--seed", "1", "--out", "-") == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""], ids=["numpy", "bare"])
    def test_out_of_memory_is_runtime_error(self, message, monkeypatch, capsys):
        # stands in for uniform_pmf(10**12), so the test allocates nothing; the suites' small pmfs still build
        def out_of_memory(k):
            if k > 10**9:
                raise MemoryError(message)
            return uniform_pmf(k)

        monkeypatch.setattr(cli, "uniform_pmf", out_of_memory)
        assert run("simulate", "--dist", "uniform", "--k", "1000000000000", "--n", "1", "--reps", "1",
                   "--seed", "0", "--out", "-") == 1
        assert capsys.readouterr() == ("", f"error: {message or 'out of memory'}\n")

    def test_byte_identical_across_thread_counts(self, tmp_path, started_threads):
        # the count path, then the symbol path (4n <= k)
        for dist in (["uniform", "--k", "8", "--n", "200"], ["zipf", "--k", "1000", "--n", "100"]):
            outs = []
            for threads in ("1", "2", "4"):
                out = tmp_path / f"r{threads}.csv"
                assert run(
                    "simulate", "--dist", *dist, "--reps", _MULTI_BLOCK_REPS,
                    "--seed", "11", "--threads", threads, "--out", str(out),
                ) == 0
                outs.append(read(out))
            assert outs[0] == outs[1] == outs[2]
        assert len(started_threads) == 2 * (1 + 3)  # each path's blocks ran on 2 and on 4 workers

    def test_worker_count_is_capped(self, capsys, started_threads, monkeypatch):
        # one worker per usable core at most, the calling thread being one of them
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        argv = ["simulate", "--dist", "uniform", "--k", "8", "--n", "200", "--reps", _MULTI_BLOCK_REPS,
                "--seed", "11", "--out", "-"]
        assert run(*argv, "--threads", "100000") == 0
        assert len(started_threads) == 2
        out = capsys.readouterr().out
        assert run(*argv, "--threads", "1") == 0
        assert capsys.readouterr().out == out

    def test_tsv_format(self, tmp_path):
        out = tmp_path / "r.tsv"
        assert run("simulate", "--dist", "uniform", "--k", "2", "--n", "32", "--reps", "20",
                   "--seed", "1", "--format", "tsv", "--out", str(out)) == 0
        assert "\t" in out.read_text().splitlines()[0]

    @pytest.mark.parametrize("name", list(_GOLDEN_SIMULATE))
    def test_rows_match_golden(self, name, capsys):
        assert run("simulate", *_GOLDEN_SIMULATE[name], "--out", "-") == 0
        assert_golden(name, capsys.readouterr().out)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k,s", [(5, "-1000"), (10000, "-80")])
    def test_negative_zipf_exponent_runs(self, k, s, capsys):
        assert run("simulate", "--dist", "zipf", "--k", str(k), "--zipf-s", s, "--n", "100", "--reps", "50",
                   "--seed", "1", "--out", "-") == 0
        assert capsys.readouterr().err == ""

    def test_largest_finite_denominator_runs(self, capsys):
        # n + k*t = 10 + 2e307 is finite; 1e308 overflows it (an out-of-range case below)
        assert run("simulate", "--dist", "uniform", "--k", "2", "--n", "10", "--reps", "5",
                   "--seed", "1", "--t", "1e307", "--out", "-") == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[3]) == 1e307


def _dist(*flags):
    args = build_parser().parse_args(["simulate", *flags, "--n", "1", "--reps", "1", "--seed", "0", "--out", "-"])
    return _parse_dist(args)


class TestParseDist:
    def test_kinds(self):
        assert _dist("--dist", "uniform", "--k", "4").probs.tolist() == [0.25] * 4
        np.testing.assert_array_equal(_dist("--dist", "zipf", "--k", "3", "--zipf-s", "1.5").probs,
                                      zipf_pmf(3, 1.5).probs)
        np.testing.assert_array_equal(_dist("--dist", "twopoint", "--k", "10").probs, two_point_pmf(10, 0.99).probs)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0.25\n0.75\n")
        np.testing.assert_allclose(_dist("--dist", f"file:{path}").probs, [0.25, 0.75])

    @pytest.mark.parametrize("flags", [("--dist", "gaussian", "--k", "3"), ("--dist", "uniform"),
                                       ("--dist", "file"), ("--dist", "file:")],
                             ids=["unknown", "no-k", "file", "file-empty"])
    def test_validation(self, flags):
        with pytest.raises(UsageError):
            _dist(*flags)


class TestBounds:
    def test_populated_row(self, capsys):
        assert run("bounds", "--k", "100", "--n", "1000000", "--delta", "0.1") == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        assert header == "kl_tail_bound,prior_tail_bound,variance_lb,heuristic_std,expectation_gap,clip_threshold"
        cells = row.split(",")
        assert all(c != "" for c in cells)
        assert float(cells[2]) == pytest.approx(100 / (32 * 1e12))

    def test_variance_floor_empty_outside_regime(self, capsys):
        # n < 10k; and k = 1, where the loss is identically 0
        for k, n in (("10", "50"), ("1", "100")):
            assert run("bounds", "--k", k, "--n", n, "--delta", "0.1") == 0
            cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
            assert cells[2] == ""

    def test_minimal_inputs(self, capsys):
        # n=1: the prior bound needs log(n) > 0, so its column stays empty
        assert run("bounds", "--k", "1", "--n", "1", "--delta", "0.5") == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert cells[0] != "" and cells[1] == ""

    def test_bad_delta(self):
        assert run("bounds", "--k", "1", "--n", "10", "--delta", "1.5") == 2

    def test_out_defaults_to_stdout(self, capsys, tmp_path):
        # no --out, --out - and --out FILE write the same bytes
        args = ("bounds", "--k", "100", "--n", "1000000", "--delta", "0.1")
        assert run(*args) == 0
        default = capsys.readouterr().out
        assert run(*args, "--out", "-") == 0
        assert capsys.readouterr().out == default
        assert run(*args, "--out", str(tmp_path / "b.csv")) == 0
        assert capsys.readouterr().out == ""
        assert read(tmp_path / "b.csv") == default.encode()


class TestFigure1:
    def test_rows_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["figure1", "--ks", "2,4", "--n", "256", "--reps", "100", "--seed", "5"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert read(a) == read(b)
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "k,sample_std,heuristic_std,ratio"
        assert len(lines) == 3

    def test_degenerate_k_blank_ratio(self, tmp_path):
        out = tmp_path / "k1.csv"
        assert run("figure1", "--ks", "1", "--n", "64", "--reps", "50", "--seed", "1",
                   "--out", str(out)) == 0
        cells = out.read_text().strip().split("\n")[1].split(",")
        assert cells[1] == "0" and cells[3] == ""

    def test_empty_ks_usage_error(self, tmp_path):
        assert run("figure1", "--ks", "", "--out", str(tmp_path / "x.csv")) == 2

    def test_byte_identical_across_thread_counts(self, capsys, started_threads):
        outs = []
        for threads in ("1", "2", "4"):
            assert run("figure1", "--ks", "2,8", "--n", "64", "--reps", _MULTI_BLOCK_REPS, "--seed", "5",
                       "--out", "-", "--threads", threads) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert len(started_threads) == 2 * (1 + 3)  # each row's blocks ran on 2 and on 4 workers

    def test_svg_output(self, tmp_path):
        out, a, b = tmp_path / "f.csv", tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["figure1", "--ks", "1,2,4", "--n", "128", "--reps", "60", "--seed", "2",
                "--out", str(out)]
        assert run(*args, "--svg", str(a)) == 0
        assert run(*args, "--svg", str(b)) == 0
        assert read(a) == read(b)
        body = a.read_text()
        assert body.startswith("<svg")
        assert "sample std" in body
        assert "sqrt((k-1)/2)/n" in body
        # at k=1 the sample std and sqrt((k-1)/2)/n are 0: off the log axes, so 3 + 2 + 2 markers
        assert body.count("<circle") == 7
        assert_golden("figure1.csv", read(out))
        assert_golden("figure1.svg", read(a))


class TestCheck:
    def test_facts_suite_passes(self, capsys):
        assert run("check", "--suite", "facts") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out.replace("PASS", "")

    def test_unknown_suite(self):
        assert run("check", "--suite", "bogus") == 2

    def test_variance_suite_with_overrides(self, capsys):
        assert run("check", "--suite", "variance", "--k", "2", "--n", "64",
                   "--reps", "2000", "--seed", "7") == 0
        assert "variance" in capsys.readouterr().out

    def test_poisson_tail_with_overrides(self, capsys):
        assert run("check", "--suite", "poisson-tail", "--lam", "5", "--delta", "0.3",
                   "--reps", "20000", "--seed", "7") == 0
        assert len(_claim_lines(capsys.readouterr().out)) == 1

    def test_poisson_tail_lines_match_one_run_per_delta(self, capsys):
        # a default config checks its three deltas on one sample of draws
        assert run("check", "--suite", "poisson-tail", "--lam", "2", "--reps", "20000", "--seed", "7") == 0
        grouped = _claim_lines(capsys.readouterr().out)
        single = []
        for delta in ("0.05", "0.1", "0.5"):
            assert run("check", "--suite", "poisson-tail", "--lam", "2", "--delta", delta,
                       "--reps", "20000", "--seed", "7") == 0
            single += _claim_lines(capsys.readouterr().out)
        assert grouped == single
        assert len(grouped) == 3

    def test_variance_suite_fails_against_inflated_floor(self, monkeypatch, capsys):
        # negative control: a floor 100x the true one must turn the verdict to FAIL
        floor = harness.variance_lower_bound
        monkeypatch.setattr(harness, "variance_lower_bound", lambda k, n: 100 * floor(k, n))
        assert run("check", "--suite", "variance", "--k", "10", "--n", "100",
                   "--reps", "2000", "--seed", "7") == 1
        out = capsys.readouterr().out
        assert "FAIL  variance" in out
        assert "== verdict: FAIL" in out


def _claim_lines(out):
    return [line for line in out.splitlines() if line.startswith(("PASS  ", "FAIL  "))]


@pytest.mark.parametrize("argv,shown,lines", [
    (["thm", "--k", "10", "--n", "1000", "--reps", "500"], "k=10 n=1000 delta=", 2),
    (["poisson-tail", "--lam", "5", "--reps", "20000"], "lam=5 delta=", 3),
    (["expectation", "--n", "50", "--reps", "500"], " n=50 ", 3),
    (["coupling", "--n", "20", "--reps", "100000"], "n=20 p=", 6),  # a gap and a marginals line each
])
def test_override_replaces_field_in_every_default_config(argv, shown, lines, capsys):
    # the other fields keep their defaults, and configs the override made equal run once
    assert run("check", "--suite", *argv, "--seed", "7") == 0
    claims = _claim_lines(capsys.readouterr().out)
    assert len(claims) == lines
    assert all(shown in line for line in claims)


@pytest.mark.parametrize("argv", [["facts", "--k", "5"], ["poisson-tail", "--prob", "0.5"],
                                  ["expectation", "--delta", "0.2"]])
def test_field_flag_that_no_selected_suite_has_is_usage_error(argv, capsys):
    assert run("check", "--suite", *argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["variance", "--k", "5", "--reps", "100"],  # k=5 in the default n=20 config: n < 10k
    ["coupling", "--reps", "1000"],  # the marginal GOF needs reps >= 1e5
    ["marginals", "--reps", "1000"],  # the same suite under its second name
    ["all", "--reps", "1000"],  # coupling is the fourth suite: nothing may run before it
    ["variance", "--k", "1", "--n", "100", "--reps", "1000"],  # k=1: the loss is identically 0
    ["variance", "--reps", "1"],  # one loss has no sample variance
    ["coupling", "--reps", "1"],  # nor one gap a standard error (and the GOF needs 1e5)
    ["expectation", "--reps", "1"],  # nor one loss a standard error
])
def test_config_outside_a_claim_regime_is_usage_error(argv, capsys):
    assert run("check", "--suite", *argv, "--seed", "7") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def _shift_m(pairs):
    def shifted(rng, n, prob, size):
        for m, *rest in pairs(rng, n, prob, size):
            yield (m + 100 * n, *rest)

    return shifted


_COUPLING_FLAGS = ["--n", "20", "--prob", "0.4", "--reps", "100000"]

# Per suite, one control per claim: (klconc.harness name, replacement built from the
# original, check flags, start (or starts) of the claim lines it breaks). Each replacement
# breaks its claims only, so their lines must FAIL, every other line PASS, and the verdict FAIL.
_NEGATIVE_CONTROLS = {
    "variance": [("variance_lower_bound", lambda f: lambda k, n: 100 * f(k, n),
                  ["--k", "10", "--n", "100", "--reps", "2000"], "variance of add-one KL loss")],
    "thm": [("kl_deviation_bound", lambda f: lambda k, n, delta: 0.0,
             ["--k", "10", "--n", "1000", "--reps", "1000"], "KL loss exceeds")],
    "poisson-tail": [("poisson_tail_radius", lambda f: lambda n_obs, delta: 0.0,
                      ["--lam", "5", "--delta", "0.3", "--reps", "20000"], "|N+1-lam|")],
    # shifting M moves its marginal too, so this control fails both coupling lines
    "coupling": [("coupled_pairs", _shift_m, _COUPLING_FLAGS, ("coupling gap", "coupling marginals")),
                 ("GOF_P_THRESHOLD", lambda f: 1.01, _COUPLING_FLAGS, "coupling marginals")],
    "expectation": [("_kl_loss_samples", lambda f: lambda *a, **kw: f(*a, **kw) + 1.0,
                     ["--n", "1000", "--reps", "1000"], "mean add-one KL loss")],
    "facts": [("binomial_inverse_moment", lambda f: lambda m, p: f(m, p) * (1 + 1e-9), [], "binomial inverse moment"),
              ("binomial_inverse_moment2_bound", lambda f: lambda m, p: 0.5 * f(m, p), [], "second inverse moment"),
              ("poisson_pmf_at_mean", lambda f: lambda n: 0.8 * f(n), [], "Pr[Poi(n) = n]"),
              ("binomial_product_variance", lambda f: lambda n0: f(n0) + 1.0, [], "Var(X(n0-X))"),
              ("_monotone_variance_instance", lambda f: lambda a, b: (f(a, b)[0], 100 * f(a, b)[1]), [],
               "Var(f(X))")],
}


@pytest.mark.parametrize("suite", ["thm", "poisson-tail"])
def test_one_trial_is_enough_where_no_variance_is_judged(suite, capsys):
    assert run("check", "--suite", suite, "--reps", "1", "--seed", "7") == 0
    assert "== verdict: PASS" in capsys.readouterr().out


# Per suite, reps small enough for a quick run (the coupling GOF needs 1e5); facts takes no reps.
_SMALL_REPS = {"variance": ["--reps", "2000"], "thm": ["--reps", "2000"], "poisson-tail": ["--reps", "20000"],
               "coupling": ["--reps", "100000"], "expectation": ["--reps", "2000"], "facts": []}


@pytest.mark.parametrize("suite", list(_suites()))
def test_check_byte_identical_across_thread_counts(suite, capsys):
    outs = []
    for threads in ("1", "2", "4"):
        assert run("check", "--suite", suite, *_SMALL_REPS[suite], "--seed", "7", "--threads", threads) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].count("== suite: ") == 1
    assert_golden(f"check-{suite}.txt", outs[0])


# Per suite, reps of at least three blocks (trials) or three chunks (draws) and a fourth, partial one.
_MULTI_BLOCK = {"variance": _MULTI_BLOCK_REPS, "thm": _MULTI_BLOCK_REPS, "expectation": _MULTI_BLOCK_REPS,
                "poisson-tail": str(3 * 2**16 + 5)}


@pytest.mark.parametrize("suite", list(_MULTI_BLOCK))
def test_multi_block_check_byte_identical_across_thread_counts(suite, capsys, started_threads):
    outs = []
    for threads in ("1", "2", "4"):
        assert run("check", "--suite", suite, "--reps", _MULTI_BLOCK[suite], "--seed", "7", "--threads", threads) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert started_threads  # the blocks or chunks did run on worker threads


def test_check_leaves_no_thread_behind(capsys, started_threads):
    before = threading.active_count()
    assert run("check", "--suite", "variance", "--reps", _MULTI_BLOCK_REPS, "--seed", "7", "--threads", "2") == 0
    assert len(started_threads) == 3  # one a config
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in started_threads)


def test_marginals_is_a_second_name_for_coupling(capsys):
    assert run("check", "--suite", "marginals", *_SMALL_REPS["coupling"], "--seed", "7") == 0
    assert_golden("check-coupling.txt", capsys.readouterr().out)


def test_check_all_draws_the_coupled_pairs_once_per_config(monkeypatch, capsys):
    # the gap and the marginals lines of a config come from one pass over its draws,
    # asked for in chunks of at most 2^16 and drawn in slices of at most _CHUNK_CELLS
    sizes, drawn = {}, {}
    pairs = harness.coupled_pairs

    def counted(rng, n, prob, size):
        sizes.setdefault((n, prob), []).append(size)
        for pair_slice in pairs(rng, n, prob, size):
            drawn.setdefault((n, prob), []).append(pair_slice[0].size)
            yield pair_slice

    monkeypatch.setattr(harness, "coupled_pairs", counted)
    assert run("check", "--suite", "all", "--reps", "100000", "--seed", "7") == 0
    assert sorted(sizes) == sorted(drawn) == sorted(_suites()["coupling"].configs)
    assert all(sum(chunks) == 100_000 and max(chunks) <= 2**16 for chunks in sizes.values())
    assert all(sum(slices) == 100_000 and max(slices) <= harness._CHUNK_CELLS for slices in drawn.values())
    # one header per suite in _suites() order, each claim line under its own suite's
    # header (told by its template's text before the first field; facts' is empty),
    # and one verdict line at the end
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("== ")] == [
        *(f"== suite: {name}" for name in _suites()), "== verdict: PASS"]
    assert lines[-1] == "== verdict: PASS"
    owners = {template.split("{")[0]: name for name, suite in _suites().items()
              for template in (suite.line if isinstance(suite.line, tuple) else (suite.line,))}
    header = None
    for line in lines[:-1]:
        if line.startswith("== suite: "):
            header = line.removeprefix("== suite: ")
            continue
        verdict, claim = line.split("  ", 1)
        assert verdict == "PASS"
        assert owners[max((p for p in owners if claim.startswith(p)), key=len)] == header


def test_expectation_labels_name_their_pmfs(monkeypatch, capsys):
    seen = []

    def record(pmf, n, reps, seed, **_):
        seen.append(pmf.probs.tolist())
        return ClaimResult(True, {"mean_kl": 0.0, "ceiling": 0.0, "slack": 0.0})

    monkeypatch.setattr(cli, "expected_kl_check", record)
    assert run("check", "--suite", "expectation", "--reps", "2", "--seed", "7", "--threads", "1") == 0
    assert seen == [p.probs.tolist() for p in (uniform_pmf(10), zipf_pmf(10, 1.0), two_point_pmf(10, 0.99))]
    labels = [line.split(": ")[1].split(" ")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("PASS")]
    assert labels == ["uniform(10)", "zipf(10,1)", "twopoint(10,0.99)"]


def test_every_suite_has_a_negative_control():
    assert set(_NEGATIVE_CONTROLS) == set(_suites())


@pytest.mark.parametrize("suite,control", [
    pytest.param(suite, control, id=f"{suite}-{control[0]}")
    for suite, controls in _NEGATIVE_CONTROLS.items() for control in controls
])
def test_negative_control_fails(suite, control, monkeypatch, capsys):
    name, breaks, flags, claim = control
    argv = ["check", "--suite", suite, *flags, "--seed", "7"]
    assert run(*argv) == 0  # the same run passes unbroken
    before = _claim_lines(capsys.readouterr().out)
    assert any(line[6:].startswith(claim) for line in before)  # the control names a line the run prints
    monkeypatch.setattr(harness, name, breaks(getattr(harness, name)))
    assert run(*argv) == 1
    out = capsys.readouterr().out
    after = _claim_lines(out)
    assert len(after) == len(before) and "== verdict: FAIL" in out
    for was, now in zip(before, after):  # its own lines FAIL, every other line still PASSes
        assert now.startswith("FAIL  " if was[6:].startswith(claim) else "PASS  ")


def test_no_subcommand_is_usage_error():
    assert run() == 2


def test_subcommands_are_the_documented_four():
    assert "{simulate,bounds,figure1,check}" in build_parser().format_usage()


_SUBCOMMANDS = {
    "simulate": ["simulate", "--dist", "uniform", "--k", "2", "--n", "10", "--reps", "5",
                 "--seed", "1", "--out", "-"],
    "figure1": ["figure1", "--ks", "2", "--n", "10", "--reps", "5", "--seed", "1", "--out", "-"],
    "check": ["check", "--suite", "variance", "--k", "2", "--n", "20", "--reps", "5", "--seed", "1"],
}
# valid command lines that the out-of-range cases append one flag to
_VALID = {
    **_SUBCOMMANDS,
    "simulate-zipf": ["simulate", "--dist", "zipf", "--k", "2", "--n", "10", "--reps", "5",
                      "--seed", "1", "--out", "-"],
    "simulate-twopoint": ["simulate", "--dist", "twopoint", "--k", "2", "--n", "10", "--reps", "5",
                          "--seed", "1", "--out", "-"],
    "bounds": ["bounds", "--k", "2", "--n", "10", "--delta", "0.1"],
    **{suite: ["check", "--suite", suite, "--reps", "5", "--seed", "1"]
       for suite in ("thm", "poisson-tail", "expectation")},
    "coupling": ["check", "--suite", "coupling", "--reps", "100000", "--seed", "1"],
}
_OUT_OF_RANGE = [
    *[(command, flag, value) for flag, value in (("--reps", "0"), ("--reps", "-3"),
                                                 ("--reps", str(harness.MAX_STORED_TRIALS + 1)), ("--threads", "0"),
                                                 ("--seed", "-1"), ("--seed", str(2**64)))
      for command in sorted(_SUBCOMMANDS)],
    ("thm", "--reps", "20000000"),
    *[(command, "--n", value) for command in ("simulate", "figure1", "check", "bounds", "thm",
                                              "coupling", "expectation") for value in ("0", "-2")],
    *[(command, "--k", "0") for command in ("simulate", "check", "bounds", "thm")],
    *[(command, "--delta", value) for command in ("simulate", "bounds", "thm", "poisson-tail")
      for value in ("0", "1", "nan")],
    *[("poisson-tail", "--lam", value) for value in ("-1", "inf", "nan", "1e20")],
    *[("coupling", "--prob", value) for value in ("0", "1.5", "nan")],
    *[("simulate", "--t", value) for value in ("-1", "inf", "nan")],
    *[("simulate", "--mass", value) for value in ("-0.5", "1.5", "nan")],
    *[("simulate-zipf", "--zipf-s", value) for value in ("inf", "nan")],
    ("simulate-twopoint", "--k", "1"),
    ("simulate", "--dist", "file:"),
    ("simulate", "--t", "1e308"),  # n + k*t overflows
    *[("figure1", "--ks", value) for value in ("0", "2,x")],
    # above numpy's largest Poisson rate, which also bounds --n
    *[(command, "--n", str(2**63)) for command in ("simulate", "thm")],
    ("coupling", "--n", str(10**20)),
    # the marginal GOF's windows grow like sqrt(n), so --n is capped at 2^24
    *[("coupling", "--n", value) for value in (str(2**24 + 1), "9000000000000000000")],
]


@pytest.mark.parametrize("command", sorted(_VALID))
def test_valid_base_command_line_runs(command):
    # an out-of-range case below proves nothing unless its base line alone exits 0
    assert run(*_VALID[command]) == 0


@pytest.mark.parametrize("command,flag,value", [
    pytest.param(command, flag, value, id=f"{flag}-{value}-{command}") for command, flag, value in _OUT_OF_RANGE
])
def test_out_of_range_count_or_seed_is_usage_error(command, flag, value, capsys):
    assert run(*_VALID[command], flag, value) == 2
    assert capsys.readouterr().out == ""


def test_rate_bound_is_numpys_largest_poisson_rate():
    rng = np.random.default_rng(0)
    assert rng.poisson(harness._MAX_RATE) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(harness._MAX_RATE, np.inf))


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_threads_flag_is_accepted(command, capsys):
    assert run(*_SUBCOMMANDS[command], "--threads", "3") == 0
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert " ".join(cli._THREADS_HELP.split()) in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("cores,reps,started", [(3, _MULTI_BLOCK_REPS, 2), (8, str(2048 + 1), 1)],
                         ids=["capped-at-cores", "capped-at-blocks"])
def test_threads_default_to_the_usable_cores(command, cores, reps, started, capsys, started_threads, monkeypatch):
    # with --threads omitted, the one config or row runs on min(usable cores, blocks) workers
    for module in (harness, cli):
        monkeypatch.setattr(module, "_usable_cores", lambda: cores)
    argv = list(_SUBCOMMANDS[command])
    argv[argv.index("--reps") + 1] = reps
    assert run(*argv) == 0
    assert len(started_threads) == started


def test_csv_floats_roundtrip(tmp_path):
    # 17 significant digits: parsing the CSV back reproduces the doubles exactly
    out = tmp_path / "r.csv"
    assert run("simulate", "--dist", "uniform", "--k", "3", "--n", "100", "--reps", "100",
               "--seed", "13", "--out", str(out)) == 0
    cells = out.read_text().strip().split("\n")[1].split(",")
    mean = float(cells[4])
    var = float(cells[5])
    assert f"{mean:.17g}" == cells[4]
    assert math.sqrt(var) == pytest.approx(float(cells[6]), abs=0)


def test_readme_cli_examples_parse():
    # every command line of the sh block under "## CLI" parses (none is run)
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("```sh", lines.index("## CLI")) + 1
    examples = [shlex.split(line) for line in lines[start:lines.index("```", start)]
                if line.strip() and not line.startswith("#")]
    assert examples and all(argv[0] == "klconc" for argv in examples)
    for argv in examples:
        build_parser().parse_args(argv[1:])


def test_readme_suite_table_matches_the_suites():
    # the `| suite | fields | notes |` table names the suites in `check`'s order, each
    # with its config fields in order ("none" for none) and its second names in its notes
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| suite | fields | notes |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [(suite, fields) for suite, fields, _ in rows] == [
        (f"`{name}`", ", ".join(f"`{field}`" for field in suite.fields) or "none")
        for name, suite in _suites().items()]
    notes = {suite: notes for suite, _, notes in rows}
    for alias, name in cli._ALIASES.items():
        assert f"`{alias}`" in notes[f"`{name}`"]
