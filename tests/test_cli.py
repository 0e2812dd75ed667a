import math

import pytest

from klconc import harness
from klconc.cli import _suites, main


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


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

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"r{threads}.csv"
            assert run(
                "simulate", "--dist", "uniform", "--k", "8", "--n", "200", "--reps", "3000",
                "--seed", "11", "--threads", threads, "--out", str(out),
            ) == 0
            outs.append(read(out))
        assert outs[0] == outs[1] == outs[2]

    def test_tsv_format(self, tmp_path):
        out = tmp_path / "r.tsv"
        assert run("simulate", "--dist", "uniform", "--k", "2", "--n", "32", "--reps", "20",
                   "--seed", "1", "--format", "tsv", "--out", str(out)) == 0
        assert "\t" in out.read_text().splitlines()[0]


class TestBounds:
    def test_populated_row(self, capsys):
        assert run("bounds", "--k", "100", "--n", "1000000", "--delta", "0.1") == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        assert header == "kl_tail_bound,prior_tail_bound,variance_lb,heuristic_std,expectation_gap,clip_threshold"
        cells = row.split(",")
        assert all(c != "" for c in cells)
        assert float(cells[2]) == pytest.approx(100 / (32 * 1e12))

    def test_variance_floor_empty_outside_regime(self, capsys):
        assert run("bounds", "--k", "10", "--n", "50", "--delta", "0.1") == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert cells[2] == ""

    def test_minimal_inputs(self, capsys):
        # n=1: the prior bound needs log(n) > 0, so its column stays empty
        assert run("bounds", "--k", "1", "--n", "1", "--delta", "0.5") == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert cells[0] != "" and cells[1] == ""

    def test_bad_delta(self):
        assert run("bounds", "--k", "1", "--n", "10", "--delta", "1.5") == 2


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

    def test_svg_output(self, tmp_path):
        out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
        assert run("figure1", "--ks", "2,4,8", "--n", "128", "--reps", "60", "--seed", "2",
                   "--out", str(out), "--svg", str(svg)) == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert "sample std" in body


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
    (["coupling", "--n", "20", "--reps", "20000"], "n=20 p=", 3),
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
    ["marginals", "--reps", "1000"],  # the marginal GOF needs reps >= 1e5
    ["all", "--reps", "1000"],  # marginals is the fifth suite: nothing may run before it
])
def test_config_outside_a_claim_regime_is_usage_error(argv, capsys):
    assert run("check", "--suite", *argv, "--seed", "7") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def _shift_m(pairs):
    def shifted(rng, n, prob, size):
        m, *rest = pairs(rng, n, prob, size)
        return (m + 100 * n, *rest)

    return shifted


# Per suite: (klconc.harness name, replacement built from the original, check flags).
# Each replacement breaks the claim the suite checks, so the suite must FAIL.
_NEGATIVE_CONTROLS = {
    "variance": ("variance_lower_bound", lambda f: lambda k, n: 100 * f(k, n),
                 ["--k", "10", "--n", "100", "--reps", "2000"]),
    "thm": ("kl_deviation_bound", lambda f: lambda b: 0.0,
            ["--k", "10", "--n", "1000", "--reps", "1000"]),
    "poisson-tail": ("poisson_tail_radius", lambda f: lambda n_obs, delta: 0.0,
                     ["--lam", "5", "--delta", "0.3", "--reps", "20000"]),
    "coupling": ("coupled_pairs", _shift_m, ["--n", "20", "--prob", "0.4", "--reps", "20000"]),
    "marginals": ("GOF_P_THRESHOLD", lambda f: 1.01, ["--n", "20", "--prob", "0.4", "--reps", "100000"]),
    "expectation": ("_kl_loss_samples", lambda f: lambda *a: f(*a) + 1.0,
                    ["--n", "1000", "--reps", "1000"]),
    "facts": ("binomial_product_variance", lambda f: lambda n0: f(n0) + 1.0, []),
}


def test_every_suite_has_a_negative_control():
    assert set(_NEGATIVE_CONTROLS) == set(_suites())


@pytest.mark.parametrize("suite", list(_suites()))
def test_negative_control_fails(suite, monkeypatch, capsys):
    name, breaks, flags = _NEGATIVE_CONTROLS[suite]
    argv = ["check", "--suite", suite, *flags, "--seed", "7"]
    assert run(*argv) == 0  # the same run passes unbroken
    capsys.readouterr()
    monkeypatch.setattr(harness, name, breaks(getattr(harness, name)))
    assert run(*argv) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL  ") for line in out.splitlines())
    assert "== verdict: FAIL" in out


class TestPlot:
    def _figure_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run("figure1", "--ks", "2,4,8", "--n", "128", "--reps", "60", "--seed", "2",
                   "--out", str(out)) == 0
        return out

    def test_plot_from_csv(self, tmp_path):
        src = self._figure_csv(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["plot", "--in", str(src), "--x", "k", "--y", "sample_std,heuristic_std",
                "--logx", "--logy"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert read(a) == read(b)
        assert a.read_text().startswith("<svg")

    def test_missing_column_named(self, tmp_path, capsys):
        src = self._figure_csv(tmp_path)
        code = run("plot", "--in", str(src), "--x", "k", "--y", "nope",
                   "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_empty_csv_body(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("k,v\n")
        assert run("plot", "--in", str(empty), "--x", "k", "--y", "v",
                   "--out", str(tmp_path / "x.svg")) == 2


def test_no_subcommand_is_usage_error():
    assert run() == 2


_SUBCOMMANDS = {
    "simulate": ["simulate", "--dist", "uniform", "--k", "2", "--n", "10", "--reps", "5",
                 "--seed", "1", "--out", "-"],
    "figure1": ["figure1", "--ks", "2", "--n", "10", "--reps", "5", "--seed", "1", "--out", "-"],
    "check": ["check", "--suite", "variance", "--k", "2", "--n", "20", "--reps", "5", "--seed", "1"],
}
# valid command lines that the out-of-range cases append one flag to
_VALID = {
    **_SUBCOMMANDS,
    "bounds": ["bounds", "--k", "2", "--n", "10", "--delta", "0.1"],
    **{suite: ["check", "--suite", suite, "--reps", "5", "--seed", "1"]
       for suite in ("thm", "poisson-tail", "coupling", "expectation")},
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
    *[("poisson-tail", "--lam", value) for value in ("-1", "inf", "nan")],
    *[("coupling", "--prob", value) for value in ("0", "1.5", "nan")],
]


@pytest.mark.parametrize("command,flag,value", [
    pytest.param(command, flag, value, id=f"{flag}-{value}-{command}") for command, flag, value in _OUT_OF_RANGE
])
def test_out_of_range_count_or_seed_is_usage_error(command, flag, value, capsys):
    assert run(*_VALID[command], flag, value) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_threads_flag_is_accepted(command):
    assert run(*_SUBCOMMANDS[command], "--threads", "3") == 0


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
