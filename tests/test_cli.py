"""End-to-end tests of the command-line interface."""

import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import mealygrowth
from mealygrowth import I2, MealyAutomaton, format_automaton, rewrite, series, tables
from mealygrowth.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrowth:
    def test_growth_csv(self, capsys):
        code, out, _ = run(capsys, "growth", "--N", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,delta,gamma,gamma_ball,q")
        gammas = [int(line.split(",")[2]) for line in lines[1:]]
        assert gammas == [2, 4, 6, 9, 13]

    def test_growth_json_single_row(self, capsys):
        code, out, _ = run(capsys, "growth", "--N", "1", "--format", "json")
        assert code == 0
        row = json.loads(out.strip())
        assert row["n"] == 1
        assert row["gamma_ball"] == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_no_rows_print_nothing(self, capsys, fmt, oracle):
        # the CSV header goes out with the first row, so no row means no header
        assert run(capsys, "growth", "--N", "0", "--format", fmt, *oracle) == (0, "", "")

    def test_csv_header_goes_with_the_first_row(self, capsys):
        code, out, _ = run(capsys, "growth", "--N", "1")
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,delta,gamma,gamma_ball,q,delta_ratio,gamma_ratio,ball_ratio"
        assert row.startswith("1,2,2,3,1,")

    def test_growth_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "growth", "--N", "30", "--oracle", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["n"] for row in rows] == list(range(1, 31))
        for row in rows:
            assert row["oracle_gamma"] == row["gamma"]
            assert row["oracle_ball"] == row["gamma_ball"]

    def test_ratios_match_the_float_qform(self, capsys):
        # the exact-int ratios agree with x / (C n float(q(n))) while q(n) is a double
        code, out, _ = run(capsys, "growth", "--N", "2000", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        q = series.odd_distinct_partitions(2000)
        for n in (1, 3, 50, 1000, 2000):
            row = json.loads(lines[n - 1])
            qf = float(q[n])
            assert row["n"] == n
            assert row["delta_ratio"] == pytest.approx(
                row["delta"] / (series.WORD_QFORM * math.sqrt(n) * qf), abs=1e-6)
            assert row["gamma_ratio"] == pytest.approx(
                row["gamma"] / (series.AUTOMATON_QFORM * n * qf), abs=1e-6)
            assert row["ball_ratio"] == pytest.approx(
                row["gamma_ball"] / (series.BALL_QFORM * n * qf), abs=1e-6)

    def test_ratios_past_the_double_range(self, capsys, monkeypatch):
        # q(n) passes 1.8e308 near n = 305,000; float(q(n)) would overflow there
        big = 10**400
        monkeypatch.setattr(series, "growth_series", lambda N: (
            [big + n for n in range(N + 1)],
            (tuple(f * big + n for f in (3, 5, 10)) for n in range(N + 1))))
        code, out, err = run(capsys, "growth", "--N", "3", "--format", "json")
        assert (code, err) == (0, "")
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["n"] for row in rows] == [1, 2, 3]
        for row in rows:
            n = row["n"]
            assert row["delta_ratio"] == pytest.approx(3 / (series.WORD_QFORM * math.sqrt(n)))
            assert row["gamma_ratio"] == pytest.approx(5 / (series.AUTOMATON_QFORM * n))
            assert row["ball_ratio"] == pytest.approx(10 / (series.BALL_QFORM * n))


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def test_growth_streams_its_rows(monkeypatch):
    # a memory guard, not a timing gate: the command's peak against its peak
    # once q is computed and every row checked, before any output.
    # Holding N row dicts before printing peaked at 1.95x; streaming peaks at 1.0x
    growth_series = series.growth_series
    series_peaks = []

    def traced_series(N):
        out = growth_series(N)
        series_peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(series, "growth_series", traced_series)
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["growth", "--N", "20000", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - before < 1.5 * (series_peaks[-1] - before)


def test_growth_keeps_no_memory(monkeypatch):
    # every list the command builds is dropped on return: no series cache
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["growth", "--N", "20000"])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert kept < 1_000_000


# Run under ``python -O``: the route check must not be an assert.  argv[1]
# names the series whose row at n = 20 the derivation gets wrong.
_FORCED_DISAGREEMENT = """
import sys
from mealygrowth import VerificationError, cli, series

derive = series._derive_rows
column = ("Delta", "Gamma", "Gamma_S").index(sys.argv[1])

def off_by_one(q):
    for n, row in enumerate(derive(q)):
        yield tuple(c + (n == 20 and i == column) for i, c in enumerate(row))

series._derive_rows = off_by_one
try:
    series.automaton_growth_coeffs(20)
except VerificationError as exc:
    print("raised:", exc)
sys.exit(cli.main(["growth", "--N", "20"]))
"""


@pytest.mark.parametrize("name", ["Delta", "Gamma", "Gamma_S"])
def test_route_disagreement_fails_under_optimize(name):
    src = Path(mealygrowth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_DISAGREEMENT, name],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stdout == f"raised: {name}: series route disagrees with the closed form at n=20\n"
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {name}: series route disagrees with the closed form at n=20"
    ]


# Run under ``python -O``: the eta-quotient check on q must not be an assert.
_WRONG_Q = """
import sys
from mealygrowth import cli, series

durfee = series._durfee_sum

def off_by_one(N):
    q = durfee(N)
    q[-1] += 1
    return q

series._durfee_sum = off_by_one
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [["growth", "--N", "20"], ["verify", "series", "--N", "20"]])
def test_wrong_q_fails_under_optimize(argv):
    src = Path(mealygrowth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_Q, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "error: q: Durfee sum fails the eta-quotient identity at n=20"
    ]


class TestWordCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "111")
        assert (code, out.strip()) == (0, "1")

    def test_reduce_longer(self, capsys):
        code, out, _ = run(capsys, "reduce", "1011011")
        assert (code, out.strip()) == (0, "10110")

    def test_reduce_parse_error(self, capsys):
        code, _, err = run(capsys, "reduce", "10a")
        assert code == 2
        assert "position" in err

    def test_equal(self, capsys):
        assert run(capsys, "equal", "001", "1")[1].strip() == "true"
        assert run(capsys, "equal", "01", "10")[1].strip() == "false"

    @pytest.mark.parametrize("exc,line", [
        (MemoryError(), "error: MemoryError"),
        (OverflowError("int too large to convert to float"),
         "error: OverflowError: int too large to convert to float"),
    ])
    def test_resource_errors_exit_2(self, capsys, monkeypatch, exc, line):
        def fail(word):
            raise exc

        monkeypatch.setattr(rewrite, "reduce_detailed", fail)
        code, out, err = run(capsys, "reduce", "1011011")
        assert (code, out) == (2, "")
        assert err.splitlines() == [line]

    def test_equal_in_quotient(self, capsys):
        # f1(f0f1)^2 is a left zero at level 3 but not in the full monoid
        assert run(capsys, "equal", "101010", "10101", "--n", "3")[1].strip() == "true"
        assert run(capsys, "equal", "101010", "10101")[1].strip() == "false"


class TestQuotient:
    def test_order_and_hausdorff(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "3", "--format", "json")
        assert code == 0
        row = json.loads(out.strip().splitlines()[0])
        assert row["order"] == 42
        assert row["match"] is True
        assert abs(row["hausdorff_term"] - 0.385) < 1e-3

    def test_depth_detail(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "2", "--depth", "4",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()[1:]]
        assert rows[0] == {"level": 2, "depth": 0, "ball": 1, "sphere": 1, "new": 1}
        assert all(r["sphere"] <= r["ball"] for r in rows)

    def test_depth_detail_is_one_bfs(self, capsys, monkeypatch):
        # the order and the depth rows come from one BFS; its first depth+1
        # rows are those of a BFS cut at that depth
        calls = []
        enumerate_real = tables.enumerate_monoid

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return enumerate_real(*args, **kwargs)

        monkeypatch.setattr(tables, "enumerate_monoid", counting)
        code, out, _ = run(capsys, "quotient", "--n", "9", "--depth", "30")
        assert (code, len(calls)) == (0, 1)
        cut = enumerate_real(I2, 9, max_depth=30)
        rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[3:]]
        assert rows == [(9, d, *r) for d, r in enumerate(
            zip(cut.cumulative, cut.sphere_sizes, cut.layer_sizes))]

    def test_level_13_fits_in_1_gib(self):
        # 204,802 elements; under the cap, a representation that does not
        # fit ends as a MemoryError (exit 2) instead of swapping or an OOM kill
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(mealygrowth.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "mealygrowth.cli", "quotient", "--n", "13"],
            capture_output=True, text=True, env=env, timeout=300,
            preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1].startswith("13,204802,204802,True,")


class TestVerify:
    @pytest.mark.parametrize("suite,extra", [
        ("relations", ["--pmax", "3", "--level", "8", "--nmax", "4"]),
        ("series", ["--N", "300"]),
        ("oracle", ["--nmax", "5"]),
        ("width", ["--count", "300"]),
    ])
    def test_suites_pass(self, capsys, suite, extra):
        code, out, err = run(capsys, "verify", suite, *extra)
        assert code == 0
        assert all(json.loads(line)["pass"] for line in out.strip().splitlines())
        assert "pass" in err

    def test_oracle_reaches_30(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--nmax", "30")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"check": f"oracle agreement at n={n}", "pass": True} for n in range(1, 31)
        ]

    def test_relations_at_the_level_bound(self, capsys):
        level = str(tables.MAX_LEVEL)
        code, _, err = run(capsys, "verify", "relations", "--pmax", "2", "--level", level)
        assert (code, err) == (0, "relations: pass\n")

    def test_relations_share_one_store(self, capsys, monkeypatch):
        made = []
        init = tables._Store.__init__
        monkeypatch.setattr(tables._Store, "__init__", lambda store: made.append(1) or init(store))
        monkeypatch.setattr(tables, "_live_store", lambda: None)  # as if no table were alive
        code, out, _ = run(capsys, "verify", "relations", "--pmax", "6", "--nmax", "0")
        assert (code, len(out.splitlines()), len(made)) == (0, 7, 1)

    def test_left_zero_past_the_packing_limit(self, capsys):
        # the left zero is checked by comparing nodes; no 2**n array is built
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "relations", "--pmax", "0", "--nmax", "30",
                             "--level", "1")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "relations: pass\n")
        assert json.loads(out.splitlines()[-1]) == {"check": "left zero at level 30", "pass": True}

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


@pytest.mark.parametrize("argv", [
    ["growth", "--N", "10000", "--oracle"],
    ["verify", "oracle", "--nmax", "500"],
    ["verify", "oracle", "--nmax", "200"],  # level 101 is within the level bound
    ["quotient", "--n", "40"],
    ["verify", "relations", "--level", str(tables.MAX_LEVEL + 1)],
    ["growth", "--N", str(series.MAX_N + 1)],
    ["verify", "series", "--N", str(series.MAX_N + 1)],
    ["verify", "oracle", "--nmax", str(series.MAX_N + 1)],
    # the oracle's level bound is checked before the series to N is computed
    ["growth", "--N", "300000", "--oracle"],
    ["verify", "oracle", "--nmax", str(series.MAX_N)],
    # the left-zero check at level n also builds level n + 1
    ["verify", "relations", "--pmax", "0", "--nmax", str(tables.MAX_LEVEL)],
    # 1,210,000 product states
    ["automaton", "{big}", "product", "--with", "{big}"],
])
def test_oversized_requests_fail_fast(tmp_path, argv):
    # the caps are checked before any BFS, series or product; one that
    # started would end in a MemoryError under the 1 GiB address space, or
    # in the timeout
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    n = 1100
    big = tmp_path / "big.aut"
    big.write_text(format_automaton(MealyAutomaton(
        2, tuple(((q + 1) % n, 2 * q % n) for q in range(n)),
        tuple((q % 2, q // 3 % 2) for q in range(n)))))
    src = Path(mealygrowth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "mealygrowth.cli", *(arg.format(big=big) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and " exceeds " in line


@pytest.mark.parametrize("argv", [
    ["growth", "--N", "12", "--oracle"],
    ["verify", "oracle", "--nmax", "12"],
])
def test_oracle_mismatch_fails_before_output(capsys, monkeypatch, argv):
    # the BFS miscounts at radius 7; the oracle's own check against the series fails
    enumerate_real = tables.enumerate_monoid

    def shifted(a, level, **kwargs):
        layers = enumerate_real(a, level, **kwargs)
        layers.sphere_sizes[7] += 1
        return layers

    monkeypatch.setattr(tables, "enumerate_monoid", shifted)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith("radius 7")


@pytest.mark.parametrize("argv", [
    ["quotient", "--n", "3", "--depth", "-1"],
    ["verify", "width", "--count", "-3"],
    ["automaton", "{aut}", "product"],  # no --with FILE
])
def test_bad_requests_fail_before_output(capsys, tmp_path, argv):
    aut = tmp_path / "i2.aut"
    aut.write_text(format_automaton(I2))
    code, out, err = run(capsys, *(arg.format(aut=aut) for arg in argv))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ")


# A flag that the chosen suite or action does not read is a usage error.
@pytest.mark.parametrize("argv", [
    ["verify", "oracle", "--N", "40"],
    ["verify", "series", "--nmax", "3"],
    ["automaton", "{aut}", "invertible", "--N", "4"],
    ["automaton", "{aut}", "minimize", "--with", "{aut}"],
    ["quotient", "--n", "3", "--max-elements", "50"],  # the caps have no flags
    ["automaton", "{aut}", "growth", "--max-states", "5"],
])
def test_flags_of_another_suite_or_action_are_rejected(capsys, tmp_path, argv):
    aut = tmp_path / "i2.aut"
    aut.write_text(format_automaton(I2))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(aut=aut) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Each of these once checked nothing, printed a pass and exited 0.
@pytest.mark.parametrize("argv,flag", [
    (["verify", "oracle", "--nmax", "0"], "--nmax"),
    (["verify", "oracle", "--nmax", "-2"], "--nmax"),
    (["verify", "relations", "--pmax", "-1", "--nmax", "0"], "--pmax"),
    (["verify", "relations", "--pmax", "0", "--nmax", "-1"], "--nmax"),
    (["verify", "relations", "--level", "0"], "--level"),
    (["verify", "width", "--count", "0"], "--count"),
])
def test_vacuous_verify_ranges_fail_before_output(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: {flag} must be ")


class TestAutomaton:
    @pytest.fixture
    def i2_file(self, tmp_path):
        path = tmp_path / "i2.aut"
        path.write_text(format_automaton(I2))
        return str(path)

    def test_growth(self, capsys, i2_file):
        code, out, _ = run(capsys, "automaton", i2_file, "growth", "--N", "5")
        assert (code, out.strip()) == (0, "2,4,6,9,13")

    def test_invertible(self, capsys, i2_file):
        assert run(capsys, "automaton", i2_file, "invertible")[1].strip() == "false"

    def test_minimize_roundtrips(self, capsys, i2_file):
        code, out, _ = run(capsys, "automaton", i2_file, "minimize")
        assert code == 0
        assert "states 2" in out

    def test_product(self, capsys, i2_file):
        code, out, _ = run(capsys, "automaton", i2_file, "product", "--with", i2_file)
        assert code == 0
        assert "states 4" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "automaton", "no_such.aut", "growth")
        assert code == 2
        assert "error" in err
