"""The three benchmark workloads: inputs, the timed job, and output checks.

Each workload is a ``Workload`` with

* ``make_inputs(seed)``: the inputs, a pure function of the seed;
* ``run(mg, inputs, notes)``: the timed job.  It calls the program only
  through ``mealygrowth.cli.main(argv)`` or the public functions of the
  ``series``, ``tables``, ``mealy`` and ``rewrite`` modules, looked up as
  module attributes at call time so that the traced run sees every call.
  Every operation's result, or the exception it raised, is kept;
* ``check(mg, inputs, outputs)``: runs after the timed region and
  returns one bool per attempted operation (True = output verified);
* ``corrupt(outputs)``: damages exactly one output, for the self-test.

``mg`` is a namespace holding the five program modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
I2_FILE = HERE / "i2.aut"
GROWTH_REFERENCE = HERE / "reference" / "growth-table.json"

GROWTH_N = 10_000
QUOTIENT_LEVELS = range(1, 12)
ORACLE_NMAX = 12
ORACLE_RADII = range(1, 23)
AUTOMATON_N = 40
LONG_LENGTHS = (2000, 2828, 4000, 5657, 8000)
LONG_MAX_EXPONENT = 16
TABLE_LEVEL = 12


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _call(fn, *args):
    """Run one operation; an exception becomes its result."""
    try:
        return fn(*args)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failed op
        return exc


def _cli(mg, argv, notes):
    """One CLI invocation with stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = _call(mg.cli.main, argv)
    text = buf.getvalue()
    notes["cli_output_bytes"] = notes.get("cli_output_bytes", 0) + len(text.encode())
    return code, text


def _ok(result) -> bool:
    return not isinstance(result, BaseException)


def _cli_ok(result) -> bool:
    code, _ = result
    return _ok(code) and code == 0


# --- an independent route to the series, from the paper's closed forms -------

def reference_growth(N: int) -> tuple[list[int], list[int], list[int]]:
    """(delta, gamma, ball) for 0..N from q(n), distinct odd parts.

    delta(n) = q(n-1) + 2 sum_{i<=n-2} q(i); gamma = delta / (1 - X^2);
    ball = delta / (1 - X).  Quadratic, so only used for small N.
    """
    q = [1] + [0] * N
    for part in range(1, N + 1, 2):
        for i in range(N, part - 1, -1):
            q[i] += q[i - part]
    delta = [1, 2][: N + 1] + [0] * max(0, N - 1)
    running = 0
    for n in range(2, N + 1):
        running += q[n - 2]
        delta[n] = q[n - 1] + 2 * running
    gamma = list(delta)
    ball = list(delta)
    for n in range(1, N + 1):
        if n >= 2:
            gamma[n] += gamma[n - 2]
        ball[n] += ball[n - 1]
    return delta, gamma, ball


def _fixed_inputs(seed):
    return None  # fixed size; the seed selects nothing here


# --- growth-table -------------------------------------------------------------

def exact_digest(rows) -> str:
    """sha256 of the exact integer columns, one ``n,delta,gamma,ball,q`` line per row."""
    h = hashlib.sha256()
    for r in rows:
        h.update(f"{r['n']},{r['delta']},{r['gamma']},{r['gamma_ball']},{r['q']}\n".encode())
    return h.hexdigest()


def _growth_run(mg, inputs, notes):
    return [_cli(mg, ["growth", "--N", str(GROWTH_N), "--format", "json"], notes)]


def _growth_check(mg, inputs, outputs):
    (result,) = outputs
    if not _cli_ok(result):
        return [False]
    rows = [json.loads(line) for line in result[1].splitlines()]
    ref = json.loads(GROWTH_REFERENCE.read_text())
    if [r["n"] for r in rows] != list(range(1, GROWTH_N + 1)):
        return [False]
    if exact_digest(rows) != ref["exact_sha256"]:
        return [False]
    tol = ref["ratio_abs_tolerance"]
    for n, expected in ref["ratios"].items():
        row = rows[int(n) - 1]
        got = [row["delta_ratio"], row["gamma_ratio"], row["ball_ratio"]]
        for g, e in zip(got, expected):
            if (g == "") != (e == "") or (e != "" and abs(g - e) > tol):
                return [False]
    census = [mg.rewrite.enumerate_normal_forms(n) for n in range(1, 21)]
    return [census == [r["delta"] for r in rows[:20]]]


def _growth_corrupt(outputs):
    code, text = outputs[0]
    lines = text.splitlines()
    row = json.loads(lines[0])
    row["gamma"] += 1
    outputs[0] = (code, "\n".join([json.dumps(row)] + lines[1:]) + "\n")


# --- level-oracle -------------------------------------------------------------

def _level_run(mg, inputs, notes):
    out = []
    for n in QUOTIENT_LEVELS:
        before = max_rss_mb()
        out.append(_cli(mg, ["quotient", "--n", str(n)], notes))
        if n == QUOTIENT_LEVELS[-1]:
            notes["rss_growth_mb"] = max_rss_mb() - before
    out.append(_cli(mg, ["verify", "oracle", "--nmax", str(ORACLE_NMAX)], notes))
    top = max(AUTOMATON_N, ORACLE_RADII[-1])
    out.append(_call(mg.series.automaton_growth_coeffs, top))
    out.append(_call(mg.series.ball_growth_coeffs, top))
    for n in ORACLE_RADII:
        out.append(_call(mg.tables.spherical_growth_oracle, mg.mealy.I2, n))
        out.append(_call(mg.tables.ball_growth_oracle, mg.mealy.I2, n))
    out.append(_cli(mg, ["automaton", str(I2_FILE), "growth", "--N", str(AUTOMATON_N)], notes))
    return out


def _level_check(mg, inputs, outputs):
    _, gamma, ball = reference_growth(max(AUTOMATON_N, ORACLE_RADII[-1]))
    ok = []
    it = iter(outputs)
    for n in QUOTIENT_LEVELS:
        res = next(it)
        good = _cli_ok(res)
        if good:
            header, values = res[1].splitlines()[:2]
            row = dict(zip(header.split(","), values.split(",")))
            order = int(row["order"])
            good = order == 2 + (2 * n - 1) * 2**n == mg.tables.i2_quotient_order_formula(n)
        ok.append(good)
    res = next(it)
    checks = [json.loads(line) for line in res[1].splitlines()] if _cli_ok(res) else []
    ok.append(len(checks) == ORACLE_NMAX and all(c["pass"] for c in checks))
    series_gamma, series_ball = next(it), next(it)
    ok.append(series_gamma == gamma)
    ok.append(series_ball == ball)
    for n in ORACLE_RADII:
        ok.append(next(it) == gamma[n])
        ok.append(next(it) == ball[n])
    res = next(it)
    good = _cli_ok(res)
    if good:
        counts = [int(c) for c in res[1].strip().split(",")]
        good = counts == gamma[1 : AUTOMATON_N + 1]
    ok.append(good)
    return ok


def _level_corrupt(outputs):
    i = len(QUOTIENT_LEVELS) + 3  # spherical oracle at n = 1
    outputs[i] += 1


def key_bytes_per_element(mg, level: int = QUOTIENT_LEVELS[-1]) -> int:
    """Computed: size of one BFS dictionary key at ``level``.

    The BFS keys its dict on the packed output bytes of each element's
    table, so this is the size of that bytes object for a generator.
    """
    return sys.getsizeof(mg.tables.table_of(mg.mealy.I2, 0, level).outputs.tobytes())


# --- words-long -----------------------------------------------

def _reduction_ok(mg, word, result) -> bool:
    """Idempotent, within the step bound, width kept, and the same level-12
    table as the word it came from."""
    if not _ok(result):
        return False
    nf, steps = result
    nf_word = mg.rewrite.nf_to_word(nf)
    if not 0 <= steps <= len(word) // 2:
        return False
    if mg.rewrite.reduce(nf_word) != nf:
        return False
    if mg.rewrite.width(word) != mg.rewrite.width(nf_word):
        return False
    return mg.tables.word_table(mg.mealy.I2, word, TABLE_LEVEL) == mg.tables.word_table(
        mg.mealy.I2, nf_word, TABLE_LEVEL
    )


def _long_inputs(seed):
    """Block-structured words 1 (01)^e1 1 (01)^e2 1 ..., one per length.

    Exponents are uniform on 0..16, so about half the neighbouring pairs
    violate the increasing invariant and r_p fires thousands of times.
    """
    rng = random.Random(f"words-long/{seed}")
    words = []
    for length in LONG_LENGTHS:
        word = [1]
        while len(word) < length:
            word += [0, 1] * rng.randint(0, LONG_MAX_EXPONENT) + [1]
        words.append(tuple(word[:length]))
    return words


def _long_run(mg, inputs, notes):
    rd = mg.rewrite.reduce_detailed
    return [_call(rd, word) for word in inputs]


def _long_check(mg, inputs, outputs):
    return [_reduction_ok(mg, w, r) for w, r in zip(inputs, outputs)]


def _long_corrupt(outputs):
    nf, _ = outputs[0]
    outputs[0] = (nf, -1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable
    run: Callable
    check: Callable
    corrupt: Callable
    op_count: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "growth-table",
            "growth --N 10000 --format json: series does nearly all the work, so "
            "series changes show here and tables, mealy or rewrite changes must not",
            _fixed_inputs, _growth_run, _growth_check, _growth_corrupt, 1,
        ),
        Workload(
            "level-oracle",
            "quotient n=1..11, verify oracle, BFS sphere/ball oracles n<=22, automaton "
            "growth N=40: tables BFS and mealy powers; series only N<=40",
            _fixed_inputs, _level_run, _level_check, _level_corrupt,
            len(QUOTIENT_LEVELS) + 3 + 2 * len(ORACLE_RADII) + 1,
        ),
        Workload(
            "words-long",
            "seeded block words of 2000-8000 letters where r_p fires thousands of times: "
            "shows how the reducer scales with word length",
            _long_inputs, _long_run, _long_check, _long_corrupt, len(LONG_LENGTHS),
        ),
    )
}
