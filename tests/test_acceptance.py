"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced; each test also asserts, so the suite is red if any
criterion fails.
"""

import math
import random
import time

from mealygrowth import (
    I2,
    AsymptoteSpec,
    MealyAutomaton,
    apply,
    automaton_growth_coeffs,
    ball_growth_coeffs,
    enumerate_monoid,
    enumerate_normal_forms,
    growth_series,
    hausdorff_sequence,
    i2_quotient_order_formula,
    minimize,
    nf_to_word,
    odd_distinct_partitions,
    power,
    product,
    reduce_detailed,
    relation_sides,
    stabilized_growth_table,
    verify_left_zero,
    verify_relation,
    width,
    word_table,
)
from mealygrowth.series import (
    AUTOMATON_ASYMPTOTE,
    AUTOMATON_QFORM,
    BALL_ASYMPTOTE,
    BALL_QFORM,
    BETA,
    Q_ASYMPTOTE,
    WORD_ASYMPTOTE,
    WORD_QFORM,
)
from mealygrowth.rewrite import reduce as reduce_word
from reference_series import divide_one_minus_xk, reference_odd_distinct_partitions


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_quotient_orders():
    start = time.monotonic()
    orders = [enumerate_monoid(I2, n, spheres=False).element_count for n in range(1, 13)]
    elapsed = time.monotonic() - start
    expected = [i2_quotient_order_formula(n) for n in range(1, 13)]
    ok = orders == expected and elapsed < 60
    report(1, "quotient-orders-1..12", ok,
           f"orders={orders[:3]}..{orders[-1]}, {elapsed:.1f}s")


def test_02_series_vs_oracle():
    gamma = automaton_growth_coeffs(12)
    ball = ball_growth_coeffs(12)
    oracle = stabilized_growth_table(I2, 12)
    ok = all(oracle[n] == (gamma[n], ball[n]) for n in range(1, 13))
    ok = ok and gamma[1:7] == [2, 4, 6, 9, 13, 18] and ball[1:6] == [3, 6, 10, 15, 22]
    report(2, "series-vs-bfs-oracle-1..12", ok)


def test_03_normal_form_census():
    delta = [d for d, _, _ in growth_series(20)[1]]
    census = [enumerate_normal_forms(n) for n in range(21)]
    ok = census == delta and delta[:10] == [1, 2, 3, 4, 5, 7, 9, 11, 13, 16]
    report(3, "normal-form-census-0..20", ok, f"census[:10]={census[:10]}")


def test_04_rewriting_soundness():
    rng = random.Random(2024)
    level = 12
    start = time.monotonic()
    failures = 0
    # tables made while another one is alive share its store and memos, so
    # holding one keeps them for the whole loop
    identity = word_table(I2, (), level)
    for _ in range(100_000):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 40)))
        nf, steps = reduce_detailed(w)
        if steps > len(w) // 2 or word_table(I2, w, level) != word_table(
            I2, nf_to_word(nf), level
        ):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 120
    report(4, "rewrite-soundness-100k-words", ok,
           f"failures={failures}, {elapsed:.1f}s")


def test_05_relation_suite():
    relations_ok = all(verify_relation(p, 12) for p in range(7))
    zeros_ok = all(verify_left_zero(n) == (True, True) for n in range(1, 9))
    report(5, "relations-and-left-zeros", relations_ok and zeros_ok)


def test_06_series_identities():
    start = time.monotonic()
    N = 2000
    q = odd_distinct_partitions(N)
    delta = [d for d, _, _ in growth_series(N)[1]]
    gamma = automaton_growth_coeffs(N)
    ball = ball_growth_coeffs(N)
    ok = (
        reference_odd_distinct_partitions(N) == q
        and gamma == divide_one_minus_xk(list(delta), 2)
        and ball == divide_one_minus_xk(list(delta), 1)
    )
    elapsed = time.monotonic() - start
    report(6, "psi-and-series-identities-N2000", ok and elapsed < 30,
           f"{elapsed:.1f}s")


def _ratio_errors(n, q, delta, gamma, ball):
    return (
        abs(delta[n] / q[n] / (WORD_QFORM * math.sqrt(n)) - 1),
        abs(gamma[n] / q[n] / (AUTOMATON_QFORM * n) - 1),
        abs(ball[n] / q[n] / (BALL_QFORM * n) - 1),
    )


def test_07_growth_asymptotics():
    q, rows = growth_series(10**4)
    exact = list(zip(*rows))  # delta, gamma and gamma_S by n
    errs = {n: _ratio_errors(n, q, *exact) for n in (100, 1000, 10000)}
    final = errs[10000]
    ok = all(e < 0.05 for e in final)
    for i in range(3):
        ok = ok and final[i] < errs[1000][i] < errs[100][i]
    # each exact count over its closed main term, from math.log of the big int
    specs = (WORD_ASYMPTOTE, AUTOMATON_ASYMPTOTE, BALL_ASYMPTOTE)
    closed = [[math.exp(math.log(c[n]) - s.log_evaluate(n)) for n in (100, 1000, 10000)]
              for c, s in zip(exact, specs)]
    ok = ok and all(r[0] < r[1] < r[2] and abs(r[2] - 1) < 0.01 for r in closed)
    # the abstract's constant 2^(5/2) 3^(3/4) pi^(-2): gamma's ratio tends to 2^(-5/4)
    abstract = AsymptoteSpec(2**2.5 * 3**0.75 / math.pi**2, 0.25, BETA)
    abstract_ratio = math.exp(math.log(exact[1][10**4]) - abstract.log_evaluate(10**4))
    ok = ok and abs(abstract_ratio - 2**-1.25) < 0.002
    report(7, "growth-asymptote-ratios", ok,
           "errs@1e4=" + ",".join(f"{e:.4f}" for e in final)
           + " closed@1e4=" + ",".join(f"{r[2]:.4f}" for r in closed)
           + f" abstract@1e4={abstract_ratio:.4f}")


def test_08_q_asymptote():
    q = odd_distinct_partitions(10**4)
    errs = [abs(math.exp(math.log(q[n]) - Q_ASYMPTOTE.log_evaluate(n)) - 1)
            for n in (100, 1000, 10000)]
    ok = errs[2] < errs[1] < errs[0] and errs[2] < 0.1
    report(8, "q-asymptote-ratio", ok,
           "errs=" + ",".join(f"{e:.4f}" for e in errs))


def test_09_hausdorff_sequence():
    terms = hausdorff_sequence(20)
    ok = all(a > b for a, b in zip(terms, terms[1:])) and terms[-1] < 0.01
    report(9, "hausdorff-terms-decreasing", ok, f"term(20)={terms[-1]:.5f}")


def test_10_width_invariance():
    rng = random.Random(99)
    failures = 0
    for _ in range(10_000):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 15)))
        suf = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 15)))
        kind = rng.randrange(5)
        if kind == 0:
            sides = ((0, 0), ())  # involution
        else:
            sides = relation_sides(kind - 1)
        if rng.random() < 0.5:
            sides = (sides[1], sides[0])  # backward direction
        if width(pre + sides[0] + suf) != width(pre + sides[1] + suf):
            failures += 1
    report(10, "width-invariance-10k-rewrites", failures == 0,
           f"failures={failures}")


def _random_automaton(rng, max_states=4):
    n = rng.randint(1, max_states)
    trans = tuple(tuple(rng.randrange(n) for _ in range(2)) for _ in range(n))
    outs = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(n))
    return MealyAutomaton(2, trans, outs)


def test_11_product_and_minimize_laws():
    rng = random.Random(5)
    all_words = [
        tuple((v >> i) & 1 for i in range(length))
        for length in range(7)
        for v in range(2**length)
    ]
    product_ok = True
    for _ in range(25):
        a, b = _random_automaton(rng), _random_automaton(rng)
        ab = product(a, b)
        for q1 in range(a.state_count):
            for q2 in range(b.state_count):
                flat = q1 * b.state_count + q2
                for w in all_words:
                    if apply(ab, flat, w) != apply(a, q1, apply(b, q2, w)):
                        product_ok = False
    gamma = automaton_growth_coeffs(10)
    minimize_ok = all(
        minimize(power(I2, n)).state_count == gamma[n] for n in range(1, 11)
    )
    report(11, "product-semantics-and-minimize-growth",
           product_ok and minimize_ok)
