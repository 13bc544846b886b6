"""Tests for the generating series and asymptotic main terms."""

import math
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mealygrowth import (
    AsymptoteSpec,
    automaton_growth_coeffs,
    ball_growth_coeffs,
    enumerate_normal_forms,
    growth_series,
    odd_distinct_partitions,
    series,
)
from mealygrowth.errors import VerificationError
from mealygrowth.series import (
    AUTOMATON_ASYMPTOTE,
    BALL_ASYMPTOTE,
    Q_ASYMPTOTE,
    multiply_sparse,
)
from reference_series import (
    divide_one_minus_xk,
    reference_growth_rows,
    reference_odd_distinct_partitions,
)


def euler_product(N, k):
    """(X^k; X^k)_inf through X^N, one factor 1 - X^(jk) at a time."""
    c = [1] + [0] * N
    for e in range(k, N + 1, k):
        c = multiply_sparse(c, [(0, 1), (e, -1)])
    return c


def sparse(c):
    return [(e, a) for e, a in enumerate(c) if a]


class TestToolkit:
    @pytest.mark.parametrize("e", range(6))
    @pytest.mark.parametrize("a", [1, -1, 3])
    def test_multiply_sparse_matches_naive_product(self, e, a):
        c = [1, 2, 3]  # exponents 0 .. len(c) + 2
        terms = [(e, a), (1, 2)]
        full = [0] * (len(c) + e + 1)
        for i, x in enumerate(c):
            for j, b in terms:
                full[i + j] += b * x
        assert multiply_sparse(c, terms) == full[: len(c)]

    def test_euler_terms_stop_at_N(self):
        for N in range(501):
            pentagonal = {k * (3 * k - 1) // 2 for k in range(-N, N + 1)}
            exponents = [e for e, _ in series._euler_terms(N)]
            assert max(exponents) <= N
            assert sorted(exponents) == sorted(g for g in pentagonal if g <= N)

    def test_is_prime_matches_a_sieve(self):
        sieve = [False, False] + [True] * 9999
        for i in range(2, 101):
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [series._is_prime(n) for n in range(10001)] == sieve
        # 2^61 - 1 is prime; the others are strong pseudoprimes to bases 2..7 and 2..23
        assert [series._is_prime(n) for n in (2**61 - 1, 3215031751, 3825123056546413051)] == [
            True, False, False,
        ]

    @pytest.mark.parametrize("fn,args", [
        (multiply_sparse, ([1, 2, 3], [(-1, 1)])),
        (divide_one_minus_xk, ([1, 2, 3], 0)),
        (divide_one_minus_xk, ([1, 2, 3], -1)),
    ])
    def test_bad_arguments_raise_value_error(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)


class TestPartitions:
    def test_first_values(self):
        assert odd_distinct_partitions(9) == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2]

    def test_q16(self):
        # 16 = 1+15 = 3+13 = 5+11 = 7+9 = 1+3+5+7
        assert odd_distinct_partitions(16)[16] == 5

    @given(st.integers(0, 400))
    @settings(max_examples=40)
    def test_agrees_with_reference(self, N):
        assert odd_distinct_partitions(N) == reference_odd_distinct_partitions(N)

    # the Durfee terms start at X^(m^2): check either side of each start
    @pytest.mark.parametrize("N", sorted({m * m + d for m in range(1, 26) for d in (-1, 0, 1)}))
    def test_agrees_with_reference_at_term_offsets(self, N):
        assert odd_distinct_partitions(N) == reference_odd_distinct_partitions(N)

    def test_durfee_sum_at_residue_boundaries(self):
        # each in-place pass starts its residue classes at X^(m^2) of q: check N = 0..200
        # and either side of every m^2 through 2000
        reference = reference_odd_distinct_partitions(2001)
        boundaries = {m * m + d for m in range(1, 45) for d in (-1, 0, 1)}
        for N in sorted(boundaries.union(range(201))):
            assert series._durfee_sum(N) == reference[: N + 1]

    @given(st.integers(0, 400))
    @settings(max_examples=30)
    def test_theta_terms_are_the_eta_quotient(self, N):
        # Gauss: sum (-1)^n X^(2n^2) = (X^2;X^2)^2 / (X^4;X^4), the check's right side
        theta = multiply_sparse([1] + [0] * N, series._theta_terms(N))
        squares = euler_product(N, 2)
        assert multiply_sparse(theta, sparse(euler_product(N, 4))) == multiply_sparse(
            squares, sparse(squares)
        )

    @given(st.integers(0, 300).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N))),
           st.sampled_from([-2, -1, 1, 2]))
    @example((0, 0), 1)  # a one-term q is still checked
    @settings(max_examples=40)
    def test_wrong_coefficient_fails_at_its_n(self, case, delta):
        N, n = case
        durfee = series._durfee_sum

        def corrupt(M):
            q = durfee(M)
            q[n] += delta
            return q

        with mock.patch.object(series, "_durfee_sum", corrupt):
            with pytest.raises(VerificationError, match=f"at n={n}$"):
                odd_distinct_partitions(N)


class TestFingerprint:
    N = 10_000

    @pytest.fixture(scope="class")
    def q(self):
        return series._durfee_sum(self.N)

    def test_single_coefficient_faults_fail_at_their_n(self, q, monkeypatch):
        # off by one either way, off by the Mersenne prime 2^61 - 1, and doubled
        faults = (lambda c: c + 1, lambda c: c - 1, lambda c: c + 2**61 - 1, lambda c: 2 * c)
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(3, self.N + 1)  # q(2) = 0, the only zero, is kept by doubling
            bad = list(q)
            bad[n] = rng.choice(faults)(bad[n])
            monkeypatch.setattr(series, "_durfee_sum", lambda N: bad)
            with pytest.raises(VerificationError, match=f"at n={n}$"):
                odd_distinct_partitions(self.N)

    @pytest.mark.parametrize("N", [0, 1, 2, 5, N])
    def test_exact_product_skipped_on_a_true_q(self, N):
        with mock.patch.object(series, "multiply_sparse", wraps=multiply_sparse) as product:
            assert odd_distinct_partitions(N) == series._durfee_sum(N)
        product.assert_not_called()

    def test_exact_identity_accepts_the_true_q(self):
        # the check the fingerprint stands in for, kept as the reference
        q = reference_odd_distinct_partitions(2000)
        for N in (0, 1, 2, 3, 77, 512, 1999, 2000):
            series._check_identity(q[: N + 1])


class TestGrowthCoefficients:
    def test_word_growth_prefix(self):
        assert [d for d, _, _ in growth_series(9)[1]] == [1, 2, 3, 4, 5, 7, 9, 11, 13, 16]

    def test_automaton_growth_prefix(self):
        assert automaton_growth_coeffs(6)[1:] == [2, 4, 6, 9, 13, 18]

    def test_ball_growth_prefix(self):
        assert ball_growth_coeffs(5) == [1, 3, 6, 10, 15, 22]

    def test_census_agrees_with_series(self):
        delta = [d for d, _, _ in growth_series(14)[1]]
        assert [enumerate_normal_forms(n) for n in range(15)] == delta

    @given(st.integers(1, 300))
    @settings(max_examples=30)
    def test_series_identities(self, N):
        delta = [d for d, _, _ in growth_series(N)[1]]
        gamma = automaton_growth_coeffs(N)
        ball = ball_growth_coeffs(N)
        assert gamma == divide_one_minus_xk(list(delta), 2)
        assert ball == divide_one_minus_xk(list(delta), 1)
        assert list(delta) == multiply_sparse(list(ball), [(0, 1), (1, -1)])
        # sphere counts inside the ball
        assert all(g <= b for g, b in zip(gamma, ball))

    def test_streamed_rows_equal_the_list_route(self):
        q = reference_odd_distinct_partitions(300)
        for N in range(301):
            assert list(series._derive_rows(q[: N + 1])) == reference_growth_rows(q[: N + 1])

    def test_growth_series_holds_one_list(self):
        # a memory guard: the Durfee sum and the checks hold q and a fraction of it
        # (5.8x q when the four series were lists), and the result holds q alone.
        # An int made by an addition keeps the spare digit it was allocated with,
        # 4 bytes that sys.getsizeof does not count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            q, rows = growth_series(20000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        q_bytes = sys.getsizeof(q) + sum(map(sys.getsizeof, q))
        assert peak - before < 2 * q_bytes
        assert held - before < 1.1 * q_bytes
        assert next(rows) == (1, 1, 1)

    def test_parity_sum(self):
        delta = [d for d, _, _ in growth_series(40)[1]]
        gamma = automaton_growth_coeffs(40)
        for n in (0, 1, 7, 40):
            assert gamma[n] == sum(delta[i] for i in range(n % 2, n + 1, 2))


class TestAsymptotes:
    def test_spec_rejects_bad_prefactor(self):
        with pytest.raises(ValueError):
            AsymptoteSpec(-1.0, 0.0, 1.0)

    def test_ball_is_twice_automaton(self):
        assert series.BALL_QFORM == pytest.approx(2 * series.AUTOMATON_QFORM)
        assert BALL_ASYMPTOTE.log_evaluate(500) == pytest.approx(
            math.log(2) + AUTOMATON_ASYMPTOTE.log_evaluate(500)
        )

    def test_qform_matches_exact_at_1000(self):
        n = 1000
        q, rows = growth_series(n)
        ball = [b for _, _, b in rows]
        assert ball[n] / q[n] / (series.BALL_QFORM * n) == pytest.approx(1.0, abs=0.05)

    def test_closed_form_matches_qform_through_q_asymptote(self):
        n = 2000
        q_exact = odd_distinct_partitions(n)[n]
        # AUTOMATON_ASYMPTOTE is 24/pi^2 n times Q_ASYMPTOTE, as the q-form is of q(n)
        qform = math.log(series.AUTOMATON_QFORM * n) + math.log(q_exact)
        closed_over_qform = AUTOMATON_ASYMPTOTE.log_evaluate(n) - qform
        assert closed_over_qform == pytest.approx(
            Q_ASYMPTOTE.log_evaluate(n) - math.log(q_exact), abs=1e-9
        )

