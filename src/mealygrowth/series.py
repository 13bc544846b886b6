"""Exact growth series, partition counts, and asymptotic evaluators.

Series are truncated power series held as plain lists of Python ints, so
all coefficient arithmetic is exact.  The three growth series of the I2
monoid are driven by q(n), the number of partitions of n into distinct
odd parts, computed by the Durfee-square sum and confirmed by the
eta-quotient identity Q(X) (X;X)(X^4;X^4) = (X^2;X^2)^2, both O(N^1.5).
Each growth series is derived once from q, and every coefficient is
confirmed against a closed partition formula; a disagreement raises
``VerificationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, sub

from .errors import VerificationError

PI = math.pi
#: exponent coefficient shared by all three growth asymptotics: exp(b sqrt(n))
BETA = PI / math.sqrt(6)


# --- exact series toolkit -------------------------------------------------

def multiply_sparse(c: list[int], terms) -> list[int]:
    """Multiply by sum a X^e over the (e, a) in ``terms``; keeps len(c) terms."""
    n = len(c)
    out = [0] * n
    for e, a in terms:
        if e < 0:
            raise ValueError("exponents must be non-negative")
        scaled = c if a in (1, -1) else map(mul, repeat(abs(a)), c)  # +-1: no multiply
        out[e:] = map(add if a > 0 else sub, out[e:], scaled)
    return out


def divide_one_minus_xk(c: list[int], k: int) -> list[int]:
    """Multiply by 1/(1 - X^k): a running sum over each residue class mod k."""
    if k < 1:
        raise ValueError("k must be positive")
    out = list(c)
    for r in range(k):
        out[r::k] = accumulate(out[r::k])
    return out


def _euler_terms(N: int, step: int) -> list[tuple[int, int]]:
    """(X^step; X^step)_inf through X^N by the pentagonal number theorem."""
    ks = range(1, math.isqrt(N // step) + 1)  # k^2 <= k(3k-1)/2 <= N/step
    return [(0, 1)] + [(step * k * (3 * k + s) // 2, (-1) ** k) for k in ks for s in (-1, 1)]


# --- partition counts -----------------------------------------------------

def _durfee_sum(N: int) -> list[int]:
    """q(0..N) as the sum over m of X^(m^2) / ((1-X^2)(1-X^4)...(1-X^(2m)))."""
    total = term = [1] + [0] * N
    for m in range(1, math.isqrt(N) + 1):
        # term_m = term_{m-1} * X^(2m-1) / (1 - X^(2m))
        term = divide_one_minus_xk(multiply_sparse(term, [(2 * m - 1, 1)]), 2 * m)
        total = list(map(add, total, term))
    return total


@lru_cache(maxsize=16)
def _confirmed_q(N: int) -> tuple[int, ...]:
    """The Durfee sum, confirmed by Q(X) (X;X)(X^4;X^4) = (X^2;X^2)^2.

    (X;X)(X^4;X^4) has constant term 1, so the identity through X^N fixes
    q(0..N), and the first coefficient where it fails is the first wrong q(n).
    """
    q = _durfee_sum(N)
    lhs = multiply_sparse(multiply_sparse(q, _euler_terms(N, 1)), _euler_terms(N, 4))
    squares = _euler_terms(N, 2)
    rhs = multiply_sparse(multiply_sparse([1] + [0] * N, squares), squares)
    for n in range(N + 1):
        if lhs[n] != rhs[n]:
            raise VerificationError(f"q: Durfee sum fails the eta-quotient identity at n={n}")
    return tuple(q)


def odd_distinct_partitions(N: int) -> list[int]:
    """q(0..N): partitions into distinct odd parts, via the Durfee-square sum."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return list(_confirmed_q(N))


def count_distinct_congruent(n: int, a_list, M: int) -> int:
    """Partitions of n into distinct parts congruent to some a_i mod M."""
    if n < 0 or M < 1:
        raise ValueError("n must be non-negative and M positive")
    residues = {a % M for a in a_list}
    c = [0] * (n + 1)
    c[0] = 1
    for part in range(1, n + 1):
        if part % M in residues:
            for i in range(n, part - 1, -1):
                c[i] += c[i - part]
    return c[n]


# --- growth coefficients --------------------------------------------------

@lru_cache(maxsize=16)
def _growth_series(N: int) -> tuple[tuple[int, ...], ...]:
    """Delta, Gamma and Gamma_S through X^N, each derived once from q.

    Delta = (1+X)(1 + X/(1-X) Psi(X)), Gamma = Delta/(1-X^2) and
    Gamma_S = Delta/(1-X).  Every coefficient of each is confirmed against
    its closed partition formula before the series are returned.
    """
    q = odd_distinct_partitions(N)
    # 1 + X/(1-X) Psi(X): the common factor of all three series
    core = divide_one_minus_xk(multiply_sparse(q, [(1, 1)]), 1)
    core[0] += 1
    delta = multiply_sparse(core, [(0, 1), (1, 1)])
    derived = (delta, divide_one_minus_xk(delta, 2), divide_one_minus_xk(delta, 1))

    s0 = s1 = 0  # sums of q(i) and of i*q(i) over i < n
    for n in range(N + 1):
        closed = (
            # delta(n) = q(n-1) + 2 sum_{i<=n-2} q(i) for n >= 2; 1, 2 below
            2 * s0 - q[n - 1] if n >= 2 else n + 1,
            1 + n * s0 - s1,
            2 + (2 * n - 1) * s0 - 2 * s1 if n else 1,
        )
        for name, coeffs, value in zip(("Delta", "Gamma", "Gamma_S"), derived, closed):
            if coeffs[n] != value:
                raise VerificationError(
                    f"{name}: series route disagrees with the closed form at n={n}"
                )
        s0 += q[n]
        s1 += n * q[n]
    return tuple(tuple(c) for c in derived)


def word_growth_coeffs(N: int) -> list[int]:
    """delta(0..N): number of elements of minimal length exactly n."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return list(_growth_series(N)[0])


def automaton_growth_coeffs(N: int) -> list[int]:
    """Gamma(0..N): distinct products of exactly n generators, Delta/(1-X^2)."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return list(_growth_series(N)[1])


def ball_growth_coeffs(N: int) -> list[int]:
    """gamma_S(0..N): distinct products of at most n generators, Delta/(1-X)."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return list(_growth_series(N)[2])


# --- asymptotics ----------------------------------------------------------

@dataclass(frozen=True)
class AsymptoteSpec:
    """Main term C * n^power * exp(coeff * sqrt(n))."""

    prefactor: float
    power: float
    exponent_coefficient: float

    def __post_init__(self):
        if self.prefactor <= 0:
            raise ValueError("prefactor must be positive")

    def log_evaluate(self, n) -> float:
        return (
            math.log(self.prefactor)
            + self.power * math.log(n)
            + self.exponent_coefficient * math.sqrt(n)
        )

    def evaluate(self, n) -> float:
        return math.exp(self.log_evaluate(n))


# The constant below is 2^(-7/4) 3^(-1/4), validated against the exact
# partition count to four digits at n = 10^4 (the seemingly simpler
# 2^(-1/2) 3^(-1/4) sometimes seen in print misses a factor 2^(5/4)).
Q_ASYMPTOTE = AsymptoteSpec(2**-1.75 * 3**-0.25, -0.75, BETA)
WORD_ASYMPTOTE = AsymptoteSpec(2**0.75 * 3**0.25 / PI, -0.25, BETA)
AUTOMATON_ASYMPTOTE = AsymptoteSpec(2**1.25 * 3**0.75 / PI**2, 0.25, BETA)
BALL_ASYMPTOTE = AsymptoteSpec(2**2.25 * 3**0.75 / PI**2, 0.25, BETA)


def richmond_log_asymptote(a_list, M: int, s: int, n: int) -> float:
    """Log of the main term for partitions into distinct parts = a_i mod M.

    Saddle-point main term 2^(s/2 - sum(a_i)/M - 1) (s/12M)^(1/4) n^(-3/4)
    exp(pi sqrt(sn/3M)), cross-checked against ``count_distinct_congruent``
    for several residue systems.
    """
    if n < 1 or M < 1:
        raise ValueError("n and M must be >= 1")
    if math.gcd(*a_list, M) != 1:
        raise ValueError("gcd(a_1, ..., a_s, M) must be 1")
    if s != len(a_list):
        raise ValueError("s must equal the number of residues")
    return (
        (s / 2 - sum(a_list) / M - 1) * math.log(2)
        + 0.25 * math.log(s / (12 * M))
        - 0.75 * math.log(n)
        + PI * math.sqrt(s * n / (3 * M))
    )


def richmond_asymptote(a_list, M: int, s: int, n: int) -> float:
    return math.exp(richmond_log_asymptote(a_list, M, s, n))


@dataclass(frozen=True)
class GrowthAsymptotes:
    """Main terms at one n: each growth function in q-form and closed form."""

    word_qform: float
    word_closed: float
    automaton_qform: float
    automaton_closed: float
    ball_qform: float
    ball_closed: float


def growth_asymptotes(n: int, q_n: int | None = None) -> GrowthAsymptotes:
    """Evaluate the six main-term formulas at n.

    ``q_n`` can be supplied to avoid recomputing the exact partition count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q_n is None:
        q_n = odd_distinct_partitions(n)[n]
    qf = float(q_n)
    return GrowthAsymptotes(
        word_qform=4 * math.sqrt(6) / PI * math.sqrt(n) * qf,
        word_closed=WORD_ASYMPTOTE.evaluate(n),
        automaton_qform=24 / PI**2 * n * qf,
        automaton_closed=AUTOMATON_ASYMPTOTE.evaluate(n),
        ball_qform=48 / PI**2 * n * qf,
        ball_closed=BALL_ASYMPTOTE.evaluate(n),
    )


@dataclass(frozen=True)
class PartialSumRow:
    n: int
    partial_sum: float
    asymptote: float
    ratio: float


def partial_sum_check(alpha: float, beta: float, N: int, samples=None) -> list[PartialSumRow]:
    """Ratio of sum_{i<=n} i^alpha exp(beta sqrt(i)) to its predicted main term.

    The prediction is (2/beta) n^(alpha+1/2) exp(beta sqrt(n)).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta * math.sqrt(N) > 700:
        raise OverflowError("summand would overflow double precision; reduce N")
    if samples is None:
        samples = [10**e for e in range(1, 12) if 10**e < N] + [N]
    wanted = sorted(set(s for s in samples if 1 <= s <= N))
    rows = []
    total = 0.0
    comp = 0.0  # Neumaier compensation
    it = iter(wanted)
    target = next(it, None)
    for i in range(1, N + 1):
        term = i**alpha * math.exp(beta * math.sqrt(i))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if i == target:
            asym = (2 / beta) * i ** (alpha + 0.5) * math.exp(beta * math.sqrt(i))
            value = total + comp
            rows.append(PartialSumRow(i, value, asym, value / asym))
            target = next(it, None)
    return rows


TAUBERIAN_ALPHA = PI**2 / 24
TAUBERIAN_TAIL_BOUND = 1e-9


@dataclass(frozen=True)
class TauberianRow:
    x: float
    value: float | None
    target: float
    tail_ratio: float
    ok: bool
    note: str = ""


def tauberian_probe(N: int, x_list, coeffs=None) -> list[TauberianRow]:
    """Evaluate (1-x) log(sum gamma_S(n) x^n) against pi^2/24.

    Refuses any x for which the truncation tail is not negligible (the
    last retained term must be below 1e-9 of the partial sum).
    """
    if coeffs is None:
        coeffs = ball_growth_coeffs(N)
    if len(coeffs) <= N:
        raise ValueError("coeffs must hold gamma_S(0..N)")
    rows = []
    for x in x_list:
        if not 0 < x < 1:
            raise ValueError("each x must be in (0, 1)")
        partial = 0.0
        xn = 1.0
        for n in range(N + 1):
            partial += float(coeffs[n]) * xn
            xn *= x
        tail_ratio = float(coeffs[N]) * x**N / partial
        if tail_ratio > TAUBERIAN_TAIL_BOUND:
            rows.append(
                TauberianRow(
                    x, None, TAUBERIAN_ALPHA, tail_ratio, False,
                    note=f"tail ratio {tail_ratio:.2e} exceeds {TAUBERIAN_TAIL_BOUND:.0e}; increase N",
                )
            )
            continue
        value = (1 - x) * math.log(partial)
        rows.append(TauberianRow(x, value, TAUBERIAN_ALPHA, tail_ratio, True))
    return rows
