"""Exact growth series, partition counts, and asymptotic evaluators.

Series are truncated power series held as plain lists of Python ints, so
all coefficient arithmetic is exact.  The three growth series of the I2
monoid are driven by q(n), the number of partitions of n into distinct
odd parts, computed by the Durfee-square sum in O(N^1.5) and confirmed by
the eta-quotient identity Q(X) (X;X)(X^4;X^4) = (X^2;X^2)^2.
The Durfee sum is evaluated nested, innermost term first; the part that
enters q times X^(m^2) is held only through X^(N-m^2), so each m costs
one running-sum pass over N+1-m^2 entries.  The identity is checked
one-sided as Q(X) (X;X) = sum (-1)^n X^(2n^2): by Gauss's identity that
theta series is (X^2;X^2)^2 / (X^4;X^4), and it has about sqrt(N/2) terms.
The check is a random fingerprint: both sides are evaluated at a random
point modulo random primes in one O(N) pass.  It is probabilistic: it
misses a wrong q with probability below 1e-24, where the exact O(N^1.5)
product it replaces could not miss.  Only when the fingerprint fails does
the exact product run, once, to name the first wrong q(n).
The growth series are never held: one streamed pass derives their rows
from q by recurrences and confirms each against closed partition formulas;
a disagreement raises ``VerificationError``.  ``growth_series`` does all of
this in one call and returns q with the rows derived again, lazily, by the
same function: nothing is cached, and q is the one list held.  The q-form
constants below are what the CLI's ratio columns divide the exact counts
by; the closed main terms in n alone are ``AsymptoteSpec``s, compared with
exact counts through ``log_evaluate``.
"""

from __future__ import annotations

import math
import random
from functools import cache
from itertools import accumulate, repeat
from operator import add, mul, sub

from .errors import CapacityError, Value, VerificationError

PI = math.pi
#: largest N for q(0..N): the Durfee sum is O(N^1.5) in time and holds q and one
#: residue class of new ints; its fingerprint check is O(N) and holds one slice of q
MAX_N = 10**6
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


def _euler_terms(N: int) -> list[tuple[int, int]]:
    """(X;X)_inf through X^N by the pentagonal number theorem."""
    ks = range(1, math.isqrt(N) + 1)  # k^2 <= k(3k-1)/2 <= N
    terms = ((k * (3 * k + s) // 2, (-1) ** k) for k in ks for s in (-1, 1))
    return [(0, 1)] + [(e, a) for e, a in terms if e <= N]


def _theta_terms(N: int) -> list[tuple[int, int]]:
    """(X^2;X^2)^2 / (X^4;X^4) through X^N: sum over n in Z of (-1)^n X^(2n^2) (Gauss)."""
    return [(0, 1)] + [(2 * n * n, 2 * (-1) ** n) for n in range(1, math.isqrt(N // 2) + 1)]


# --- partition counts -----------------------------------------------------

def _durfee_sum(N: int) -> list[int]:
    """q(0..N) as the sum over m of X^(m^2) / ((1-X^2)(1-X^4)...(1-X^(2m))).

    The sum is evaluated nested, innermost term first: T_M = 1 and
    T_(m-1) = 1 + X^(2m-1) T_m / (1 - X^(2m)), so q = T_0.  T_m enters q
    times X^(m^2), so it is held only through X^(N-m^2): each m costs one
    running-sum pass over N+1-m^2 entries, and no pass adds terms up.  Each
    pass shifts T_m in place, then sums each residue class mod 2m of the
    shifted part in place, so it holds at most one class of new ints.
    """
    M = math.isqrt(N)
    t = [1] + [0] * (N - M * M)
    for k in range(2 * M, 0, -2):  # k = 2m
        t[:0] = [1] + [0] * (k - 2)
        for r in range(k - 1, min(2 * k - 1, len(t))):
            t[r::k] = accumulate(t[r::k])
    return t


#: the fingerprints' randomness; SystemRandom takes no seed, so a fault in q
#: cannot be tuned to it
_RANDOM = random.SystemRandom()

# Miller-Rabin with these bases decides primality for every n < 3.1e23
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.1e23."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _fingerprint_modulus() -> int:
    """p1 p2 for two different uniform random primes in [2^60, 2^61), drawn once per process."""
    primes = []
    while len(primes) < 2:
        p = _RANDOM.getrandbits(60) | 1 << 60
        if _is_prime(p) and p not in primes:
            primes.append(p)
    return primes[0] * primes[1]


def _identity_residue(q: list[int], m: int, r: int) -> int:
    """D(r) mod m, where D = Q(X) (X;X) - theta through X^N and Q = sum q(n) X^n.

    Through X^N, Q(X) (X;X) at r is sum_j e_j r^k_j S(N - k_j) over the
    pentagonal terms e_j X^k_j, where S(t) = sum_{n<=t} q(n) r^n.  One
    Horner pass over q, cut at each N - k_j, gives every S(N - k_j).
    """
    N = len(q) - 1
    euler = _euler_terms(N)
    partial, s, lo = {}, 0, 0
    for t in sorted({N - k for k, _ in euler}):
        h = 0
        for c in reversed(q[lo:t + 1]):
            h = (h * r + c) % m
        s = (s + h * pow(r, lo, m)) % m
        partial[t], lo = s, t + 1
    lhs = sum(e * pow(r, k, m) * partial[N - k] for k, e in euler)
    return (lhs - sum(a * pow(r, k, m) for k, a in _theta_terms(N))) % m


def _check_identity(q: list[int]) -> None:
    """Raise at the first n where Q(X) (X;X) = theta fails: the exact O(N^1.5) check.

    (X;X) has constant term 1, so the product through X^(L-1) reads only q[:L].  The
    prefixes L = (N+1) >> 2i are checked shortest first, so an early fault is named
    early, and all the shorter ones together cost under a seventh of the whole."""
    for L in reversed([len(q) >> 2 * i for i in range((len(q).bit_length() + 1) // 2)]):
        theta = dict(_theta_terms(L - 1))
        for n, x in enumerate(multiply_sparse(q[:L], _euler_terms(L - 1))):
            if x != theta.get(n, 0):
                raise VerificationError(f"q: Durfee sum fails the eta-quotient identity at n={n}")


def odd_distinct_partitions(N: int) -> list[int]:
    """q(0..N): partitions into distinct odd parts, via the Durfee-square sum.

    The sum is confirmed by Q(X) (X;X)(X^4;X^4) = (X^2;X^2)^2.  By Gauss's
    identity (X^2;X^2)^2 / (X^4;X^4) is the sparse theta series
    sum (-1)^n X^(2n^2), so the check is that D = Q(X) (X;X) - theta has
    no nonzero coefficient d_n through X^N.  (X;X) has constant term 1, so
    this fixes q(0..N), and the first nonzero d_n is at the first wrong q(n).

    D is checked by two fingerprints, each D(r) mod p for a uniform random
    61-bit prime p and a uniform random r mod p, with p1 != p2.  Both are
    computed in one O(N) pass modulo p1 p2 at one uniform r mod p1 p2,
    which by the Chinese remainder theorem draws the two r independently.  If
    some d_n is nonzero, one fingerprint misses it only if p divides every
    such d_n, with probability below 0.71 b / 2^60 where b is the bit length
    of one of them, or if r is one of the at most N roots of D mod p, with
    probability below N / 2^60.  For N <= MAX_N and b <= 10^5 that is below
    1e-12 per fingerprint, so the two miss a wrong q with probability below
    1e-24: a check that could not err is replaced by one that errs that
    rarely.  The primes are drawn once per process and r on every call, so
    the bound holds on every call for any fault that does not depend on the
    primes.  When a fingerprint fails, the exact identity runs once and
    raises ``VerificationError`` naming the first wrong n.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if N > MAX_N:
        raise CapacityError(f"series order N={N} exceeds cap {MAX_N}")
    q = _durfee_sum(N)
    m = _fingerprint_modulus()
    if _identity_residue(q, m, _RANDOM.randrange(m)):
        _check_identity(q)
    return q


# --- growth coefficients --------------------------------------------------

def _derive_rows(q: list[int]):
    """Yield (delta(n), gamma(n), gamma_S(n)) for n < len(q) by the series' recurrences.

    core(n) = [n=0] + sum_{i<n} q(i), delta(n) = core(n) + core(n-1), gamma(n) =
    delta(n) + gamma(n-2) and gamma_S(n) = gamma_S(n-1) + delta(n); only scalars are held."""
    core, prev, s, g1, g2, ball = 1, 0, 0, 0, 0, 0  # g1, g2: gamma(n-1), gamma(n-2)
    for qn in q:
        delta = core + prev
        g1, g2 = delta + g2, g1
        ball += delta
        yield delta, g1, ball
        s += qn
        core, prev = s, core


def growth_series(N: int):
    """q(0..N) and an iterator over the rows (delta(n), gamma(n), gamma_S(n)) for n <= N.

    Delta = (1+X)(1 + X/(1-X) Psi(X)), Gamma = Delta/(1-X^2) and Gamma_S = Delta/(1-X).
    One pass of ``_derive_rows`` over the confirmed q compares each row with the closed
    formulas and raises ``VerificationError`` naming the first series and n that differ.
    The rows returned are derived again, lazily, by the same function: only q is held."""
    q = odd_distinct_partitions(N)
    s0 = s1 = 0  # sums of q(i) and of i*q(i) over i < n
    for n, row in enumerate(_derive_rows(q)):
        closed = (
            # delta(n) = q(n-1) + 2 sum_{i<=n-2} q(i) for n >= 2; 1, 2 below
            2 * s0 - q[n - 1] if n >= 2 else n + 1,
            1 + n * s0 - s1,
            2 + (2 * n - 1) * s0 - 2 * s1 if n else 1,
        )
        if row != closed:
            name = ("Delta", "Gamma", "Gamma_S")[next(i for i in range(3) if row[i] != closed[i])]
            raise VerificationError(f"{name}: series route disagrees with the closed form at n={n}")
        s0, s1 = s0 + q[n], s1 + n * q[n]
    return q, _derive_rows(q)


def automaton_growth_coeffs(N: int) -> list[int]:
    """Gamma(0..N): distinct products of exactly n generators, Delta/(1-X^2)."""
    return [gamma for _, gamma, _ in growth_series(N)[1]]


def ball_growth_coeffs(N: int) -> list[int]:
    """gamma_S(0..N): distinct products of at most n generators, Delta/(1-X)."""
    return [ball for _, _, ball in growth_series(N)[1]]


# --- asymptotics ----------------------------------------------------------

class AsymptoteSpec(Value):
    """Main term C * n^power * exp(coeff * sqrt(n))."""

    __slots__ = ("prefactor", "power", "exponent_coefficient")

    def __init__(self, prefactor: float, power: float, exponent_coefficient: float):
        self._set(prefactor, power, exponent_coefficient)
        if prefactor <= 0:
            raise ValueError("prefactor must be positive")

    def log_evaluate(self, n) -> float:
        return (
            math.log(self.prefactor)
            + self.power * math.log(n)
            + self.exponent_coefficient * math.sqrt(n)
        )


# The constant below is 2^(-7/4) 3^(-1/4), validated against the exact
# partition count to four digits at n = 10^4 (the seemingly simpler
# 2^(-1/2) 3^(-1/4) sometimes seen in print misses a factor 2^(5/4)).  The
# same factor separates AUTOMATON_ASYMPTOTE's 2^(5/4) from the 2^(5/2) of the
# paper's abstract: the exact gamma(n) over the abstract's term tends to 2^(-5/4).
Q_ASYMPTOTE = AsymptoteSpec(2**-1.75 * 3**-0.25, -0.75, BETA)
WORD_ASYMPTOTE = AsymptoteSpec(2**0.75 * 3**0.25 / PI, -0.25, BETA)
AUTOMATON_ASYMPTOTE = AsymptoteSpec(2**1.25 * 3**0.75 / PI**2, 0.25, BETA)
BALL_ASYMPTOTE = AsymptoteSpec(2**2.25 * 3**0.75 / PI**2, 0.25, BETA)


# q-form constants: delta(n) ~ WORD_QFORM sqrt(n) q(n), gamma(n) ~ AUTOMATON_QFORM n q(n)
# and gamma_S(n) ~ BALL_QFORM n q(n).  The CLI's ratio columns divide by them.
WORD_QFORM = 4 * math.sqrt(6) / PI
AUTOMATON_QFORM = 24 / PI**2
BALL_QFORM = 48 / PI**2
