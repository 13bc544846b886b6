"""Reference series routes for tests: the Euler-product DP and the list route.

q(0..N) by multiplying out (1 + X)(1 + X^3)(1 + X^5)... one odd part at a
time, in O(N^2).  Tests compare ``mealygrowth.odd_distinct_partitions``
against it.  ``reference_growth_rows`` builds the growth series as whole
lists, by the products and divisions that ``series._derive_rows`` streams.
"""

from itertools import accumulate

from mealygrowth.series import multiply_sparse


def reference_odd_distinct_partitions(N: int) -> list[int]:
    c = [0] * (N + 1)
    c[0] = 1
    for part in range(1, N + 1, 2):
        for i in range(N, part - 1, -1):
            c[i] += c[i - part]
    return c


def divide_one_minus_xk(c: list[int], k: int) -> list[int]:
    """Multiply by 1/(1 - X^k): a running sum over each residue class mod k."""
    if k < 1:
        raise ValueError("k must be positive")
    out = list(c)
    for r in range(k):
        out[r::k] = accumulate(out[r::k])
    return out


def reference_growth_rows(q: list[int]) -> list[tuple[int, int, int]]:
    """(delta(n), gamma(n), gamma_S(n)) for n < len(q), each series a whole list.

    Delta = (1+X)(1 + X/(1-X) Psi(X)), Gamma = Delta/(1-X^2) and
    Gamma_S = Delta/(1-X).
    """
    core = divide_one_minus_xk(multiply_sparse(q, [(1, 1)]), 1)
    core[0] += 1
    delta = multiply_sparse(core, [(0, 1), (1, 1)])
    return list(zip(delta, divide_one_minus_xk(delta, 2), divide_one_minus_xk(delta, 1)))
