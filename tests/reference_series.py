"""Reference partition count for tests: the Euler-product DP.

q(0..N) by multiplying out (1 + X)(1 + X^3)(1 + X^5)... one odd part at a
time, in O(N^2).  Tests compare ``mealygrowth.odd_distinct_partitions``
against it.
"""


def reference_odd_distinct_partitions(N: int) -> list[int]:
    c = [0] * (N + 1)
    c[0] = 1
    for part in range(1, N + 1, 2):
        for i in range(N, part - 1, -1):
            c[i] += c[i - part]
    return c
