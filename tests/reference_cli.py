"""Reference text of the CLI's numeric reports, for tests.

Each ratio is printed as ``round(x, 6)`` and then its repr, by ``str`` for
CSV and by ``json.dumps`` for JSON lines; the CLI's own formatting must
print the same bytes.  The exact counts come from the library's public
functions.
"""

import json
import math

from mealygrowth import series, tables

GROWTH_KEYS = ("n", "delta", "gamma", "gamma_ball", "q",
               "delta_ratio", "gamma_ratio", "ball_ratio")
QUOTIENT_KEYS = ("n", "order", "formula", "match", "hausdorff_term")


def _lines(keys, rows, fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(dict(zip(keys, row))) + "\n" for row in rows)
    if not rows:  # the header goes out with the first row
        return ""
    return "".join(",".join(map(str, row)) + "\n" for row in [keys, *rows])


def reference_growth_output(N: int, fmt: str) -> str:
    """stdout of ``growth --N N --format fmt``: n = 1..N, a blank ratio where q(n) = 0."""
    q, rows = series.growth_series(N)
    cw, ca, cb = series.WORD_QFORM, series.AUTOMATON_QFORM, series.BALL_QFORM
    out = []
    for n, (d, g, b) in enumerate(rows):
        if not n:
            continue
        if q[n]:
            ratios = (round(d / q[n] / (cw * math.sqrt(n)), 6),
                      round(g / q[n] / (ca * n), 6), round(b / q[n] / (cb * n), 6))
        else:
            ratios = ("",) * 3
        out.append((n, d, g, b, q[n], *ratios))
    return _lines(GROWTH_KEYS, out, fmt)


def reference_quotient_output(n: int, fmt: str) -> str:
    """stdout of ``quotient --n n --format fmt`` when the order matches the formula."""
    order = tables.i2_quotient_order_formula(n)
    row = (n, order, order, True, round(tables.hausdorff_sequence(n)[-1], 6))
    return _lines(QUOTIENT_KEYS, [row], fmt)
