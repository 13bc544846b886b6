"""Command-line interface.

Words over the two generators are typed as strings of 0 (the involution
f0) and 1 (the non-invertible generator f1), e.g. ``10110`` = f1 f0 f1 f1
f0.  Numeric reports come out as CSV or JSON lines, one object per row,
ordered by n; big integers are always printed in full decimal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from itertools import repeat
from operator import add

from . import mealy, rewrite, series, tables
from .errors import CapacityError, VerificationError


def _emit_rows(keys: tuple[str, ...], rows, fmt: str):
    """Stream ``rows``, tuples of cells in ``keys`` order, as CSV or JSON lines.

    Every line fills one template built from the keys, so an int prints in
    full decimal, as ``json.dumps`` would print it; no cell is a float, and
    every other cell must already be its text for ``fmt`` (see ``_text``,
    ``_six_places``).
    Each line goes to stdout as it is formatted, so ``rows`` can be a
    generator and one line is held.  CSV writes its header with the first
    row, and nothing when there is no row.
    """
    if fmt == "json":
        line = "{" + ", ".join(f'"{k}": %s' for k in keys) + "}\n"
        head = ""
    else:
        line = ",".join(["%s"] * len(keys)) + "\n"
        head = ",".join(keys) + "\n"
    for row in rows:
        sys.stdout.write(head + line % row)
        head = ""


def _text(value, fmt: str) -> str:
    """A cell that is not a number (a bool, or "" for no value) as ``fmt`` prints it."""
    return json.dumps(value) if fmt == "json" else str(value)


def _six_places(x: float) -> str:
    """The text ``repr(round(x, 6))`` prints, from one conversion where that is exact.

    Python converts floats to decimal and back correctly rounded, so
    ``'%.6f' % x`` has the digits of ``round(x, 6)``.  For 1e-4 <= x < 1e9
    those are at most 15 significant digits, which name one double and come
    back as its shortest repr, and repr uses no exponent there; so cutting
    the trailing zeros gives repr's text.  Elsewhere the two can differ (from
    about 2**32 a double's repr can be shorter than its six places), so other
    values take the two-step route.
    """
    if 1e-4 <= x < 1e9:
        text = ("%.6f" % x).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(x, 6))


# --- growth ----------------------------------------------------------------

_GROWTH_KEYS = ("n", "delta", "gamma", "gamma_ball", "q",
                "delta_ratio", "gamma_ratio", "ball_ratio")


def _growth_rows(q, rows, blank):
    """Rows of the growth table from ``growth_series``; each ratio divides the exact ints first.

    Python rounds an int / int true division correctly for ints of any size,
    so a ratio stays finite after q(n) passes the double range.
    """
    cw, ca, cb = series.WORD_QFORM, series.AUTOMATON_QFORM, series.BALL_QFORM
    next(rows)  # n = 0 is not printed
    for n, (d, g, b) in enumerate(rows, 1):
        qn = q[n]
        if qn:
            yield (n, d, g, b, qn, _six_places(d / qn / (cw * math.sqrt(n))),
                   _six_places(g / qn / (ca * n)), _six_places(b / qn / (cb * n)))
        else:
            yield n, d, g, b, qn, blank, blank, blank


def cmd_growth(args) -> int:
    keys, oracle = _GROWTH_KEYS, None
    if args.oracle and args.N >= 1:  # first: an oversized request fails before any series
        keys += ("oracle_gamma", "oracle_ball")
        oracle = tables.stabilized_growth_table(mealy.I2, args.N)[1:]
    rows = _growth_rows(*series.growth_series(args.N), _text("", args.format))
    # every row and the oracle are checked; the rows are derived again as they print
    _emit_rows(keys, map(add, rows, oracle) if oracle else rows, args.format)
    return 0


# --- word problem ------------------------------------------------------------

def cmd_reduce(args) -> int:
    nf, steps = rewrite.reduce_detailed(rewrite.parse_word(args.word))
    print(rewrite.format_word(rewrite.nf_to_word(nf)))
    if args.verbose:
        print(f"normal form: {nf.describe()}  relation applications: {steps}",
              file=sys.stderr)
    return 0


def cmd_equal(args) -> int:
    w1, w2 = rewrite.parse_word(args.word1), rewrite.parse_word(args.word2)
    if args.n is None:
        same = rewrite.words_equal(w1, w2)
    else:
        same = rewrite.words_equal_quotient(w1, w2, args.n)
    print("true" if same else "false")
    return 0


def cmd_quotient(args) -> int:
    if args.depth is not None and args.depth < 0:
        raise ValueError("depth must be non-negative")
    n = args.n
    tables.check_level(max(n, 1))  # before 2**n; the formula refuses n < 1 itself
    formula = tables.i2_quotient_order_formula(n)
    if formula > tables.MAX_ELEMENTS:  # fail fast, before the BFS stores them
        raise CapacityError(f"element count {formula} exceeds cap {tables.MAX_ELEMENTS}")
    layers = tables.enumerate_monoid(mealy.I2, n)
    order = layers.element_count
    term = math.log(order) / ((2**n - 1) * math.log(4))
    row = (n, order, formula, _text(order == formula, args.format), _six_places(term))
    _emit_rows(("n", "order", "formula", "match", "hausdorff_term"), [row], args.format)
    if args.depth is not None:
        # the first depth+1 rows of the full BFS are those of a depth-limited one
        detail = zip(repeat(n), range(args.depth + 1), layers.cumulative,
                     layers.sphere_sizes, layers.layer_sizes)
        _emit_rows(("level", "depth", "ball", "sphere", "new"), detail, args.format)
    return 0 if order == formula else 1


# --- verification suites -----------------------------------------------------

def _suite_relations(args):
    for flag in ("pmax", "nmax"):
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be non-negative")
    if args.level < 1:  # every level-0 table is the empty map
        raise ValueError("--level must be at least 1")
    # before the first line; the left-zero check at n also builds level n+1
    tables.check_level(max(args.level, args.nmax + 1))
    held = tables.word_table(mealy.I2, (), args.level)  # so every relation's tables share a store
    for p in range(args.pmax + 1):
        yield f"relation r_{p} at level {args.level}", rewrite.verify_relation(p, args.level)
    del held  # the left-zero checks span levels: each builds a store of its own
    for n in range(1, args.nmax + 1):
        holds, fails = rewrite.verify_left_zero(n)
        yield f"left zero at level {n}", holds and fails


def _suite_series(args):
    # the library runs these checks and raises VerificationError if one fails
    series.growth_series(args.N)
    yield "q: Durfee sum = eta quotient (X^2;X^2)^2 / ((X;X)(X^4;X^4))", True
    for name in ("Delta", "Gamma", "Gamma_S"):
        yield f"{name}: series route = closed form", True


def _suite_oracle(args):
    if args.nmax < 1:
        raise ValueError("--nmax must be at least 1")
    # the library compares every row with the series and raises VerificationError
    tables.stabilized_growth_table(mealy.I2, args.nmax)
    for n in range(1, args.nmax + 1):
        yield f"oracle agreement at n={n}", True


def _suite_width(args):
    import random

    if args.count < 1:
        raise ValueError("--count must be at least 1")
    rng = random.Random(args.seed)
    for i in range(args.count):
        word = [rng.randint(0, 1) for _ in range(rng.randint(1, 30))]
        p = rng.randint(0, 3)
        lhs, rhs = rewrite.relation_sides(p)
        pos = rng.randrange(len(word) + 1)
        w1 = tuple(word[:pos]) + lhs + tuple(word[pos:])
        w2 = tuple(word[:pos]) + rhs + tuple(word[pos:])
        if rewrite.width(w1) != rewrite.width(w2):
            yield f"width differs across r_{p} (trial {i})", False
            return
    yield f"width invariant over {args.count} random rewrites", True


def cmd_verify(args) -> int:
    failures = 0
    for name, ok in args.checks(args):
        print(json.dumps({"check": name, "pass": bool(ok)}))
        failures += not ok
    print(f"{args.suite}: {'pass' if failures == 0 else f'{failures} failure(s)'}",
          file=sys.stderr)
    return 0 if failures == 0 else 1


# --- automaton file actions ----------------------------------------------------

def cmd_automaton(args) -> int:
    a = mealy.load_automaton(args.file)
    if args.action == "invertible":
        print("true" if mealy.is_invertible(a) else "false")
    elif args.action == "minimize":
        sys.stdout.write(mealy.format_automaton(mealy.minimize(a)))
    elif args.action == "growth":
        counts = mealy.automaton_growth(a, args.N)
        print(",".join(str(c) for c in counts))
    elif args.action == "product":
        b = mealy.load_automaton(args.with_file)
        sys.stdout.write(mealy.format_automaton(mealy.product(a, b)))
    return 0


# --- argument parsing -----------------------------------------------------------

@cache  # built once per process; each parse returns a new Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mealygrowth",
        description="Growth of the smallest intermediate-growth Mealy automaton.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="growth table: delta, gamma, ball, q, ratios")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="add BFS oracle columns")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("reduce", help="normal form of a generator word")
    p.add_argument("word")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equal", help="decide equality of two generator words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--n", type=int, default=None,
                   help="compare in the level-n quotient instead")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("quotient", help="order and Hausdorff term of a level quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=None,
                   help="also print level,depth,ball,sphere,new rows")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_quotient)

    # each suite and each action accepts only the flags it reads
    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(func=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    p = suites.add_parser("oracle")
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(checks=_suite_oracle)
    p = suites.add_parser("relations")
    p.add_argument("--pmax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--level", type=int, default=12)
    p.set_defaults(checks=_suite_relations)
    p = suites.add_parser("series")
    p.add_argument("--N", type=int, default=2000)
    p.set_defaults(checks=_suite_series)
    p = suites.add_parser("width")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(checks=_suite_width)

    p = sub.add_parser("automaton", help="operate on an automaton file")
    p.add_argument("file")
    p.set_defaults(func=cmd_automaton)
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("growth").add_argument("--N", type=int, default=5)
    actions.add_parser("minimize")
    actions.add_parser("invertible")
    actions.add_parser("product").add_argument(
        "--with", dest="with_file", required=True, metavar="FILE")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # a MemoryError usually carries no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
