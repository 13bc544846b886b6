"""String rewriting for the two-generator transformation monoid of I2.

Generator words are sequences over {0, 1} standing for the two generators
(0 = the involution, 1 = the non-invertible generator).  The defining
relations are ``00 = empty`` and, for every p >= 0,

    r_p:  1 (01)^p (10)^p 11  =  1 (01)^p (10)^p

equivalently, for p >= 1,  1 (01)^p 1 (01)^p 1  =  1 (01)^p 1 (01)^{p-1} 0.

Every element has a canonical minimal word: empty, ``0``, or

    0^e1  1 (01)^{p_1} 1 (01)^{p_2} 1 ... (01)^{p_k} 1 (01)^{tail}  0^e2

with strictly increasing exponents p_1 < ... < p_k.  The word problem is
decided in one left-to-right pass, linear in the word length: each letter
applies at most one relation, every application shortens the word by two
letters, so applications are counted as, and bounded by, half the length
drop.
"""

from __future__ import annotations

from . import tables
from .errors import Value, VerificationError
from .mealy import I2, MealyAutomaton


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a CLI word string over {0, 1}."""
    out = []
    for pos, ch in enumerate(text):
        if ch not in "01":
            raise ValueError(f"invalid generator {ch!r} at position {pos}")
        out.append(int(ch))
    return tuple(out)


def format_word(word) -> str:
    return "".join(str(c) for c in word)


class NormalForm(Value):
    """Base class for the three canonical-word variants."""

    __slots__ = ()


class One(NormalForm):
    """The monoid identity (empty word)."""

    word_length = 0

    def describe(self) -> str:
        return "one"


class JustF0(NormalForm):
    """The involution generator alone."""

    word_length = 1

    def describe(self) -> str:
        return "f0"


class General(NormalForm):
    """Canonical word containing at least one f1.

    ``exponents`` are the strictly increasing p_1 < ... < p_k; ``tail`` is
    the final exponent p_{k+1} (unconstrained).
    """

    __slots__ = ("eps1", "exponents", "tail", "eps2")

    def __init__(self, eps1: int, exponents: tuple[int, ...], tail: int, eps2: int):
        self._set(eps1, exponents, tail, eps2)
        if eps1 not in (0, 1) or eps2 not in (0, 1):
            raise ValueError("eps1/eps2 must be 0 or 1")
        if tail < 0 or any(p < 0 for p in exponents):
            raise ValueError("exponents must be non-negative")
        if any(a >= b for a, b in zip(exponents, exponents[1:])):
            raise ValueError("exponents must be strictly increasing")

    @property
    def word_length(self) -> int:
        f1_block = 1 + sum(2 * p + 1 for p in self.exponents)
        return self.eps1 + f1_block + 2 * self.tail + self.eps2

    def describe(self) -> str:
        exps = ",".join(str(p) for p in self.exponents)
        return f"e1={self.eps1};p=[{exps}];tail={self.tail};e2={self.eps2}"


ONE = One()
F0 = JustF0()


def nf_to_word(nf: NormalForm) -> tuple[int, ...]:
    if isinstance(nf, One):
        return ()
    if isinstance(nf, JustF0):
        return (0,)
    word = [0] * nf.eps1 + [1]
    for p in nf.exponents:
        word += [0, 1] * p + [1]
    word += [0, 1] * nf.tail + [0] * nf.eps2
    return tuple(word)


def _stream_reduce(word) -> tuple[NormalForm, int, int]:
    """One left-to-right pass: (normal form, relation applications, letters).

    After each letter the state is the normal form of the prefix read so
    far, 0^eps1 1 (01)^{p_1} 1 ... (01)^{p_k} 1 (01)^{tail} 0^{pending},
    with p_1 < ... < p_k on ``stack``.  A new letter triggers at most one
    relation, after which the state is a normal form again, so each letter
    costs O(1).
    """
    eps1 = 0
    started = False
    stack: list[int] = []
    tail = 0
    pending = False
    steps = 0
    letters = 0
    for c in word:
        letters += 1
        if c == 0:
            if pending:  # 00 = empty
                pending = False
                steps += 1
            elif started:
                pending = True
            elif eps1:  # 00 = empty, before the first f1
                eps1 = 0
                steps += 1
            else:
                eps1 = 1
        elif c == 1:
            if pending:  # extend the open block by 01
                pending = False
                tail += 1
            elif not started:
                started = True
            elif tail and stack and stack[-1] >= tail:
                # r_p with p = tail: 1 (01)^p 1 (01)^p 1 = 1 (01)^p 1 (01)^{p-1} 0
                tail -= 1
                pending = True
                steps += 1
            elif not tail and stack:
                # 111 = 1: the last closed block reopens
                tail = stack.pop()
                steps += 1
            else:
                stack.append(tail)
                tail = 0
        else:
            raise ValueError(f"invalid generator {c!r}")
    if not started:
        return (F0 if eps1 else ONE), steps, letters
    return General(eps1, tuple(stack), tail, int(pending)), steps, letters


def reduce_detailed(word) -> tuple[NormalForm, int]:
    """Reduce to normal form; also return the number of relation applications.

    The decider is one left-to-right pass, linear in the word length.
    Every application (00-cancellation, 111-collapse, or r_p) shortens the
    word by exactly two letters, so the count is half the length drop and
    at most len(word)//2; both facts are checked on every call.
    """
    nf, steps, letters = _stream_reduce(word)
    budget = letters // 2
    if steps > budget:
        raise VerificationError(f"{steps} relation applications exceed the bound {budget}")
    if 2 * steps != letters - nf.word_length:
        raise VerificationError(
            f"{steps} relation applications do not account for the length drop "
            f"{letters} -> {nf.word_length}"
        )
    return nf, steps


def reduce(word) -> NormalForm:
    """Canonical minimal form of a generator word."""
    return reduce_detailed(word)[0]


def reduce_quotient(word, n: int) -> NormalForm:
    """Normal form in the quotient acting on length-n words.

    Any exponent reaching n-1 makes the prefix up to it a left-side zero,
    which absorbs the rest of the word.
    """
    if n < 1:
        raise ValueError("quotient level must be >= 1")
    nf = reduce(word)
    if not isinstance(nf, General):
        return nf
    for i, p in enumerate(nf.exponents):
        if p >= n - 1:
            return General(nf.eps1, nf.exponents[:i], n - 1, 0)
    if nf.tail + nf.eps2 > n - 1:
        return General(nf.eps1, nf.exponents, n - 1, 0)
    return nf


def words_equal(w1, w2) -> bool:
    return reduce(w1) == reduce(w2)


def words_equal_quotient(w1, w2, n: int) -> bool:
    return reduce_quotient(w1, n) == reduce_quotient(w2, n)


def relation_sides(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left- and right-hand words of the defining relation r_p."""
    if p < 0:
        raise ValueError("p must be non-negative")
    lhs = (1,) + (0, 1) * p + (1, 0) * p + (1, 1)
    rhs = (1,) + (0, 1) * p + (1, 0) * p
    return lhs, rhs


def left_zero_word(n: int) -> tuple[int, ...]:
    """The left-side zero of the level-n quotient: f1 (f0 f1)^(n-1)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return (1,) + (0, 1) * (n - 1)


def verify_relation(p: int, k: int) -> bool:
    """Check r_p by comparing level-k tables of both sides."""
    lhs, rhs = relation_sides(p)
    return tables.word_table(I2, lhs, k) == tables.word_table(I2, rhs, k)


def verify_left_zero(n: int) -> tuple[bool, bool]:
    """(z absorbs at level n and is the constant map to x1^n,
       both absorption equations fail at level n+1)."""
    z = left_zero_word(n)
    zt = tables.word_table(I2, z, n)
    holds = (
        zt == tables.table_of(MealyAutomaton(2, ((0, 0),), ((1, 1),)), 0, n)  # constant x1^n
        and tables.word_table(I2, z + (0,), n) == zt
        and tables.word_table(I2, z + (1,), n) == zt
    )
    zt1 = tables.word_table(I2, z, n + 1)
    fails = (
        tables.word_table(I2, z + (0,), n + 1) != zt1
        and tables.word_table(I2, z + (1,), n + 1) != zt1
    )
    return holds, fails


def width(word) -> int:
    """Spread of the alternating partial sums of f1-block sizes.

    Blocks are maximal groups of f1's separated by odd runs of f0's; an
    even f0-run (including none) closes a block.  Invariant under all
    defining relations; zero exactly for powers of f0.
    """
    total = lo = hi = sign = 0  # sign: the current block's; 0 before the first f1
    odd = False  # the f0-run since the last f1 is odd
    for c in word:
        if c == 1:
            if not odd:  # the first f1, or an even run closes a block
                sign = -sign or 1
            total += sign
            lo, hi = min(lo, total), max(hi, total)  # a block moves the sum one way
            odd = False
        elif c == 0:
            odd = bool(sign) and not odd
        else:
            raise ValueError(f"invalid generator {c!r}")
    return hi - lo


def _distinct_odd_exponent_sets(total, min_exp=0):
    """Strictly increasing exponent tuples p with sum(2p+1) == total."""
    if total == 0:
        yield ()
        return
    e = min_exp
    while 2 * e + 1 <= total:
        for rest in _distinct_odd_exponent_sets(total - (2 * e + 1), e + 1):
            yield (e,) + rest
        e += 1


def normal_forms_of_length(n: int):
    """All normal forms whose canonical word has exactly n letters."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if n == 0:
        yield ONE
        return
    if n == 1:
        yield F0
    for eps1 in (0, 1):
        for eps2 in (0, 1):
            rest = n - eps1 - eps2 - 1
            tail = 0
            while 2 * tail <= rest:
                for exps in _distinct_odd_exponent_sets(rest - 2 * tail):
                    yield General(eps1, exps, tail, eps2)
                tail += 1


def enumerate_normal_forms(n: int) -> int:
    """Number of canonical words of length exactly n (the word growth)."""
    return sum(1 for _ in normal_forms_of_length(n))
