"""Exact enumeration oracle on finite tree levels.

A semigroup element is represented by its action on all length-k input
words: a flat array of m^k packed output words, indexed by packed input
word (first letter in the most significant digit).  Products are array
compositions, so element equality is plain array equality and the whole
quotient semigroup at level k can be walked by breadth-first search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, VerificationError
from .mealy import MealyAutomaton

MAX_LEVEL_BITS = 24

_UNSEEN = -1


class TransformTable:
    """Action of one semigroup element on all length-`level` words."""

    __slots__ = ("level", "alphabet_size", "outputs")

    def __init__(self, level: int, alphabet_size: int, outputs: np.ndarray, check: bool = True):
        self.level = level
        self.alphabet_size = alphabet_size
        self.outputs = outputs
        outputs.setflags(write=False)
        if check:
            self._validate()

    def _validate(self):
        m, k = self.alphabet_size, self.level
        size = m**k
        if len(self.outputs) != size:
            raise ValueError("output array length must be alphabet_size ** level")
        if size and (self.outputs.min() < 0 or self.outputs.max() >= size):
            raise ValueError("output entry out of range")
        # prefix compatibility: the first j digits of the output depend only
        # on the first j digits of the input
        arr = self.outputs
        for j in range(1, k):
            chunk = m ** (k - j)
            heads = (arr // chunk).reshape(m**j, chunk)
            if not (heads == heads[:, :1]).all():
                raise ValueError(f"table is not prefix-compatible at depth {j}")

    def __eq__(self, other):
        if not isinstance(other, TransformTable):
            return NotImplemented
        return (
            self.level == other.level
            and self.alphabet_size == other.alphabet_size
            and np.array_equal(self.outputs, other.outputs)
        )

    def __hash__(self):
        return hash((self.level, self.alphabet_size, self.outputs.tobytes()))

    def __repr__(self):
        return f"TransformTable(level={self.level}, m={self.alphabet_size})"

    def __call__(self, word) -> tuple[int, ...]:
        """Apply to a word of exactly `level` letters."""
        if len(word) != self.level:
            raise ValueError("word length must equal table level")
        return unpack_word(int(self.outputs[pack_word(word, self.alphabet_size)]),
                           self.level, self.alphabet_size)


def pack_word(word, m: int = 2) -> int:
    value = 0
    for x in word:
        value = value * m + x
    return value


def unpack_word(value: int, k: int, m: int = 2) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(value % m)
        value //= m
    return tuple(reversed(out))


def _check_level(m: int, k: int):
    if k < 0:
        raise ValueError("level must be non-negative")
    if k * math.log2(m) > MAX_LEVEL_BITS:
        raise CapacityError(f"level {k} over alphabet {m} exceeds packing capacity")


def state_table_arrays(a: MealyAutomaton, k: int) -> list[np.ndarray]:
    """Raw output arrays at level k for every state, built level by level."""
    _check_level(a.alphabet_size, k)
    m = a.alphabet_size
    tabs = [np.zeros(1, dtype=np.int64) for _ in range(a.state_count)]
    for level in range(1, k + 1):
        chunk = m ** (level - 1)
        new = []
        for q in range(a.state_count):
            parts = [
                a.outputs[q][x] * chunk + tabs[a.transitions[q][x]]
                for x in range(m)
            ]
            new.append(np.concatenate(parts))
        tabs = new
    return tabs


def table_of(a: MealyAutomaton, q: int, k: int) -> TransformTable:
    """Level-k restriction of the transformation induced by state q."""
    if not 0 <= q < a.state_count:
        raise ValueError(f"state {q} out of range")
    arr = state_table_arrays(a, k)[q]
    return TransformTable(k, a.alphabet_size, arr)


def identity_table(k: int, m: int = 2) -> TransformTable:
    _check_level(m, k)
    return TransformTable(k, m, np.arange(m**k, dtype=np.int64), check=False)


def compose(f: TransformTable, g: TransformTable) -> TransformTable:
    """f o g: apply g first.  Matches the juxtaposition convention."""
    if f.level != g.level or f.alphabet_size != g.alphabet_size:
        raise ValueError("tables must live on the same level and alphabet")
    return TransformTable(f.level, f.alphabet_size, f.outputs[g.outputs], check=False)


def word_table(a: MealyAutomaton, word, k: int) -> TransformTable:
    """Level-k table of a product of states, leftmost factor applied last."""
    arrs = state_table_arrays(a, k)
    result = np.arange(a.alphabet_size**k, dtype=np.int64)
    # rightmost factor acts first: fold left-to-right so that the table
    # becomes arrs[q0][arrs[q1][...x]]
    for q in word:
        result = result[arrs[q]]
    return TransformTable(k, a.alphabet_size, result, check=False)


@dataclass
class GrowthLayers:
    """Ball/sphere/word growth data of one BFS enumeration.

    ``layer_sizes[d]`` counts elements first reached at depth d (word
    growth of the enumerated quotient), ``cumulative[d]`` is the ball
    size, and ``sphere_sizes[d]`` counts elements expressible as a
    product of exactly d generators.  An element can lie in spheres of
    several depths of the same parity, hence the separate tracking.
    """

    level: int
    layer_sizes: list[int]
    cumulative: list[int]
    sphere_sizes: list[int]
    saturated: bool
    tables: list[TransformTable] | None = field(default=None, repr=False)

    @property
    def element_count(self) -> int:
        return self.cumulative[-1]


def enumerate_monoid(
    gens: list[TransformTable],
    max_depth: int | None = None,
    max_elements: int = 2_000_000,
    spheres: bool = True,
    keep_tables: bool = False,
) -> GrowthLayers:
    """BFS closure of the monoid generated by ``gens`` (identity included).

    Deduplication keys the dict on the packed output bytes, so equality is
    exact.  When ``spheres`` is set, the minimal product length of each
    element is tracked per length parity (relations can only change the
    length of a word by an even amount).
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    if not gens:
        raise ValueError("need at least one generator")
    level = gens[0].level
    m = gens[0].alphabet_size
    for g in gens:
        if g.level != level or g.alphabet_size != m:
            raise ValueError("generators must share level and alphabet")
    gen_arrays = [g.outputs for g in gens]

    ident = np.arange(m**level, dtype=np.int64)
    # minimal reachable length per parity (even slot, odd slot)
    dist: dict[bytes, list[int]] = {ident.tobytes(): [0, _UNSEEN]}
    kept = [TransformTable(level, m, ident, check=False)] if keep_tables else None
    frontier = [(ident, True)]  # (array, is_new_element)
    layer_sizes = [1]
    cumulative = [1]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        par = depth & 1
        new_frontier = []
        new_elements = 0
        for arr, _ in frontier:
            for g in gen_arrays:
                prod = arr[g]
                key = prod.tobytes()
                rec = dist.get(key)
                if rec is None:
                    dist[key] = rec = [_UNSEEN, _UNSEEN]
                    rec[par] = depth
                    new_elements += 1
                    new_frontier.append((prod, True))
                    if kept is not None:
                        kept.append(TransformTable(level, m, prod, check=False))
                elif spheres and rec[par] == _UNSEEN:
                    rec[par] = depth
                    new_frontier.append((prod, False))
        if len(dist) > max_elements:
            raise CapacityError(f"element count exceeded cap {max_elements}")
        layer_sizes.append(new_elements)
        cumulative.append(cumulative[-1] + new_elements)
        frontier = new_frontier

    saturated = not frontier
    sphere_sizes = _sphere_counts(dist.values(), len(cumulative) - 1) if spheres else []
    return GrowthLayers(level, layer_sizes, cumulative, sphere_sizes, saturated, kept)


def _sphere_counts(records, max_depth: int) -> list[int]:
    # sphere(d) = number of elements with a representation of length <= d
    # and of the same parity as d (padding with an even number of f0^2's)
    by_parity = ([], [])
    for rec in records:
        for par in (0, 1):
            if rec[par] != _UNSEEN:
                by_parity[par].append(rec[par])
    counts = []
    for par in (0, 1):
        hist = [0] * (max_depth + 2)
        for d in by_parity[par]:
            hist[d] += 1
        for i in range(1, len(hist)):
            hist[i] += hist[i - 1]
        counts.append(hist)
    return [counts[d & 1][d] for d in range(max_depth + 1)]


def quotient_order(a: MealyAutomaton, n: int, max_elements: int = 2_000_000) -> int:
    """Size of the quotient monoid acting on length-n words, by full BFS."""
    if n < 1:
        raise ValueError("level must be >= 1")
    gens = [table_of(a, q, n) for q in range(a.state_count)]
    layers = enumerate_monoid(gens, max_elements=max_elements, spheres=False)
    return layers.element_count


def stabilized_growth(a: MealyAutomaton, n: int) -> tuple[int, int]:
    """(sphere, ball) sizes at radius n, by BFS at the stabilization level.

    A product of n generators has normal-form exponents below n/2, and
    level k separates quotient normal forms with exponents under k-1, so
    floor(n/2)+2 suffices; the recomputation at the next level is a
    belt-and-braces check since faithfulness is only proven on infinite
    words, and a mismatch raises ``VerificationError``.
    """
    if n < 1:
        raise ValueError("radius must be >= 1")
    results = []
    for k in (n // 2 + 2, n // 2 + 3):
        gens = [table_of(a, q, k) for q in range(a.state_count)]
        layers = enumerate_monoid(gens, max_depth=n)
        results.append((layers.sphere_sizes[n], layers.cumulative[n]))
    if results[0] != results[1]:
        raise VerificationError(f"growth counts did not stabilize at radius {n}")
    return results[0]


def spherical_growth_oracle(a: MealyAutomaton, n: int) -> int:
    """Number of distinct products of exactly n generators."""
    return stabilized_growth(a, n)[0]


def ball_growth_oracle(a: MealyAutomaton, n: int) -> int:
    """Number of distinct products of at most n generators."""
    return stabilized_growth(a, n)[1]


def endomorphism_count(m: int, k: int) -> int:
    """Number of endomorphisms of the depth-k regular rooted m-ary tree."""
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    return m ** (m * (m**k - 1) // (m - 1))


def i2_quotient_order_formula(n: int) -> int:
    """Closed-form order of the level-n quotient of the I2 monoid."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return 2 + (2 * n - 1) * 2**n


def hausdorff_sequence(K: int) -> list[float]:
    """log|S_n| / log|End_n| for n = 1..K (binary tree, I2 quotients)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    terms = []
    for n in range(1, K + 1):
        terms.append(
            math.log(i2_quotient_order_formula(n)) / ((2**n - 1) * math.log(4))
        )
    return terms
