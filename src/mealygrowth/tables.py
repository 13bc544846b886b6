"""Exact enumeration oracle on finite tree levels.

A semigroup element is stored by its wreath recursion: a node is one
flat tuple, the m images of the first letter, then the ids of the m
section nodes one level down; state q of an automaton has the images
``outputs[q]`` and the sections ``transitions[q]``.  Every product
multiplies on the right by a state, (h o t)(xw) = h(t(x)) (h|t(x) o t|x)(w),
so at each level the id of h o t is read from t's right Cayley map one
level down.  A store interns nodes per level, so equal elements of one
level have one id, and fills its maps on demand.  A table holds its store:
a store lives exactly as long as some table in it, and every live table
shares it.

``enumerate_monoid`` keeps its own products as flat tuples, none
interned, each expanded at most once per parity, and forms each BFS depth
in bulk from the maps one level down.  A full closure builds every level
below bottom-up as dense right Cayley lists; a ball reads the maps of a
store of its own, which hold only the sections it meets.
"""

from __future__ import annotations

import math
import sys
import weakref
from array import array
from itertools import zip_longest
from operator import getitem, itemgetter

from . import series
from .errors import CapacityError, Value, VerificationError, gc_paused
from .mealy import I2, MealyAutomaton

MAX_ELEMENTS = 2_000_000
# a right map's miss recurses once per level, at three frames of the recursion limit
MAX_LEVEL = sys.getrecursionlimit() // 4


def _intern(level: tuple[list, dict], node: tuple[int, ...]) -> int:
    nodes, ids = level
    i = ids.setdefault(node, len(nodes))
    if i == len(nodes):
        nodes.append(node)
    return i


def _getter(indices: list[int]) -> itemgetter:
    """itemgetter of ``indices`` that returns a tuple, also for one index."""
    i = indices[0]
    return itemgetter(*indices) if len(indices) > 1 else itemgetter(slice(i, i + 1))


class _Right(dict):
    """id h -> id of h o t at one level, for one state t.  A miss forms h o t
    from t's images and the maps of t's sections one level down, then
    interns it."""

    __slots__ = ("level", "images", "sections", "below")

    def __init__(self, level: tuple[list, dict], out, below: list):
        self.level, self.below = level, below
        self.images, self.sections = _getter(out), _getter([len(out) + y for y in out])

    def __missing__(self, h: int) -> int:
        node = self.level[0][h]
        sections = map(getitem, self.below, self.sections(node))
        p = self[h] = _intern(self.level, self.images(node) + tuple(sections))
        return p


class _Store:
    """Interned wreath nodes, one id space per level: ``levels[j]`` is
    (nodes, ids), id -> flat tuple and back, and level 0's () has id 0.
    ``maps`` holds each automaton's right Cayley maps, one per level and
    state, keyed by its transitions and outputs, so labels do not matter."""

    def __init__(self):
        self.levels: list[tuple[list, dict]] = [([()], {(): 0})]
        self.maps: dict[tuple, list[list]] = {}

    def level(self, j: int) -> tuple[list, dict]:
        while len(self.levels) <= j:
            self.levels.append(([], {}))
        return self.levels[j]

    def right(self, a: MealyAutomaton, k: int) -> list[_Right]:
        """right(a, k)[t][h] = id of h o t at level k, for each state t of ``a``."""
        # at level 0, () o t = ()
        maps = self.maps.setdefault((a.transitions, a.outputs), [[[0]] * a.state_count])
        for j in range(len(maps), k + 1):
            below = maps[-1]
            maps.append([_Right(self.level(j), out, [below[q] for q in nxt])
                         for out, nxt in zip(a.outputs, a.transitions)])
        return maps[k]

    def identity(self, m: int, k: int) -> int:
        """Level-k identity node over ``m`` letters."""
        node = 0
        for j in range(1, k + 1):
            node = _intern(self.level(j), tuple(range(m)) + (node,) * m)
        return node

    def __deepcopy__(self, memo):  # shared state: a deep-copied table views the same nodes
        return self

    def __reduce__(self):
        raise TypeError("a table's node store is shared state and cannot be pickled")


# the store every live table shares; it dies with the last of them (and starts dead)
_live_store = weakref.ref(_Store())


class TransformTable(Value):
    """Action of one semigroup element on all length-`level` words.

    A view of one node of ``store``; equal tables have equal nodes.
    """

    __slots__ = ("level", "alphabet_size", "node", "store")
    _unshown = ("store",)

    def __init__(self, level: int, alphabet_size: int, node: int, store: _Store):
        self._set(level, alphabet_size, node, store)

    @property
    def outputs(self) -> array:
        """Output words indexed by input word, packed first letter most significant."""
        k, m = self.level, self.alphabet_size
        if k * math.log2(m) > 24:  # the array has m**k entries
            raise CapacityError(f"level {k} over alphabet {m} exceeds packing capacity")
        levels, layers = self.store.levels, [{self.node}]
        for j in range(k, 0, -1):  # layers[i] holds the ids at level k - i
            layers.append({s for h in layers[-1] for s in levels[j][0][h][m:]})
        words, chunk = {0: [0]}, 1  # each node's packed outputs, from level 1 up
        for (nodes, _), layer in zip(levels[1:], reversed(layers[:-1])):
            words = {
                h: [y * chunk + v for y, s in zip(nodes[h][:m], nodes[h][m:]) for v in words[s]]
                for h in layer
            }
            chunk *= m
        return array("q", words[self.node])


def check_level(k: int):
    """Refuse a level the recursive node store cannot build (``MAX_LEVEL``)."""
    if k < 0:
        raise ValueError("level must be non-negative")
    if k > MAX_LEVEL:
        raise CapacityError(f"level {k} exceeds the recursion bound {MAX_LEVEL}")


def table_of(a: MealyAutomaton, q: int, k: int) -> TransformTable:
    """Level-k restriction of the transformation induced by state q."""
    return word_table(a, (q,), k)  # hash-consing makes identity o f_q the node of f_q


def word_table(a: MealyAutomaton, word, k: int) -> TransformTable:
    """Level-k table of a product of states, leftmost factor applied last."""
    global _live_store
    check_level(k)
    for q in set(word):  # once per state, not per letter
        if not 0 <= q < a.state_count:
            raise ValueError(f"state {q} out of range")
    store = _live_store()
    if store is None:
        store = _Store()
        _live_store = weakref.ref(store)
    right = store.right(a, k)
    h = store.identity(a.alphabet_size, k)
    # rightmost factor acts first: the left-to-right walk gives f_q0 o f_q1 o ...
    for q in word:
        h = right[q][h]
    return TransformTable(k, a.alphabet_size, h, store)


class GrowthLayers(Value):
    """Ball/sphere/word growth data of one BFS enumeration.

    ``layer_sizes[d]`` counts elements first reached at depth d (word
    growth of the enumerated quotient), ``cumulative[d]`` is the ball
    size, and ``sphere_sizes[d]`` counts elements with a representation
    of length <= d and of d's parity.  That is the number of products of
    exactly d generators when some generator is an involution (I2's f0).
    """

    __slots__ = ("layer_sizes", "cumulative", "sphere_sizes", "saturated")

    def __init__(self, layer_sizes: list, cumulative: list, sphere_sizes: list, saturated: bool):
        self._set(layer_sizes, cumulative, sphere_sizes, saturated)

    @property
    def element_count(self) -> int:
        return self.cumulative[-1]


def _right_products(nodes, row, below):
    """h o t as a flat tuple for each h in ``nodes``, formed in bulk: state t has
    the row (images, successors), and below[q][s] is the id of s o q one level
    down.  (h o t)(xw) = h(t(x)) (h|t(x) o t|x)(w)."""
    out, nxt = row
    m = len(out)
    return zip(*[map(itemgetter(y), nodes) for y in out],
               *[map(below[q].__getitem__, map(itemgetter(m + y), nodes)) for y, q in zip(out, nxt)])


def _right_cayley(a: MealyAutomaton, level: int) -> list[list[int]]:
    """right[t][i] = id of element i o state t in the level quotient of ``a``'s
    monoid; ids are dense, in BFS order from the identity, id 0.  Built
    bottom-up: a level's elements and ids are dropped once the level above is."""
    rows = list(zip(a.outputs, a.transitions))
    ident = tuple(range(a.alphabet_size)) + (0,) * a.alphabet_size
    right = [[0] for _ in rows]  # level 0 has one element, ()
    for _ in range(level):
        below, right = right, [[] for _ in rows]
        ids, frontier = {ident: 0}, [ident]
        while frontier:
            new_frontier = []
            for row, col in zip(rows, right):  # a frontier's products per state
                for prod in _right_products(frontier, row, below):
                    i = ids.get(prod)
                    if i is None:
                        if len(ids) >= MAX_ELEMENTS:
                            raise CapacityError(f"element count exceeded cap {MAX_ELEMENTS}")
                        i = ids[prod] = len(ids)
                        new_frontier.append(prod)
                    col.append(i)
            frontier = new_frontier
    return right


@gc_paused
def enumerate_monoid(a: MealyAutomaton, level: int, max_depth: int | None = None,
                     spheres: bool = True) -> GrowthLayers:
    """BFS closure of the level quotient of ``a``'s monoid (identity included).

    An element is its flat node tuple, so equality is exact, and each depth's
    products are formed in bulk from the right Cayley maps one level down.
    A full closure (no ``max_depth``, as ``quotient`` runs it) meets every
    element of every level below, so it builds their dense lists bottom-up
    (``_right_cayley``).  A ball (``max_depth``, as the stabilization oracle
    runs it) meets only the sections within its radius, where every level
    below in full could be far over the cap, so it reads the lazy maps of a
    store local to this call.  When ``spheres`` is set, an element is
    expanded again when first reached at the other length parity;
    ``sphere_sizes`` is as described in ``GrowthLayers``.  Recording more
    than ``MAX_ELEMENTS`` elements, at any level, raises ``CapacityError``.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    check_level(level)
    # level 0's () has no images to read; a one-letter automaton with as many
    # states has the same one-element quotient at level 1
    if not level:
        a, level = MealyAutomaton(1, ((0,),) * a.state_count, ((0,),) * a.state_count), 1
    gens = list(zip(a.outputs, a.transitions))
    ident = tuple(range(a.alphabet_size)) + (0,) * a.alphabet_size  # id 0: identity below
    if max_depth is None:
        below = _right_cayley(a, level - 1)
    else:
        store = _Store()  # the BFS's own products are neither memoized nor interned
        store.identity(a.alphabet_size, level - 1)  # first at every level, so id 0
        below = store.right(a, level - 1)
    # bit p of seen[x]: x is the product of some word of a length of parity p
    seen = {ident: 1}
    frontier = [ident]
    layer_sizes, cumulative, sphere_sizes = [1], [1], [1]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        bit = 1 << (depth & 1)
        new_frontier = []
        for g in gens:
            for prod in _right_products(frontier, g, below):
                bits = seen.get(prod)
                if bits is None:
                    if len(seen) >= MAX_ELEMENTS:
                        raise CapacityError(f"element count exceeded cap {MAX_ELEMENTS}")
                    seen[prod] = bit
                elif spheres and not bits & bit:
                    seen[prod] = bits | bit
                else:
                    continue
                new_frontier.append(prod)
        layer_sizes.append(len(seen) - cumulative[-1])
        cumulative.append(len(seen))
        sphere_sizes.append(len(new_frontier))
        frontier = new_frontier
    # the depth-d frontier holds the elements first reached in d's parity at
    # depth d, so sphere(d) sums the frontier sizes at depths d, d-2, ...
    for d in range(2, len(sphere_sizes)):
        sphere_sizes[d] += sphere_sizes[d - 2]
    return GrowthLayers(layer_sizes, cumulative, sphere_sizes if spheres else [], not frontier)


def stabilized_growth_table(a: MealyAutomaton, nmax: int) -> list[tuple[int, int]]:
    """(sphere, ball) sizes of I2 at radii 0..nmax, by BFS at the stabilization level.

    Level k's counts equal the monoid's through radius 2k-1 and first
    differ at radius 2k (checked for k <= 21), so floor(nmax/2)+1 is the
    least level that serves every n <= nmax.  The BFS never reads the
    series; each depth's new elements and row are then compared with
    (delta(n), gamma(n), gamma_S(n)), and ``VerificationError`` names the
    first radius where they differ.  A level too shallow merges elements,
    so its counts fall below the true ones, and the comparison catches
    that.  The level rule comes from I2's normal forms, and the BFS spheres
    are exact-length counts because I2's f0 is an involution, so ``a`` must
    have I2's transitions and outputs; its labels are ignored.
    """
    if (a.transitions, a.outputs) != (I2.transitions, I2.outputs):
        raise ValueError("the stabilization oracle holds only for I2")
    if nmax < 1:
        raise ValueError("radius must be >= 1")
    check_level(nmax // 2 + 1)  # before the series, which grows with nmax
    wants = list(series.growth_series(nmax)[1])  # (delta, gamma, gamma_S) by radius
    if wants[-1][2] > MAX_ELEMENTS:  # the BFS would store that many elements
        raise CapacityError(f"element count {wants[-1][2]} exceeds cap {MAX_ELEMENTS}")
    # I2 has new elements at every radius, so the run reaches depth nmax
    layers = enumerate_monoid(a, nmax // 2 + 1, max_depth=nmax)
    rows = zip(layers.layer_sizes, layers.sphere_sizes, layers.cumulative)
    for n, (row, want) in enumerate(zip_longest(rows, wants)):
        if row != want:
            raise VerificationError(f"BFS growth counts disagree with the series at radius {n}")
    return list(zip(layers.sphere_sizes, layers.cumulative))


def spherical_growth_oracle(a: MealyAutomaton, n: int) -> int:
    """Number of distinct products of exactly n generators of I2."""
    return stabilized_growth_table(a, n)[n][0]


def ball_growth_oracle(a: MealyAutomaton, n: int) -> int:
    """Number of distinct products of at most n generators of I2."""
    return stabilized_growth_table(a, n)[n][1]


def i2_quotient_order_formula(n: int) -> int:
    """Closed-form order of the level-n quotient of the I2 monoid."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return 2 + (2 * n - 1) * 2**n


def hausdorff_sequence(K: int) -> list[float]:
    """log|S_n| / log|End_n| for n = 1..K (binary tree, I2 quotients)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return [
        math.log(i2_quotient_order_formula(n)) / ((2**n - 1) * math.log(4))
        for n in range(1, K + 1)
    ]
