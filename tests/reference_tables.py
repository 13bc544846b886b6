"""The flat-array table route, kept as a reference for tests.

An element is the list of its m^k packed output words, indexed by packed
input word (first letter in the most significant digit).  State tables are
built level by level, a product is a gather (``f o g`` is ``f[g[x]]``),
and the BFS dedupes elements on the tuple of their outputs.  This is the
route ``mealygrowth.tables`` took before elements became interned wreath
nodes; tests compare the two.
"""

from __future__ import annotations

_UNSEEN = -1


def reference_state_tables(a, k: int) -> list[list[int]]:
    """Output lists at level k for every state, built level by level."""
    m = a.alphabet_size
    tabs = [[0] for _ in range(a.state_count)]
    for level in range(1, k + 1):
        chunk = m ** (level - 1)
        new = []
        for q in range(a.state_count):
            parts = [
                [a.outputs[q][x] * chunk + v for v in tabs[a.transitions[q][x]]]
                for x in range(m)
            ]
            new.append([v for part in parts for v in part])
        tabs = new
    return tabs


def reference_compose(f: list[int], g: list[int]) -> list[int]:
    """f o g: apply g first."""
    return [f[v] for v in g]


def reference_word_table(a, word, k: int) -> list[int]:
    arrs = reference_state_tables(a, k)
    result = list(range(a.alphabet_size**k))
    # rightmost factor acts first: fold left-to-right so that the table
    # becomes arrs[q0][arrs[q1][...x]]
    for q in word:
        result = reference_compose(result, arrs[q])
    return result


def reference_enumerate(gens: list[list[int]], max_depth=None):
    """(layer_sizes, cumulative, sphere_sizes) of the BFS closure
    of the monoid generated by ``gens`` (identity included)."""
    ident = list(range(len(gens[0])))
    # minimal reachable length per parity (even slot, odd slot)
    dist: dict[tuple, list[int]] = {tuple(ident): [0, _UNSEEN]}
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
            for g in gens:
                prod = reference_compose(arr, g)
                key = tuple(prod)
                rec = dist.get(key)
                if rec is None:
                    dist[key] = rec = [_UNSEEN, _UNSEEN]
                    rec[par] = depth
                    new_elements += 1
                    new_frontier.append((prod, True))
                elif rec[par] == _UNSEEN:
                    rec[par] = depth
                    new_frontier.append((prod, False))
        layer_sizes.append(new_elements)
        cumulative.append(cumulative[-1] + new_elements)
        frontier = new_frontier

    sphere_sizes = _sphere_counts(dist.values(), len(cumulative) - 1)
    return layer_sizes, cumulative, sphere_sizes


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
