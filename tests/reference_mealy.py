"""References for tests of ``mealygrowth.mealy``.

``apply`` runs a state over a word letter by letter, so tests can compare
an automaton's tables with the transformations it induces.  ``power`` is
the n-fold left-associated ``product``.

``reference_minimize`` is Moore's round-by-round minimization.  Every
round recomputes the signature (own block, successor blocks) of every
state and renumbers the blocks by first occurrence, until a round leaves
the numbering unchanged.  ``mealygrowth.mealy`` minimizes by Hopcroft's
partition refinement instead (``mealy._refine``, behind ``minimize`` and
``automaton_growth``); tests compare the two routes.
"""

from __future__ import annotations

from mealygrowth.mealy import MealyAutomaton, product


def apply(a: MealyAutomaton, q: int, word) -> tuple[int, ...]:
    """Run the transducer from state ``q`` over ``word``; returns the output word."""
    if not 0 <= q < a.state_count:
        raise ValueError(f"state {q} out of range")
    out = []
    cur = q
    for x in word:
        if not 0 <= x < a.alphabet_size:
            raise ValueError(f"letter {x} out of range for alphabet of size {a.alphabet_size}")
        out.append(a.outputs[cur][x])
        cur = a.transitions[cur][x]
    return tuple(out)


def power(a: MealyAutomaton, n: int) -> MealyAutomaton:
    """n-fold left-associated product of ``a`` with itself."""
    if n < 1:
        raise ValueError("power requires n >= 1")
    result = a
    for _ in range(n - 1):
        result = product(result, a)
    return result


def reference_minimize(a: MealyAutomaton) -> MealyAutomaton:
    n, m = a.state_count, a.alphabet_size
    block = _assign_blocks([a.outputs[q] for q in range(n)])
    while True:
        sig = [
            (block[q], tuple(block[a.transitions[q][x]] for x in range(m)))
            for q in range(n)
        ]
        new_block = _assign_blocks(sig)
        if new_block == block:
            break
        block = new_block
    reps = {}
    for q in range(n):
        reps.setdefault(block[q], q)
    trans, outs, labels = [], [], []
    for b in range(len(reps)):
        q = reps[b]
        trans.append(tuple(block[a.transitions[q][x]] for x in range(m)))
        outs.append(tuple(a.outputs[q]))
        labels.append(a.label(q))
    return MealyAutomaton(m, tuple(trans), tuple(outs), tuple(labels))


def _assign_blocks(keys):
    """Number distinct keys by first occurrence."""
    ids = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out
