"""Moore's round-by-round minimization, kept as a reference for tests.

Every round recomputes the signature (own block, successor blocks) of
every state and renumbers the blocks by first occurrence, until a round
leaves the numbering unchanged.  ``mealygrowth.mealy`` minimizes by
Hopcroft's partition refinement instead (``mealy._refine``, behind
``minimize`` and ``automaton_growth``); tests compare the two routes.
"""

from __future__ import annotations

from mealygrowth.mealy import MealyAutomaton


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
