"""Mealy automata: letter-to-letter transducers over a shared alphabet.

States and letters are 0-based integers everywhere; labels are cosmetic.
A state q of an automaton induces a length-preserving transformation on
words: feed the word through the transducer starting at q.

Composition convention used throughout the package: the juxtaposition
``g1 g2`` acts as ``g1 o g2`` (rightmost factor applied first).  The state
``(q1, q2)`` of a product automaton acts as ``f_q1 o f_q2``.
"""

from __future__ import annotations

import itertools
import re

from .errors import AutomatonFormatError, CapacityError, Value, gc_paused

# A process that builds the 10**6-state square of a 1,000-state automaton with
# `product` and minimizes it peaks at 654 MiB ru_maxrss, 321 MiB of it before
# `minimize` starts, which takes 6.6-11.5 s of CPU with the collector paused
# (a shared 2-vCPU machine, Python 3.11.7).
MAX_STATES = 10**6
_LABEL_RE = re.compile(r"[^\s#]+")  # a label that a state line of the text format reads back


class MealyAutomaton(Value):
    """Transition/output tables of a finite transducer.

    ``transitions[q][x]`` is the next state after reading letter ``x`` in
    state ``q``; ``outputs[q][x]`` is the letter emitted.
    """

    __slots__ = ("alphabet_size", "transitions", "outputs", "state_labels")

    def __init__(self, alphabet_size: int, transitions: tuple[tuple[int, ...], ...],
                 outputs: tuple[tuple[int, ...], ...],
                 state_labels: tuple[str, ...] | None = None):
        self._set(alphabet_size, transitions, outputs, state_labels)
        m, n = self.alphabet_size, self.state_count
        if m < 1 or n < 1:
            raise ValueError("automaton needs at least one state and one letter")
        if len(self.outputs) != n:
            raise ValueError("transition and output tables disagree on state count")
        for q in range(n):  # the first bad row names the error
            if len(self.transitions[q]) != m or len(self.outputs[q]) != m:
                raise ValueError(f"state {q}: table rows must have {m} entries")
            if any(not 0 <= t < n for t in self.transitions[q]):
                raise ValueError(f"state {q}: transition entry out of range")
            if any(not 0 <= o < m for o in self.outputs[q]):
                raise ValueError(f"state {q}: output entry out of range")
        if state_labels is not None and len(state_labels) != n:
            raise ValueError("label count must match state count")
        for q, label in enumerate(state_labels or ()):
            if not _LABEL_RE.fullmatch(label):
                raise ValueError(f"state {q}: label {label!r} is empty or has whitespace or '#'")

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def label(self, q: int) -> str:
        if self.state_labels is not None:
            return self.state_labels[q]
        return f"q{q}"


#: The smallest Mealy automaton of intermediate growth: two states over a
#: two-letter alphabet.  State 0 (f0) swaps letters and stays put; state 1
#: (f1) outputs x1 constantly, moving to state 0 after reading x1.
I2 = MealyAutomaton(
    alphabet_size=2,
    transitions=((0, 0), (1, 0)),
    outputs=((1, 0), (1, 1)),
    state_labels=("q0", "q1"),
)


def is_invertible(a: MealyAutomaton) -> bool:
    """True iff every state's output map is a permutation of the alphabet."""
    return all(len(set(row)) == a.alphabet_size for row in a.outputs)


def product(a: MealyAutomaton, b: MealyAutomaton) -> MealyAutomaton:
    """Product automaton: state (q1, q2) acts as f_q1 o f_q2.

    State ``(q1, q2)`` is flattened to index ``q1 * b.state_count + q2``.
    """
    if a.alphabet_size != b.alphabet_size:
        raise ValueError("automata must share an alphabet")
    trans, outs = _product((list(zip(*a.transitions)), list(zip(*a.outputs))), b)
    labels = [f"{a.label(q1)}.{b.label(q2)}" for q1 in range(a.state_count)
              for q2 in range(b.state_count)]
    return MealyAutomaton(a.alphabet_size, tuple(zip(*trans)), tuple(zip(*outs)), tuple(labels))


def _product(left_columns, b: MealyAutomaton):
    """Per-letter columns (trans[x][q], outs[x][q]) of the product of a left
    factor, given by its columns, and ``b``: state (q1, q2) is q1 * n_b + q2."""
    l_trans, l_outs = left_columns
    m, nb = b.alphabet_size, b.state_count
    n = len(l_outs[0]) * nb
    if n > MAX_STATES:  # every product is built here: refuse before allocating
        raise CapacityError(f"product of {n} states exceeds cap {MAX_STATES}")
    trans, outs = [[0] * n for _ in range(m)], [[0] * n for _ in range(m)]
    for x, q2 in itertools.product(range(m), range(nb)):
        y, t = b.outputs[q2][x], b.transitions[q2][x]
        trans[x][q2::nb] = [t1 * nb + t for t1 in l_trans[y]]
        outs[x][q2::nb] = l_outs[y]
    return trans, outs


@gc_paused
def minimize(a: MealyAutomaton) -> MealyAutomaton:
    """Collapse states inducing equal transformations (``_refine``).

    All states are kept (no reachability pruning): every state defines a
    transformation and equivalence is on the full set.  Each block keeps
    the label of its first state.
    """
    (trans, outs), reps = _refine(list(zip(*a.transitions)), list(zip(*a.outputs)))
    return MealyAutomaton(a.alphabet_size, tuple(zip(*trans)), tuple(zip(*outs)),
                          tuple(a.label(q) for q in reps))


def _refine(trans, outs):
    """Minimal automaton of columns ``trans[x][q]`` (q's successor on x) and ``outs[x][q]``.

    Returns its ``(trans, outs)``, the columns restricted to ``reps``, each
    block's least state, with successors renumbered by block; and ``reps``.
    Blocks start as equal output rows, each packed as one int in base m,
    and Hopcroft's method refines them on Valmari and Lehtinen's refinable
    partition: block b is ``elems[first[b]:end[b]]`` and q sits at
    ``elems[loc[q]]``.  A popped splitter marks, one letter at a time, the
    states with a successor in it by swapping them into their block's
    prefix ``elems[first[b]:mid[b]]``; each touched block that is not
    wholly marked splits, and its smaller part takes a fresh id and is
    pushed.  A split parts no equivalent states.  Call the partition
    stable against a set if, on each letter, the states with a successor
    in the set form a union of blocks: that holds for the whole set and
    survives disjoint unions, differences and further splits.  Invariant:
    each block is pending, or is made by those operations from pending
    blocks and sets the partition is stable against; the largest output
    block is the whole set less the pending ones, and a split block's
    larger part is the old block less the pushed one.  So when nothing is
    pending the partition is stable against every block: it is the
    coarsest stable partition, the minimal automaton's.
    """
    m, n = len(outs), len(outs[0])
    keys = outs[0]
    for c in outs[1:]:
        keys = [k * m + o for k, o in zip(keys, c)]
    ids = {}
    block = [ids.setdefault(k, len(ids)) for k in keys]
    del keys
    states = list(range(n))  # the lists below share these ints instead of making their own
    elems = sorted(states, key=block.__getitem__)
    loc = sorted(states, key=elems.__getitem__)
    sizes = [len(list(g)) for _, g in itertools.groupby(elems, block.__getitem__)]
    end = list(itertools.accumulate(sizes))
    first = [0, *end[:-1]]
    mid = first[:]
    preds = []  # preds[x][t]: the states with successor t on x, () if none
    for col in trans:
        px = [()] * n
        for q, t in zip(states, col):
            if px[t]:
                px[t].append(q)
            else:
                px[t] = [q]
        preds.append(px)
    big = sizes.index(max(sizes))
    pending = [b for b in range(len(sizes)) if b != big]
    while pending:
        s = pending.pop()
        splitter = elems[first[s]:end[s]]  # a copy: marking may reorder its own range
        for px in preds:
            touched = []
            for t in splitter:
                for q in px[t]:
                    b = block[q]
                    i = mid[b]
                    if i == first[b]:
                        touched.append(b)
                    j = loc[q]
                    if j != i:
                        r = elems[i]
                        elems[j] = r
                        loc[r] = j
                        elems[i] = q
                        loc[q] = i
                    mid[b] = i + 1
            for b in touched:
                f, i, e = first[b], mid[b], end[b]
                mid[b] = f
                if i == e:
                    continue
                if i - f <= e - i:  # the marked part [f, i) is the smaller
                    first[b] = mid[b] = e = i
                else:
                    end[b] = f = i
                nb = len(end)  # [f, e), the smaller part, leaves b
                first.append(f)
                mid.append(f)
                end.append(e)
                for q in elems[f:e]:
                    block[q] = nb
                pending.append(nb)
    del preds, elems, loc
    reps = sorted(dict(zip(reversed(block), reversed(states))).values())
    ids = {block[q]: i for i, q in enumerate(reps)}
    return ([[ids[block[c[q]]] for q in reps] for c in trans],
            [[c[q] for q in reps] for c in outs]), reps


@gc_paused
def automaton_growth(a: MealyAutomaton, N: int) -> list[int]:
    """State counts of the minimized powers a^1 .. a^N.

    Computed incrementally: minimize(a^n) = minimize(minimize(a^(n-1)) x a),
    valid because minimization preserves the induced transformation set.
    Each minimal power is the columns ``_refine`` returns for a checked
    ``_product``, from the one-state identity (whose product with a is a).
    """
    if N < 1:
        raise ValueError("growth requires N >= 1")
    m = a.alphabet_size
    cur = [[0]] * m, [[x] for x in range(m)]
    counts = []
    for _ in range(N):
        trans, outs = _product(cur, a)
        n = len(outs[0])
        if not all(0 <= min(c) <= max(c) < n for c in trans) or not all(
                0 <= min(c) <= max(c) < m for c in outs):
            raise ValueError("product table entry out of range")
        cur, reps = _refine(trans, outs)
        counts.append(len(reps))
    return counts


_STATE_RE = re.compile(rf"^state\s+({_LABEL_RE.pattern})\s+trans((?:\s+\d+)+)\s+out((?:\s+\d+)+)$")


def parse_automaton(text: str) -> MealyAutomaton:
    """Parse the automaton text format.

    Format::

        alphabet <m>
        states <n>
        state <name> trans <t0> ... <t_{m-1}> out <o0> ... <o_{m-1}>

    ``#`` starts a comment; blank lines are ignored.
    """
    lines = [(i, line) for i, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip())]
    if len(lines) < 2:
        raise AutomatonFormatError("expected 'alphabet' and 'states' header lines")
    m = _parse_header(lines[0], "alphabet")
    n = _parse_header(lines[1], "states")
    body = lines[2:]
    if len(body) != n:
        raise AutomatonFormatError(f"expected {n} state lines, found {len(body)}")
    trans, outs, labels = [], [], []
    for lineno, line in body:
        match = _STATE_RE.match(line)
        if not match:
            raise AutomatonFormatError("malformed state line", line=lineno)
        labels.append(match.group(1))
        trow = tuple(int(t) for t in match.group(2).split())
        orow = tuple(int(o) for o in match.group(3).split())
        if len(trow) != m or len(orow) != m:
            raise AutomatonFormatError(f"expected {m} trans and out entries", line=lineno)
        trans.append(trow)
        outs.append(orow)
    try:
        return MealyAutomaton(m, tuple(trans), tuple(outs), tuple(labels))
    except ValueError as exc:
        raise AutomatonFormatError(str(exc)) from exc


def _parse_header(entry, keyword):
    lineno, line = entry
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword or not parts[1].isdigit():
        raise AutomatonFormatError(f"expected '{keyword} <count>'", line=lineno)
    return int(parts[1])


def format_automaton(a: MealyAutomaton) -> str:
    lines = [f"alphabet {a.alphabet_size}", f"states {a.state_count}"]
    for q in range(a.state_count):
        trans = " ".join(str(t) for t in a.transitions[q])
        outs = " ".join(str(o) for o in a.outputs[q])
        lines.append(f"state {a.label(q)} trans {trans} out {outs}")
    return "\n".join(lines) + "\n"


def load_automaton(path) -> MealyAutomaton:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton(fh.read())
