"""Reference reducer for tests: the rebuild-and-reparse loop.

After every r_p application the whole word is rebuilt and parsed again, so
it runs in O(|w|^2).  Tests compare ``mealygrowth.rewrite.reduce_detailed``
against it.  ``reference_width`` is ``width`` in two passes: it lists the
f1-blocks, then their alternating partial sums.
"""

from mealygrowth.errors import VerificationError
from mealygrowth.rewrite import F0, ONE, General, NormalForm


def _cleanup(word, steps):
    """Cancel 00 and collapse 111 -> 1 with a single stack pass."""
    out = []
    for c in word:
        if c == 0 and out and out[-1] == 0:
            out.pop()
            steps += 1
        elif c == 1 and len(out) >= 2 and out[-1] == 1 and out[-2] == 1:
            out.pop()
            steps += 1
        else:
            out.append(c)
    return out, steps


def _parse_blocks(word):
    """Split a 00/111-free word into (eps1, exponent blocks, tail, eps2).

    Returns a NormalForm directly when the word has no f1.
    """
    if not word:
        return ONE
    if word == [0]:
        return F0
    i = 0
    eps1 = 0
    if word[0] == 0:
        eps1 = 1
        i = 1
    assert word[i] == 1
    i += 1
    exps = []
    n = len(word)
    while True:
        p = 0
        while i + 1 < n and word[i] == 0 and word[i + 1] == 1:
            p += 1
            i += 2
        if i == n:
            return eps1, exps, p, 0
        if word[i] == 1:
            exps.append(p)
            i += 1
        else:
            assert i == n - 1 and word[i] == 0
            return eps1, exps, p, 1


def reference_reduce_detailed(word) -> tuple[NormalForm, int]:
    """Reduce to normal form; also return the number of relation applications.

    Every application (00-cancellation, 111-collapse, or r_p) shortens the
    word by exactly two letters, so at most len(word)//2 are performed.
    """
    w = []
    for c in word:
        if c not in (0, 1):
            raise ValueError(f"invalid generator {c!r}")
        w.append(c)
    budget = len(w) // 2
    steps = 0
    w, steps = _cleanup(w, steps)
    while True:
        parsed = _parse_blocks(w)
        if isinstance(parsed, NormalForm):
            nf = parsed
            break
        eps1, exps, tail, eps2 = parsed
        j = next(
            (i for i in range(len(exps) - 1) if exps[i] >= exps[i + 1]), None
        )
        if j is None:
            nf = General(eps1, tuple(exps), tail, eps2)
            break
        # apply r_p at the leftmost violating pair: the separator after
        # block j+1 turns into f0 and one (f0 f1) pair of the block is lost
        p = exps[j + 1]
        new = [0] * eps1 + [1]
        for i, e in enumerate(exps):
            if i == j + 1:
                new += [0, 1] * (p - 1) + [0]
            else:
                new += [0, 1] * e + [1]
        new += [0, 1] * tail + [0] * eps2
        steps += 1
        w, steps = _cleanup(new, steps)
    if steps > budget:
        raise VerificationError(f"{steps} relation applications exceed the bound {budget}")
    return nf, steps


def reference_width(word) -> int:
    """Spread of the alternating partial sums of f1-block sizes.

    Blocks are maximal groups of f1's separated by odd runs of f0's; an
    even f0-run (including none) closes a block.  Invariant under all
    defining relations; zero exactly for powers of f0.
    """
    run = 0
    seen_one = False
    blocks = []
    current = 0
    for c in word:
        if c == 1:
            if not seen_one:
                seen_one = True
                current = 1
            elif run % 2 == 1:
                current += 1
            else:
                blocks.append(current)
                current = 1
            run = 0
        elif c == 0:
            if seen_one:
                run += 1
        else:
            raise ValueError(f"invalid generator {c!r}")
    blocks.append(current)
    sums = [0]
    total = 0
    for i, b in enumerate(blocks):
        total += b if i % 2 == 0 else -b
        sums.append(total)
    return max(sums) - min(sums)
