"""Tests for the generic Mealy automaton layer."""

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mealygrowth import (
    I2,
    AutomatonFormatError,
    CapacityError,
    MealyAutomaton,
    automaton_growth,
    format_automaton,
    is_invertible,
    minimize,
    parse_automaton,
    product,
)
from mealygrowth import mealy, series
from reference_mealy import apply, power, reference_minimize

#: One-state identity transducer on two letters.
IDENTITY2 = MealyAutomaton(2, ((0, 0),), ((0, 1),))


def automata(max_states=4, m=2):
    """Strategy producing random automata on an m-letter alphabet."""
    def build(n, flat_trans, flat_out):
        trans = tuple(tuple(flat_trans[q * m + x] % n for x in range(m)) for q in range(n))
        outs = tuple(tuple(flat_out[q * m + x] for x in range(m)) for q in range(n))
        return MealyAutomaton(m, trans, outs)

    return st.integers(1, max_states).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.integers(0, max_states - 1), min_size=n * m, max_size=n * m),
            st.lists(st.integers(0, m - 1), min_size=n * m, max_size=n * m),
        )
    )


words = st.lists(st.integers(0, 1), max_size=8).map(tuple)


def copied_automaton(rng, n, m, k):
    """n states over m letters whose state q copies state q % k of a random
    k-state automaton: its successors are copies of that state's successors.
    Each output row is one of two, so the output blocks are large; a small
    k gives classes of about n / k states, and k near n few or none."""
    rows = ((0,) * m, (m - 1,) + (0,) * (m - 1))
    outs = [rng.choice(rows) for _ in range(k)]
    trans = [[rng.randrange(k) for _ in range(m)] for _ in range(k)]
    return MealyAutomaton(m, tuple(
        tuple(t + k * rng.randrange((n - 1 - t) // k + 1) for t in trans[q % k]) for q in range(n)
    ), tuple(outs[q % k] for q in range(n)))


class TestApply:
    def test_i2_state0_swaps_every_letter(self):
        assert apply(I2, 0, (0, 1, 1, 0)) == (1, 0, 0, 1)

    def test_i2_state1_worked_example(self):
        # f_q1(x0 x0 x1 x0 x0 x1) = x1 x1 x1 x1 x1 x0
        assert apply(I2, 1, (0, 0, 1, 0, 0, 1)) == (1, 1, 1, 1, 1, 0)

    def test_identity(self):
        assert apply(IDENTITY2, 0, (0, 1, 0)) == (0, 1, 0)

    def test_empty_word(self):
        assert apply(I2, 1, ()) == ()

    def test_rejects_bad_state_and_letter(self):
        with pytest.raises(ValueError):
            apply(I2, 2, (0,))
        with pytest.raises(ValueError):
            apply(I2, 0, (0, 3))

    @given(automata(), st.integers(0, 3), words)
    def test_length_preserving(self, a, q, w):
        q %= a.state_count
        assert len(apply(a, q, w)) == len(w)

    @given(automata(), st.integers(0, 3), words)
    def test_decomposition_matches_apply(self, a, q, w):
        # the first letter goes through state q's rows, the rest through its successor
        q %= a.state_count
        if not w:
            return
        head, rest = w[0], w[1:]
        expected = (a.outputs[q][head],) + apply(a, a.transitions[q][head], rest)
        assert apply(a, q, w) == expected


class TestValidation:
    # the first bad row names the error; each whole-table check has a case of its own
    @pytest.mark.parametrize("args,message", [
        ((0, ((),), ((),)), "automaton needs at least one state and one letter"),
        ((2, (), ()), "automaton needs at least one state and one letter"),
        ((2, ((0, 0),), ((0, 0), (0, 0))),
         "transition and output tables disagree on state count"),
        ((2, ((0, 0), (0,), (5, 0)), ((0, 0), (0, 0), (0, 0))),
         "state 1: table rows must have 2 entries"),
        ((2, ((0, 0), (0, 0)), ((0, 0), (0, 1, 0))), "state 1: table rows must have 2 entries"),
        ((2, ((0, 0), (0, 2)), ((0, 0), (0, 9))), "state 1: transition entry out of range"),
        ((2, ((0, 0), (0, 2)), ((0, 0), (0, 0))), "state 1: transition entry out of range"),
        ((2, ((0, -1), (0, 0)), ((0, 0), (0, 0))), "state 0: transition entry out of range"),
        ((2, ((0, 0), (1, 1)), ((0, 2), (0, 0, 0))), "state 0: output entry out of range"),
        ((2, ((0, 0), (1, 1)), ((0, 1), (2, 0))), "state 1: output entry out of range"),
        ((3, ((0, 0, 0), (1, 1, 1)), ((0, 1, 2), (-1, 0, 0))),
         "state 1: output entry out of range"),
    ])
    def test_messages(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MealyAutomaton(*args)

    def test_label_count(self):
        with pytest.raises(ValueError, match="^label count must match state count$"):
            MealyAutomaton(2, ((0, 0),), ((0, 1),), ("a", "b"))

    # each of these once gave a file that parse_automaton rejects
    @pytest.mark.parametrize("label", ["", "s #1", "#", "a b", "tab\tbed", "a\nb", "nbsp\xa0"])
    def test_label_the_text_format_cannot_keep(self, label):
        message = f"state 1: label {label!r} is empty or has whitespace or '#'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MealyAutomaton(2, ((0, 0), (1, 0)), ((1, 0), (1, 1)), ("ok", label))


class TestInvertibility:
    def test_i2_is_not_invertible(self):
        assert not is_invertible(I2)

    def test_identity_is_invertible(self):
        assert is_invertible(IDENTITY2)

    @given(automata())
    def test_matches_injectivity_on_level_3(self, a):
        injective = all(
            len({apply(a, q, w) for w in itertools.product(range(2), repeat=3)}) == 8
            for q in range(a.state_count)
        )
        assert is_invertible(a) == injective


class TestProduct:
    @given(automata(3), st.booleans(), automata(3), words)
    @settings(max_examples=150)
    def test_state_pair_acts_as_composition(self, a, cube, b, w):
        # a left factor of up to 27 states, as automaton_growth's minimal powers are
        a = power(a, 3) if cube else a
        ab = product(a, b)
        for q1 in range(a.state_count):
            for q2 in range(b.state_count):
                flat = q1 * b.state_count + q2
                assert apply(ab, flat, w) == apply(a, q1, apply(b, q2, w))

    def test_alphabet_mismatch(self):
        a3 = MealyAutomaton(3, ((0, 0, 0),), ((0, 1, 2),))
        with pytest.raises(ValueError):
            product(I2, a3)

    def test_power_one_is_same_automaton(self):
        assert power(I2, 1) is I2

    def test_square_state_count(self):
        assert product(I2, I2).state_count == 4

    def test_cap_bounds_the_product(self, monkeypatch):
        monkeypatch.setattr(mealy, "MAX_STATES", 3)
        with pytest.raises(CapacityError, match="^product of 4 states exceeds cap 3$"):
            product(I2, I2)

    def test_cap_bounds_each_power(self, monkeypatch):
        monkeypatch.setattr(mealy, "MAX_STATES", 4)
        square = product(I2, I2)
        assert square.state_count == 4
        with pytest.raises(CapacityError, match="^product of 8 states exceeds cap 4$"):
            product(square, I2)


class TestMinimize:
    def test_i2_is_already_minimal(self):
        assert minimize(I2).state_count == 2

    def test_collapses_duplicate_states(self):
        dup = MealyAutomaton(2, ((0, 1), (1, 0), (1, 0)), ((1, 0), (1, 1), (1, 1)))
        assert minimize(dup).state_count == 2

    @given(automata())
    def test_idempotent(self, a):
        m1 = minimize(a)
        assert minimize(m1).state_count == m1.state_count

    @given(automata(), words)
    def test_preserves_transformation_set(self, a, w):
        m1 = minimize(a)
        before = {apply(a, q, w) for q in range(a.state_count)}
        after = {apply(m1, q, w) for q in range(m1.state_count)}
        assert before == after

    @given(st.integers(1, 3).flatmap(lambda m: automata(5, m)), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_moore_reference(self, a, k):
        p = power(a, k)
        assert format_automaton(minimize(p)) == format_automaton(reference_minimize(p))

    @pytest.mark.parametrize("seed", range(18))
    def test_large_blocks_match_moore_reference(self, seed):
        # blocks of tens to hundreds of states: multi-way splits, splitters that
        # split themselves and wholly marked blocks; labels are compared too
        rng = random.Random(seed)
        m, n = seed % 3 + 1, rng.randint(50, 400)
        a = copied_automaton(rng, n, m, rng.choice((n, rng.randint(2, 40), rng.randint(n // 2, n))))
        assert format_automaton(minimize(a)) == format_automaton(reference_minimize(a))

    @pytest.mark.parametrize("a,count", [
        (MealyAutomaton(2, ((0, 0),), ((1, 0),)), 1),  # a single state
        (copied_automaton(random.Random(1), 300, 2, 1), 1),  # all states equivalent
        # a cycle with one marked state: all 200 states distinct
        (MealyAutomaton(2, tuple(((q + 1) % 200, q) for q in range(200)),
                        ((1, 0),) + ((0, 0),) * 199), 200),
        (copied_automaton(random.Random(2), 300, 1, 300), 1),  # one letter
    ], ids=["single", "all-equivalent", "all-distinct", "one-letter"])
    def test_fixed_shapes_match_moore_reference(self, a, count):
        assert minimize(a).state_count == count
        assert format_automaton(minimize(a)) == format_automaton(reference_minimize(a))


class TestGrowth:
    def test_i2_prefix(self):
        assert automaton_growth(I2, 6) == [2, 4, 6, 9, 13, 18]

    def test_identity_growth_is_constant(self):
        assert automaton_growth(IDENTITY2, 3) == [1, 1, 1]

    def test_cap_raises(self, monkeypatch):
        refined = []
        real_refine = mealy._refine

        def recording_refine(trans, outs):
            refined.append(len(outs[0]))
            return real_refine(trans, outs)

        monkeypatch.setattr(mealy, "_refine", recording_refine)
        monkeypatch.setattr(mealy, "MAX_STATES", 5)
        with pytest.raises(CapacityError, match="^product of 8 states exceeds cap 5$"):
            automaton_growth(I2, 10)
        assert refined == [2, 4]  # the cap stops the 8-state product before it is built

    @pytest.mark.parametrize("column", [0, 1], ids=["successor", "output"])
    def test_product_entry_out_of_range(self, monkeypatch, column):
        product = mealy._product

        def corrupt(left_columns, b):
            columns = product(left_columns, b)
            columns[column][0][0] = 2  # one past I2's states and its letters
            return columns

        monkeypatch.setattr(mealy, "_product", corrupt)
        with pytest.raises(ValueError, match="^product table entry out of range$"):
            automaton_growth(I2, 3)

    def test_cap_covers_the_first_power(self, monkeypatch):
        monkeypatch.setattr(mealy, "MAX_STATES", 1)
        with pytest.raises(CapacityError, match="^product of 2 states exceeds cap 1$"):
            automaton_growth(I2, 1)
        monkeypatch.setattr(mealy, "MAX_STATES", 2)
        assert automaton_growth(I2, 1) == [2]

    @given(st.integers(1, 3).flatmap(lambda m: automata(4, m)), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_minimized_powers(self, a, N):
        # the reference route: product() powers and Moore's rounds, not _refine
        expected = [reference_minimize(power(a, n)).state_count for n in range(1, N + 1)]
        assert automaton_growth(a, N) == expected

    def test_memory_at_40(self):
        # a memory guard, not a timing gate: the columns with the refinement's
        # block arrays and predecessor lists peak at about 2.7 MiB; per-power
        # automata with labels peaked at 4.76 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = automaton_growth(I2, 40)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert counts[-1] == series.automaton_growth_coeffs(40)[40]
        assert peak < 4 * 2**20

    def test_i2_matches_series_at_40(self):
        assert automaton_growth(I2, 40) == series.automaton_growth_coeffs(40)[1:]


I2_TEXT = """\
# the smallest intermediate-growth example
alphabet 2
states 2
state q0 trans 0 0 out 1 0
state q1 trans 1 0 out 1 1
"""


class TestFormat:
    def test_parse_i2(self):
        a = parse_automaton(I2_TEXT)
        assert a.transitions == I2.transitions
        assert a.outputs == I2.outputs
        assert a.state_labels == ("q0", "q1")

    def test_roundtrip(self):
        assert parse_automaton(format_automaton(I2)).transitions == I2.transitions

    @given(st.lists(st.text(), min_size=2, max_size=2))
    def test_every_accepted_label_survives_format_and_parse(self, labels):
        try:
            a = MealyAutomaton(2, I2.transitions, I2.outputs, tuple(labels))
        except ValueError:
            return
        assert parse_automaton(format_automaton(a)) == a

    def test_labels_survive_format_and_parse(self):
        a = MealyAutomaton(2, I2.transitions, I2.outputs, ("f0.f1-x", "\u00e9tat_2"))
        assert parse_automaton(format_automaton(a)) == a

    def test_error_carries_line_number(self):
        bad = "alphabet 2\nstates 1\nstate q0 trans 0 out 9 9\n"
        with pytest.raises(AutomatonFormatError):
            parse_automaton(bad)

    def test_malformed_header(self):
        with pytest.raises(AutomatonFormatError):
            parse_automaton("alphabet two\nstates 1\n")
        # a digit that int() does not read is refused with the line, not by int()
        with pytest.raises(AutomatonFormatError, match="^line 1: expected 'alphabet <count>'$"):
            parse_automaton("alphabet \u00b2\nstates 1\n")
