"""Tests for the rewriting system and normal forms of the I2 monoid."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mealygrowth
from mealygrowth import (
    F0,
    I2,
    ONE,
    General,
    MealyAutomaton,
    VerificationError,
    enumerate_normal_forms,
    format_word,
    left_zero_word,
    nf_to_word,
    normal_forms_of_length,
    parse_word,
    reduce,
    reduce_detailed,
    reduce_quotient,
    relation_sides,
    verify_left_zero,
    verify_relation,
    width,
    word_table,
    words_equal,
    words_equal_quotient,
)
from mealygrowth import rewrite
from reference_rewrite import reference_reduce_detailed, reference_width

words = st.lists(st.integers(0, 1), max_size=30).map(tuple)


def _block_word(blocks):
    """1 (01)^e_1 1 (01)^e_2 1 ..., each block preceded by 0-2 stray 0s."""
    word = [1]
    for stray, e in blocks:
        word += [0] * stray + [0, 1] * e + [1]
    return tuple(word)


# up to 11 blocks of at most 35 letters, about 400 letters; r_p fires
# often, since neighbouring exponents are drawn independently
block_words = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 16)), max_size=11
).map(_block_word)


def _seeded_block_word(seed, length):
    rng = random.Random(seed)
    word = [1]
    while len(word) < length:
        word += [0] * (rng.random() < 0.1) + [0, 1] * rng.randint(0, 16) + [1]
    return tuple(word[:length])


class TestParsing:
    def test_roundtrip(self):
        assert parse_word("10110") == (1, 0, 1, 1, 0)
        assert format_word((1, 0, 1, 1, 0)) == "10110"

    def test_error_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_word("10x1")


class TestNormalFormType:
    def test_word_lengths(self):
        assert ONE.word_length == 0
        assert F0.word_length == 1
        assert General(1, (0, 2), 1, 1).word_length == 1 + (1 + 1 + 5) + 2 + 1

    def test_rejects_non_increasing_exponents(self):
        with pytest.raises(ValueError):
            General(0, (2, 2), 0, 0)
        with pytest.raises(ValueError):
            General(0, (3, 1), 0, 0)

    def test_nf_to_word(self):
        assert nf_to_word(General(0, (1,), 0, 1)) == (1, 0, 1, 1, 0)
        assert nf_to_word(General(1, (), 2, 0)) == (0, 1, 0, 1, 0, 1)

    def test_describe(self):
        assert General(0, (1,), 0, 1).describe() == "e1=0;p=[1];tail=0;e2=1"


class TestReduce:
    def test_involution(self):
        assert reduce((0, 0)) == ONE
        assert reduce((0, 0, 1)) == reduce((1,))

    def test_f1_cubed(self):
        assert nf_to_word(reduce((1, 1, 1))) == (1,)

    def test_spec_example(self):
        # f1 f0 f1 f1 f0 f1 f1 -> f1 f0 f1 f1 f0 via r_1
        nf = reduce(parse_word("1011011"))
        assert nf == General(0, (1,), 0, 1)
        assert format_word(nf_to_word(nf)) == "10110"

    def test_relation_sides_reduce_identically(self):
        for p in range(5):
            lhs, rhs = relation_sides(p)
            assert reduce(lhs) == reduce(rhs)

    @given(words)
    def test_sound_and_bounded(self, w):
        nf, steps = reduce_detailed(w)
        assert steps <= len(w) // 2
        assert word_table(I2, w, 8) == word_table(I2, nf_to_word(nf), 8)

    @given(words | block_words)
    def test_idempotent(self, w):
        nf = reduce(w)
        assert reduce(nf_to_word(nf)) == nf

    @given(words)
    @settings(max_examples=500)
    def test_matches_reference(self, w):
        assert reduce_detailed(w) == reference_reduce_detailed(w)

    @given(block_words)
    @settings(max_examples=300)
    def test_matches_reference_on_block_words(self, w):
        assert reduce_detailed(w) == reference_reduce_detailed(w)

    @given(words | block_words)
    def test_steps_are_half_the_length_drop(self, w):
        nf, steps = reduce_detailed(w)
        assert 2 * steps == len(w) - len(nf_to_word(nf))

    @given(words | block_words)
    def test_width_kept(self, w):
        assert width(nf_to_word(reduce(w))) == width(w)

    @given(words, words)
    @settings(max_examples=100)
    def test_equality_decision_matches_tables(self, w1, w2):
        same = words_equal(w1, w2)
        # level high enough to separate anything these short words produce
        assert same == (word_table(I2, w1, 9) == word_table(I2, w2, 9))

    @pytest.mark.parametrize("word", [(2,), (0, 0, 2), (1, 0, 2), (0, 1, 1, 2, 1)])
    def test_invalid_generator(self, word):
        # before the first f1 and after it
        with pytest.raises(ValueError, match="^invalid generator 2$"):
            reduce_detailed(word)

    @given(words | block_words)
    def test_any_iterable(self, w):
        expected = reduce_detailed(w)
        assert reduce_detailed(list(w)) == expected
        assert reduce_detailed(c for c in w) == expected

    def test_random_relation_insertions_preserve_class(self):
        rng = random.Random(7)
        for _ in range(200):
            w = [rng.randint(0, 1) for _ in range(rng.randint(0, 20))]
            lhs, rhs = relation_sides(rng.randint(0, 3))
            pos = rng.randrange(len(w) + 1)
            w1 = tuple(w[:pos]) + lhs + tuple(w[pos:])
            w2 = tuple(w[:pos]) + rhs + tuple(w[pos:])
            assert reduce(w1) == reduce(w2)


class TestLongWords:
    def test_hundred_thousand_letters(self):
        w = _seeded_block_word(1, 100_000)
        nf, steps = reduce_detailed(w)
        nf_word = nf_to_word(nf)
        assert reduce_detailed(nf_word) == (nf, 0)
        assert 2 * steps == len(w) - len(nf_word)
        assert steps <= len(w) // 2
        assert width(nf_word) == width(w)

    def test_level_12_table_kept(self):
        w = _seeded_block_word(2, 20_000)
        assert word_table(I2, w, 12) == word_table(I2, nf_to_word(reduce(w)), 12)


# Run under ``python -O``: the step identity must not be an assert.  The
# reduction 1011011 -> 10110 is one application of r_1, and the stub adds
# DELTA to the count.  2 * steps == 7 - 5 is the only accounting check: it
# catches every miscount, and since |nf| >= 0 it rules out a count past 7 // 2.
_STEP_MISCOUNT = """
import sys
from mealygrowth import VerificationError, cli, rewrite

stream = rewrite._stream_reduce

def miscount(word):
    nf, steps = stream(word)
    return nf, steps + DELTA

rewrite._stream_reduce = miscount
try:
    rewrite.reduce_detailed(rewrite.parse_word("1011011"))
except VerificationError as exc:
    print("raised:", exc)
sys.exit(cli.main(["reduce", "1011011"]))
"""


def _check_miscount(delta):
    src = Path(mealygrowth.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _STEP_MISCOUNT.replace("DELTA", str(delta))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    message = f"{1 + delta} relation applications do not account for the length drop 7 -> 5"
    assert proc.stdout == f"raised: {message}\n"
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {message}"]


def test_step_miscount_fails_under_optimize():
    _check_miscount(1)


def test_steps_past_half_the_length_fail_under_optimize():
    # 4 > 7 // 2: the identity alone catches what a bound check would
    _check_miscount(3)


class TestQuotient:
    @given(words, st.integers(1, 6))
    def test_matches_level_tables(self, w, n):
        nf = reduce_quotient(w, n)
        assert word_table(I2, w, n) == word_table(I2, nf_to_word(nf), n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equal_tables_give_equal_normal_forms(self, n):
        # the converse of test_matches_level_tables, on every word of <= 10 letters
        classes = {}
        for length in range(11):
            for w in itertools.product((0, 1), repeat=length):
                classes.setdefault(word_table(I2, w, n), set()).add(reduce_quotient(w, n))
        assert all(len(nfs) == 1 for nfs in classes.values())
        assert len(set().union(*classes.values())) == len(classes)  # and the other way

    def test_left_zero_absorbs(self):
        z = left_zero_word(3)
        assert words_equal_quotient(z + (0,), z, 3)
        assert words_equal_quotient(z + (1, 0, 1), z, 3)
        assert not words_equal(z + (0,), z)

    @given(words, words, st.integers(1, 5))
    @settings(max_examples=100)
    def test_consistent_with_full_monoid(self, w1, w2, n):
        if words_equal(w1, w2):
            assert words_equal_quotient(w1, w2, n)


class TestRelationVerification:
    def test_relations_hold(self):
        for p in range(4):
            assert verify_relation(p, 10)

    def test_left_zero_window(self):
        for n in range(1, 6):
            assert verify_left_zero(n) == (True, True)

    @pytest.mark.parametrize("a", [
        # both states the constant map to x0...
        MealyAutomaton(2, ((0, 0), (1, 1)), ((0, 0), (0, 0))),
        # both states g: write 1, then g after x0 and the identity after x1; g o g = g
        MealyAutomaton(2, ((0, 2), (1, 2), (2, 2)), ((1, 1), (1, 1), (0, 1))),
    ])
    def test_absorbing_non_constant_map_fails(self, monkeypatch, a):
        # every word over states 0, 1 absorbs, but is not the constant map to x1...
        monkeypatch.setattr(rewrite, "I2", a)
        assert verify_left_zero(3) == (False, False)


class TestWidth:
    def test_powers_of_f0_have_width_zero(self):
        assert width(()) == 0
        assert width((0, 0, 0)) == 0

    def test_single_block(self):
        assert width((1,)) == 1
        # no separator is an even (empty) gap: two blocks of one f1 each
        assert width((1, 1)) == 1
        # an odd gap joins the f1s into one block
        assert width((1, 0, 1)) == 2

    def test_even_gap_splits_blocks(self):
        # 1 00 1: two blocks of size 1, alternating sums 0,1,0 -> width 1
        assert width((1, 0, 0, 1)) == 1
        # 1 0 1: odd gap keeps one block of size 2
        assert width((1, 0, 1)) == 2

    @pytest.mark.parametrize("word", [(0, 1, 2), (2,), (0, 2)])
    def test_invalid_generator(self, word):
        # a letter other than 0 or 1 once counted as f0
        with pytest.raises(ValueError, match="^invalid generator 2$"):
            width(word)

    def test_relation_sides_have_width_p_plus_1(self):
        for p in range(5):
            lhs, rhs = relation_sides(p)
            assert width(lhs) == width(rhs) == p + 1

    @given(words, st.integers(0, 3), st.integers(0, 30))
    def test_invariant_under_relations(self, w, p, pos):
        pos %= len(w) + 1
        lhs, rhs = relation_sides(p)
        assert width(w[:pos] + lhs + w[pos:]) == width(w[:pos] + rhs + w[pos:])

    @given(words, st.integers(0, 30))
    def test_invariant_under_involution(self, w, pos):
        pos %= len(w) + 1
        assert width(w[:pos] + (0, 0) + w[pos:]) == width(w)

    @given(st.lists(st.integers(0, 1), max_size=60))
    @settings(max_examples=500)
    def test_matches_block_list_reference(self, w):
        assert width(w) == reference_width(w)


class TestCensus:
    def test_first_values(self):
        assert [enumerate_normal_forms(n) for n in range(10)] == [
            1, 2, 3, 4, 5, 7, 9, 11, 13, 16,
        ]

    def test_generated_forms_have_right_length(self):
        for n in range(12):
            for nf in normal_forms_of_length(n):
                assert nf.word_length == n

    def test_generated_forms_are_distinct_elements(self):
        # level high enough to separate all normal forms of length <= 8
        seen = set()
        for n in range(9):
            for nf in normal_forms_of_length(n):
                seen.add(word_table(I2, nf_to_word(nf), 7))
        assert len(seen) == sum(enumerate_normal_forms(n) for n in range(9))
