"""Tests for the level-k transformation-table oracle."""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mealygrowth import (
    I2,
    CapacityError,
    MealyAutomaton,
    VerificationError,
    automaton_growth_coeffs,
    ball_growth_coeffs,
    enumerate_monoid,
    growth_series,
    i2_quotient_order_formula,
    stabilized_growth_table,
    table_of,
    tables,
    word_table,
)
from reference_mealy import apply
from reference_tables import (
    reference_compose,
    reference_enumerate,
    reference_state_tables,
    reference_word_table,
)

words = st.lists(st.integers(0, 1), max_size=10).map(tuple)


@st.composite
def automata(draw):
    """Random 1-3-state automata over 1, 2 or 3 letters."""
    m = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(1, 3))
    rows = st.tuples(*[st.integers(0, n - 1)] * m)
    letters = st.tuples(*[st.integers(0, m - 1)] * m)
    trans = draw(st.tuples(*[rows] * n))
    outs = draw(st.tuples(*[letters] * n))
    return MealyAutomaton(m, trans, outs)


@st.composite
def automaton_words(draw, count):
    """An automaton, a level <= 4 and ``count`` words over its states."""
    a = draw(automata())
    k = draw(st.integers(0, 4))
    state_words = st.lists(st.integers(0, a.state_count - 1), max_size=8).map(tuple)
    return a, k, [draw(state_words) for _ in range(count)]


class TestTableOf:
    def test_matches_transducer_run(self):
        # product() lists the words in packed order, first letter most significant
        words5 = list(product((0, 1), repeat=5))
        for q in (0, 1):
            outputs = table_of(I2, q, 5).outputs
            assert [words5[v] for v in outputs] == [apply(I2, q, w) for w in words5]

    def test_level_zero(self):
        assert list(table_of(I2, 0, 0).outputs) == [0]
        assert apply(I2, 0, ()) == ()

    def test_capacity_guard(self):
        # nodes have no level limit; the per-level recursions do
        bound = tables.MAX_LEVEL
        assert table_of(I2, 0, 40).level == 40
        assert word_table(I2, (1, 0, 1, 1, 0), bound).level == bound
        assert enumerate_monoid(I2, bound, max_depth=3).cumulative == [1, 3, 6, 10]
        with pytest.raises(CapacityError):
            table_of(I2, 0, bound + 1)
        with pytest.raises(CapacityError):
            enumerate_monoid(I2, bound + 1, max_depth=3)
        with pytest.raises(CapacityError):
            word_table(I2, (1, 0), bound + 1)
        # only the flat packed array has an m**k size limit
        with pytest.raises(CapacityError):
            table_of(I2, 0, 40).outputs

    @pytest.mark.parametrize("word,bad", [((-1,), -1), ((2,), 2), ((0, 1, 5), 5)])
    def test_word_state_out_of_range(self, word, bad):
        # a negative state once wrapped round to the last one
        with pytest.raises(ValueError, match=f"^state {bad} out of range$"):
            word_table(I2, word, 3)

    @given(automaton_words(0))
    def test_outputs_match_reference(self, case):
        a, k, _ = case
        ref = reference_state_tables(a, k)
        for q in range(a.state_count):
            assert list(table_of(a, q, k).outputs) == ref[q]


class TestCompose:
    @given(automaton_words(2))
    def test_matches_reference(self, case):
        a, k, (w1, w2) = case
        t1, t2 = word_table(a, w1, k), word_table(a, w2, k)
        r1, r2 = reference_word_table(a, w1, k), reference_word_table(a, w2, k)
        assert list(t1.outputs) == r1
        assert list(t2.outputs) == r2
        assert list(word_table(a, w1 + w2, k).outputs) == reference_compose(r1, r2)
        assert (t1 == t2) == (r1 == r2)

    @given(st.data())
    @settings(deadline=None)
    def test_interleaved_calls_match_reference(self, data):
        # word tables over 1, 2 and 3 letters from separate calls, kept alive
        # together, share one store and so compare by value
        pool = []
        for _ in range(data.draw(st.integers(1, 8))):
            a, k, (w,) = data.draw(automaton_words(1))
            pool.append((word_table(a, w, k), (k, a.alphabet_size, reference_word_table(a, w, k))))
        for t, (_, _, r) in pool:
            assert list(t.outputs) == r
        for t1, r1 in pool:
            assert [t1 == t2 for t2, _ in pool] == [r1 == r2 for _, r2 in pool]
        assert len({t for t, _ in pool}) == len({(k, m, tuple(r)) for _, (k, m, r) in pool})

    @given(words, words)
    @settings(max_examples=100)
    def test_matches_sequential_application(self, w1, w2):
        k = 5
        t1 = word_table(I2, w1, k).outputs
        t2 = word_table(I2, w2, k).outputs
        assert list(word_table(I2, w1 + w2, k).outputs) == [t1[v] for v in t2]

    @given(automaton_words(0))
    def test_identity_neutral(self, case):
        a, k, _ = case
        assert list(word_table(a, (), k).outputs) == list(range(a.alphabet_size**k))

    @given(words)
    def test_word_table_is_fold_of_compose(self, w):
        k = 4
        outputs = list(word_table(I2, (), k).outputs)
        for q in w:  # leftmost factor applied last = composed first
            outputs = reference_compose(outputs, list(table_of(I2, q, k).outputs))
        assert list(word_table(I2, w, k).outputs) == outputs
        # a generator is read once, so the range check does not spend it
        assert word_table(I2, (q for q in w), k) == word_table(I2, w, k)

    def test_dropped_tables_keep_no_memory(self):
        # a memory bound, not a timing gate: a store lives only as long as
        # some table in it
        rng = random.Random(60)
        requests = [tuple(rng.randint(0, 1) for _ in range(60)) for _ in range(250)]
        tracemalloc.start()
        try:
            for w in requests[:50]:
                word_table(I2, w, 40)
            before = tracemalloc.get_traced_memory()[0]
            for w in requests[50:]:
                word_table(I2, w, 40)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 50_000


class TestEnumeration:
    def test_level1_monoid(self):
        layers = enumerate_monoid(I2, 1)
        assert layers.element_count == 4

    def test_quotient_orders_small(self):
        for n in (1, 2, 3):
            order = enumerate_monoid(I2, n).element_count
            assert order == i2_quotient_order_formula(n)

    def test_sphere_vs_ball_level2(self):
        layers = enumerate_monoid(I2, 2)
        # ball sizes are monotone; spheres can only count matching parity
        assert layers.cumulative == sorted(layers.cumulative)
        assert all(s <= b for s, b in zip(layers.sphere_sizes, layers.cumulative))
        assert layers.sphere_sizes[0] == 1

    def test_element_cap(self, monkeypatch):
        monkeypatch.setattr(tables, "MAX_ELEMENTS", 50)
        with pytest.raises(CapacityError):
            enumerate_monoid(I2, 6)

    @staticmethod
    def count_products(monkeypatch):
        """Patch the bulk kernel to count the products it forms, grouped by the
        right Cayley lists of the level below that they read."""
        formed = {}  # id of the lists -> [lists, products formed over them]
        products = tables._right_products

        def counting(nodes, row, below):
            record = formed.setdefault(id(below), [below, 0])  # holds below, so ids stay unique
            for prod in products(nodes, row, below):
                record[1] += 1
                yield prod

        monkeypatch.setattr(tables, "_right_products", counting)
        return formed

    def test_element_cap_stops_within_a_layer(self, monkeypatch):
        # the cap is checked as each new element is recorded, at the top
        # level and at every level below it, not after a depth.  It is
        # crossed in level 8's first depth past |S_7| elements, at the top
        # (level 8) or one level below it (level 9).
        full = enumerate_monoid(I2, 8)
        d = 1 + next(i for i, n in enumerate(full.cumulative) if n > i2_quotient_order_formula(7))
        cap = full.cumulative[d - 1] + 5
        assert full.cumulative[d] > cap + 100
        # I2 has 2 states: below the top, each element times each state once
        below = 2 * sum(i2_quotient_order_formula(j) for j in range(1, 8))
        before, through = below + 2 * full.cumulative[d - 2], below + 2 * full.cumulative[d - 1]
        # the top expands an element once per parity: through depth j, the
        # frontiers at depths 0..j, sphere(j) + sphere(j-1) elements
        top_before, top_through = (below + 2 * sum(full.sphere_sizes[j - 1:j + 1])
                                   for j in (d - 2, d - 1))
        formed = self.count_products(monkeypatch)
        monkeypatch.setattr(tables, "MAX_ELEMENTS", cap)
        calls = []
        for level in (8, 9):
            formed.clear()
            with pytest.raises(CapacityError, match=f"^element count exceeded cap {cap}$"):
                enumerate_monoid(I2, level)
            calls.append(sum(n for _, n in formed.values()))
        top, lower = calls
        # the top level stops within the first state's products of the depth
        assert top_before < top < top_before + (top_through - top_before) // 2
        # level 8 is built below level 9 with the same per-element check,
        # so it stops before the depth is complete
        assert before < lower < through

    def test_products_formed_at_level_11(self, monkeypatch):
        # a faster kernel must not form fewer products: one per element and
        # generator at every level below, 69,684 in all, and at the top one
        # per generator and expansion, 90,116
        formed = self.count_products(monkeypatch)
        layers = enumerate_monoid(I2, 11)
        assert layers.element_count == 43_010
        counts = [n for _, n in formed.values()]
        assert counts[:-1] == [2 * i2_quotient_order_formula(j) for j in range(1, 11)]
        assert (counts[-1], sum(counts[:-1]), sum(counts)) == (90_116, 69_684, 159_800)

    def test_full_closure_expands_only_the_left_zeros_twice(self, monkeypatch):
        # an element is expanded once per parity it is reached at; in I2's
        # level-k quotient only the 2**k left zeros are reached at both
        formed = self.count_products(monkeypatch)
        for k in range(1, 12):
            formed.clear()
            enumerate_monoid(I2, k)
            top = [n for _, n in formed.values()][-1]
            assert top == 2 * (i2_quotient_order_formula(k) + 2**k)

    @given(automaton_words(0), st.integers(0, 6))
    @settings(deadline=None)
    def test_matches_reference(self, case, depth):
        a, k, _ = case
        layers = enumerate_monoid(a, k, max_depth=depth)
        ref_gens = reference_state_tables(a, k)
        assert (
            layers.layer_sizes, layers.cumulative, layers.sphere_sizes
        ) == reference_enumerate(ref_gens, max_depth=depth)

    @given(st.data())
    @settings(deadline=None)
    def test_full_closure_matches_reference(self, data):
        # the bulk route; m**k <= 8 keeps the closures small (m**k = 9 can
        # reach 137,743 elements)
        a = data.draw(automata())
        k = data.draw(st.sampled_from([k for k in range(5) if a.alphabet_size**k <= 8]))
        layers = enumerate_monoid(a, k)
        assert (
            layers.layer_sizes, layers.cumulative, layers.sphere_sizes
        ) == reference_enumerate(reference_state_tables(a, k))

    def test_full_closure_matches_saturated_ball(self):
        # the bulk and the memoized route check each other: a ball run past
        # the saturation depth is the full closure
        for k in range(11):
            full = enumerate_monoid(I2, k)
            assert full == enumerate_monoid(I2, k, max_depth=len(full.cumulative))

    def test_bfs_memory_is_freed_on_return(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layers = enumerate_monoid(I2, 10)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert layers.element_count == i2_quotient_order_formula(10)
        assert after - before < (peak - before) / 10

    def test_bfs_bytes_per_element(self):
        # a memory guard, not a timing gate: the top level's flat tuples with
        # their parity bits, over the right Cayley lists of the level below,
        # give about 120 B per element
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layers = enumerate_monoid(I2, 11)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert layers.element_count == i2_quotient_order_formula(11) == 43_010
        assert peak / layers.element_count < 160


class TestStabilizedOracle:
    def test_small_values(self):
        # (sphere, ball) for I2 at small radii
        table = stabilized_growth_table(I2, 5)
        assert table[1] == (2, 3)
        assert table[2] == (4, 6)
        assert table[5] == (13, 22)

    def test_matches_series_to_40(self):
        gamma, ball = automaton_growth_coeffs(40), ball_growth_coeffs(40)
        table = stabilized_growth_table(I2, 40)
        assert table == [(gamma[n], ball[n]) for n in range(41)]

    @pytest.mark.parametrize("bad", [0, 1, 7, 12])
    def test_mismatch_names_first_radius(self, monkeypatch, bad):
        # the fault is in every BFS run, so only the series can catch it
        enumerate_real = tables.enumerate_monoid

        def shifted(a, level, **kwargs):
            layers = enumerate_real(a, level, **kwargs)
            layers.sphere_sizes[bad] += 1
            return layers

        monkeypatch.setattr(tables, "enumerate_monoid", shifted)
        with pytest.raises(VerificationError, match=rf"at radius {bad}$"):
            stabilized_growth_table(I2, 12)

    def test_word_growth_mismatch_names_its_radius(self, monkeypatch):
        # new elements per depth are delta(n) at the stabilization level
        enumerate_real = tables.enumerate_monoid

        def shifted(a, level, **kwargs):
            layers = enumerate_real(a, level, **kwargs)
            layers.layer_sizes[7] += 1
            return layers

        monkeypatch.setattr(tables, "enumerate_monoid", shifted)
        with pytest.raises(VerificationError, match=r"at radius 7$"):
            stabilized_growth_table(I2, 12)

    def test_one_bfs_at_the_stabilization_level(self, monkeypatch):
        enumerate_real = tables.enumerate_monoid
        levels = []

        def recording(a, level, **kwargs):
            levels.append(level)
            return enumerate_real(a, level, **kwargs)

        monkeypatch.setattr(tables, "enumerate_monoid", recording)
        stabilized_growth_table(I2, 12)
        assert levels == [7]

    def test_level_rule_is_tight(self):
        # level nmax//2 + 1 matches gamma, gamma_S and delta through nmax, and
        # level nmax//2 does not: level k first differs at radius 2k (k >= 1)
        wants = [(gamma, ball, delta) for delta, gamma, ball in growth_series(43)[1]]
        first_differs = []
        for k in range(22):
            layers = enumerate_monoid(I2, k, max_depth=2 * k + 1)
            rows = zip(layers.sphere_sizes, layers.cumulative, layers.layer_sizes)
            first_differs.append(next(
                n for n, (row, want) in enumerate(zip(rows, wants)) if row != want))
        assert first_differs == [1] + [2 * k for k in range(1, 22)]
        for nmax in range(1, 41):
            assert first_differs[nmax // 2 + 1] > nmax >= first_differs[nmax // 2]

    def test_word_tables_count_the_series(self):
        # a second route to the level rule that never runs the BFS: the distinct
        # level-k tables of the words of length <= n (exactly n) are gamma_S(n)
        # (gamma(n)) at k = n//2 + 1, and one level lower some of them merge
        rows = list(growth_series(12)[1])
        for n in range(1, 13):
            k = n // 2 + 1
            _, gamma, ball = rows[n]
            spheres = [{word_table(I2, w, k) for w in product((0, 1), repeat=d)}
                       for d in range(n + 1)]
            assert (len(set().union(*spheres)), len(spheres[n])) == (ball, gamma)
            words = (w for d in range(n + 1) for w in product((0, 1), repeat=d))
            lower = {word_table(I2, w, k - 1) for w in words}
            assert len(lower) < ball
        assert (len(set().union(*spheres)), len(spheres[12]), len(lower)) == (143, 79, 141)

    @pytest.mark.parametrize("outputs", [(1, 0), (0, 0)])
    def test_only_i2_is_admitted(self, outputs):
        # one state: s swaps every letter (s^2 = 1) or e writes 0s (e^2 = e);
        # I2's level rule does not hold for them
        a = MealyAutomaton(2, ((0, 0),), (outputs,))
        with pytest.raises(ValueError, match="^the stabilization oracle holds only for I2$"):
            stabilized_growth_table(a, 7)

    def test_labels_are_ignored(self):
        relabelled = MealyAutomaton(2, I2.transitions, I2.outputs, ("a", "b"))
        assert stabilized_growth_table(relabelled, 12) == stabilized_growth_table(I2, 12)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            stabilized_growth_table(I2, 0)


class TestClosedForms:
    def test_quotient_formula_values(self):
        assert [i2_quotient_order_formula(n) for n in (1, 2, 3)] == [4, 14, 42]
        assert i2_quotient_order_formula(12) == 94210
