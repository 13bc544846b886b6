"""The value classes: equality, hashing, repr, immutability, copying and pickling."""

import copy
import pickle

import pytest

from mealygrowth import (
    F0,
    I2,
    ONE,
    AsymptoteSpec,
    General,
    GrowthLayers,
    JustF0,
    MealyAutomaton,
    One,
    enumerate_monoid,
    word_table,
)
from mealygrowth.series import Q_ASYMPTOTE

GENERAL = General(1, (0, 2), 3, 0)


def test_equality_is_by_class_and_fields():
    assert One() == ONE and JustF0() == F0
    assert ONE != F0 and F0 != ONE
    assert GENERAL == General(1, (0, 2), 3, 0) != General(1, (0, 2), 3, 1)
    assert GENERAL != (1, (0, 2), 3, 0) and ONE != ()


def test_equal_values_hash_equal():
    twin = MealyAutomaton(2, ((0, 0), (1, 0)), ((1, 0), (1, 1)), ("q0", "q1"))
    assert twin == I2 and hash(twin) == hash(I2)
    assert len({ONE, One(), F0, GENERAL, General(1, (0, 2), 3, 0)}) == 3


def test_keyword_construction():
    assert MealyAutomaton(alphabet_size=2, transitions=I2.transitions, outputs=I2.outputs,
                          state_labels=I2.state_labels) == I2
    assert MealyAutomaton(2, I2.transitions, I2.outputs).state_labels is None
    assert General(eps1=1, exponents=(0, 2), tail=3, eps2=0) == GENERAL
    assert AsymptoteSpec(prefactor=1.0, power=0.5, exponent_coefficient=2.0).power == 0.5


# built in the test: a table held for the whole session would keep its store alive
@pytest.mark.parametrize("make,field", [
    (lambda: I2, "alphabet_size"),
    (lambda: I2, "state_labels"),
    (lambda: GENERAL, "tail"),
    (lambda: Q_ASYMPTOTE, "prefactor"),
    (lambda: ONE, "word_length"),
    (lambda: F0, "word_length"),
    (lambda: word_table(I2, (0, 1), 3), "node"),
    (lambda: enumerate_monoid(I2, 2), "sphere_sizes"),
])
def test_fields_cannot_be_assigned_or_deleted(make, field):
    value = make()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("value", [
    I2, MealyAutomaton(2, I2.transitions, I2.outputs), GENERAL, Q_ASYMPTOTE, ONE, F0,
])
def test_copy_deepcopy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


def test_table_deepcopy_shares_its_store():
    table = word_table(I2, (0, 1), 3)
    twin = copy.deepcopy(table)
    assert twin == table and twin.store is table.store


def test_table_refuses_to_pickle():
    with pytest.raises(TypeError, match="^a table's node store is shared state and cannot be"):
        pickle.dumps(word_table(I2, (0, 1), 3))


def test_repr_names_the_fields():
    assert repr(GENERAL) == "General(eps1=1, exponents=(0, 2), tail=3, eps2=0)"
    assert repr(ONE) == "One()"
    assert repr(AsymptoteSpec(1.5, -0.75, 2.0)) == (
        "AsymptoteSpec(prefactor=1.5, power=-0.75, exponent_coefficient=2.0)")
    assert repr(GrowthLayers([1], [1], [1])) == (
        "GrowthLayers(layer_sizes=[1], cumulative=[1], sphere_sizes=[1])")


def test_table_repr_leaves_out_its_store():
    table = word_table(I2, (1,), 2)
    assert repr(table) == f"TransformTable(level=2, alphabet_size=2, node={table.node})"
    assert "store" not in repr(table)
