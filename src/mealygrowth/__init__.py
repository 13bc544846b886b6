"""Growth machinery for Mealy-automaton semigroups, centered on I2."""

from .errors import AutomatonFormatError, CapacityError, VerificationError
from .mealy import (
    I2,
    MealyAutomaton,
    automaton_growth,
    format_automaton,
    is_invertible,
    load_automaton,
    minimize,
    parse_automaton,
    product,
)
from .rewrite import (
    F0,
    ONE,
    General,
    JustF0,
    NormalForm,
    One,
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
    words_equal,
    words_equal_quotient,
)
from .series import (
    AsymptoteSpec,
    automaton_growth_coeffs,
    ball_growth_coeffs,
    growth_series,
    odd_distinct_partitions,
)
from .tables import (
    GrowthLayers,
    TransformTable,
    ball_growth_oracle,
    enumerate_monoid,
    i2_quotient_order_formula,
    spherical_growth_oracle,
    stabilized_growth_table,
    table_of,
    word_table,
)

__version__ = "0.1.0"
