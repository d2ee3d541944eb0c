"""Property test of the image-array engine against the per-Perm reference BFS."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcount.groups import PermGroup
from galcount.perms import Perm, parse_cycles

from test_groups import assert_matches_reference


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 8))
    images = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup(degree, [Perm(p) for p in images])


def _group(degree, *cycle_strings):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycle_strings])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(generator_sets())
@example(_group(8, "(1 2)", "(1 2 3 4 5 6 7 8)", "(1 3)(2 4)"))  # S8, three generators
@example(_group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"))  # GL(3, 2), order 168, on 7 points
@example(_group(8, "(1 2 3)(4 5)", "(6 7 8)"))  # intransitive
def test_engine_matches_reference_on_random_generators(group):
    assert_matches_reference(group)
