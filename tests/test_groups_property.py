"""Property tests of the image-array engine and the stabilizer chain against independent references."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from galcount.groups import EnumerationCapError, PermGroup, next_sphere, sphere_size
from galcount.perms import Perm, parse_cycles

from oracles import bfs_elements, schreier_order
from test_groups import assert_matches_reference, catalog_groups


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 8))
    images = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup(degree, [Perm(p) for p in images])


def _group(degree, *cycle_strings):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycle_strings])


def assert_chain_matches_references(group, rng):
    """order(), contains() and the witness search against the Schreier recursion, sympy and the BFS."""
    gens = list(group.generators)
    assert group.order() == schreier_order(group.degree, gens)
    assert group.order() == PermutationGroup([Permutation(list(g.images)) for g in gens]).order()

    # the witness is searched before anything is enumerated, so the early stop is what runs
    reference = bfs_elements(group.degree, gens, group.cap)
    inds = [e.ind() for e in reference]
    if len(reference) == 1:
        assert group.a_invariant() == 0
        with pytest.raises(ValueError):
            group.min_index_witness()
    else:
        least = min(inds[1:])
        assert group.min_index_witness() == (reference[inds.index(least, 1)], least)
        assert group.a_invariant().denominator == least

    rows = group.image_array()
    randoms = np.array([rng.sample(range(group.degree), group.degree) for _ in range(40)])
    assert group.contains(rows).all()
    assert group.contains(randoms).tolist() == (group.index(randoms) >= 0).tolist()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(generator_sets())
@example(_group(8, "(1 2)", "(1 2 3 4 5 6 7 8)", "(1 3)(2 4)"))  # S8, three generators
@example(_group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"))  # GL(3, 2), order 168, on 7 points
@example(_group(8, "(1 2 3)(4 5)", "(6 7 8)"))  # intransitive
def test_engine_matches_reference_on_random_generators(group):
    assert_matches_reference(group)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(generator_sets())
@example(_group(8, "(1 2 3)", "(1 2 3 4 5 6 7)"))  # A8 on 8 points, whose least ind is 2
@example(_group(6, "(1 2)(3 4)(5 6)", "(1 3 5)(2 4 6)"))  # least ind 2 on 6 points
@example(_group(1, "()"))
def test_chain_matches_references_on_random_generators(group):
    assert_chain_matches_references(group, random.Random(group.degree))


def test_chain_matches_references_on_the_catalog():
    rng = random.Random(3)
    for group in catalog_groups():
        assert_chain_matches_references(group, rng)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(generator_sets(), st.sampled_from([-1, 0]))
@example(_group(8, "(1 2)", "(1 2 3 4 5 6 7 8)", "(1 3)(2 4)"), -1)
@example(_group(8, "(1 2 3)(4 5)", "(6 7 8)"), -1)
def test_order_within_cap_refuses_exactly_over_the_cap(group, offset):
    order = PermutationGroup([Permutation(list(g.images)) for g in group.generators]).order()
    capped = PermGroup(group.degree, group.generators, max(order + offset, 1))
    if order > capped.cap:
        with pytest.raises(EnumerationCapError, match=f"^group order exceeds cap {capped.cap}$"):
            capped.order_within_cap()
        assert capped._chain is None
    else:
        assert capped.order_within_cap() == order


@pytest.mark.parametrize("n", range(1, 8))
def test_spheres_are_the_permutations_of_each_ind(n):
    by_ind: dict[int, set] = {}
    for p in itertools.permutations(range(n)):
        by_ind.setdefault(Perm(p).ind(), set()).add(p)
    sphere = np.arange(n, dtype=np.uint8)[None, :]
    for j in range(n):
        rows = list(map(tuple, sphere.tolist()))
        assert len(rows) == len(set(rows)) == sphere_size(n, j)
        assert set(rows) == by_ind[j]
        sphere = next_sphere(sphere)
    assert len(sphere) == 0 and sphere_size(n, n) == 0
