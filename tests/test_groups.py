import functools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from galcount.constructions import (
    alternating_natural,
    cyclic_natural,
    dihedral_natural,
    direct_product,
    heisenberg_mod3,
    regular_rep,
    sl2_natural,
    symmetric_natural,
    wreath,
)
from galcount.groups import EnumerationCapError, PermGroup, _Level, _ranks, component_minima, cycle_inds
from galcount.groupspec import parse_group_file
from galcount.perms import Perm, parse_cycles

from oracles import bfs_elements, bfs_tree_word, schreier_order


def assert_matches_reference(group):
    """Elements, order, ind array, witness and a(G) against the per-Perm reference."""
    reference = bfs_elements(group.degree, list(group.generators), group.cap)
    assert group.elements() == reference
    assert group.order() == len(reference) == schreier_order(group.degree, list(group.generators))
    inds = [e.ind() for e in reference]
    assert cycle_inds(group.image_array()).tolist() == inds
    # the ranks are a bijection onto 0 .. |G| - 1
    ranks = _ranks(group._stabilizer_chain(), group.image_array())
    assert sorted(ranks.tolist()) == list(range(len(reference)))
    if len(reference) == 1:
        assert group.a_invariant() == 0
        return
    min_ind = min(inds[1:])
    assert group.min_index_witness() == (reference[inds.index(min_ind, 1)], min_ind)
    assert group.a_invariant() == Fraction(1, min_ind)


def test_trivial_group():
    g = PermGroup(3, [Perm.identity(3)])
    assert g.elements() == (Perm.identity(3),)
    assert g.order() == 1
    assert g.a_invariant() == 0
    with pytest.raises(ValueError):
        g.min_index_witness()


def test_cyclic_enumeration():
    g = PermGroup(4, [parse_cycles("(1 2 3 4)", 4)], cap=10)
    assert g.order() == 4


def test_enumeration_order_is_bfs_and_cached():
    g = symmetric_natural(3)
    elems = g.elements()
    assert elems[0].is_identity
    # level 1 is the generators in order
    assert elems[1] == g.generators[0]
    assert elems[2] == g.generators[1]
    assert g.elements() is elems  # cached


def test_cap_exceeded():
    g = symmetric_natural(5, cap=100)
    with pytest.raises(EnumerationCapError):
        g.elements()


def test_cap_error_text_matches_reference():
    for cap in (1, 5, 100, 119):
        group = PermGroup(5, symmetric_natural(5).generators, cap)
        with pytest.raises(EnumerationCapError) as reference:
            bfs_elements(5, list(group.generators), cap)
        with pytest.raises(EnumerationCapError) as engine:
            group.a_invariant()
        assert str(engine.value) == str(reference.value) == f"group order exceeds cap {cap}"
    # the constructor itself refuses 5 points over a cap of 1, with the same text
    with pytest.raises(EnumerationCapError, match="^group order exceeds cap 1$"):
        symmetric_natural(5, cap=1)
    assert symmetric_natural(5, cap=120).order() == 120


def test_order_and_cap_refusal_never_enumerate(monkeypatch):
    def refuse(self, positions):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(PermGroup, "_bfs_levels", refuse)
    assert wreath(cyclic_natural(2), symmetric_natural(4)).order() == 384
    big = direct_product(symmetric_natural(8), symmetric_natural(8))
    assert big.order() == math.factorial(8) ** 2
    for group in (big, symmetric_natural(12), symmetric_natural(5, cap=119)):
        for read in (group.image_array, group.a_invariant, group.min_index_witness):
            with pytest.raises(EnumerationCapError, match=f"^group order exceeds cap {group.cap}$"):
                read()


def test_orbit_longer_than_cap_refused_before_the_chain():
    # the chain's first level would hold 2000 rows of 2000 points; its orbit alone passes the cap
    group = PermGroup(2000, cyclic_natural(2000).generators, cap=1000)
    with pytest.raises(EnumerationCapError, match="^group order exceeds cap 1000$"):
        group.order_within_cap()
    assert group._chain is None
    assert cyclic_natural(2000, cap=2000).order_within_cap() == 2000


def test_over_the_cap_refused_before_any_transversal_row_over_it(monkeypatch):
    # the product of the chain's orbit lengths bounds |G| from below as the chain grows
    built = []
    inverses = _Level.inverses.func

    def counted(self):
        built.append(len(self.orbit))
        return inverses(self)

    counted_once = functools.cached_property(counted)
    counted_once.__set_name__(_Level, "inverses")
    monkeypatch.setattr(_Level, "inverses", counted_once)
    # A 71's first level, one orbit of 71 points, fits the cap, and its Schreier generators need its rows
    for group, rows in [(alternating_natural(200000), []), (dihedral_natural(600000), []),
                        (alternating_natural(71, cap=1000), [71])]:
        built.clear()
        with pytest.raises(EnumerationCapError, match=f"^group order exceeds cap {group.cap}$"):
            group.order_within_cap()
        assert group._chain is None and built == rows


def test_uncapped_order_after_a_refusal():
    group = symmetric_natural(6, cap=719)
    with pytest.raises(EnumerationCapError, match="^group order exceeds cap 719$"):
        group.order_within_cap()
    assert group._chain is None and group.order() == 720
    with pytest.raises(EnumerationCapError, match="^group order exceeds cap 719$"):
        group.order_within_cap()  # from the cached chain, built without the cap


def _bfs_reach(monkeypatch) -> list[int]:
    """Record the size of every BFS level the library walks from now on."""
    sizes = []
    levels = PermGroup._bfs_levels

    def counted(self, positions):
        for level in levels(self, positions):
            sizes.append(len(level))
            yield level

    monkeypatch.setattr(PermGroup, "_bfs_levels", counted)
    return sizes


def _first_least_ind(group):
    inds = cycle_inds(group.image_array())
    k = 1 + int(np.argmin(inds[1:]))
    return Perm(group.image_array()[k].tolist()), int(inds[k])


def test_witness_search_stops_once_the_least_ind_is_proved(monkeypatch):
    relabel = list(range(9))
    random.Random(9).shuffle(relabel)
    sigma = Perm(relabel)
    # A9 with its points renamed: no transposition sifts into it, so a 3-cycle's ind 2 is least
    text = "degree=9\n" + "\n".join(f"gen={sigma * g * sigma.inverse()}" for g in alternating_natural(9).generators)
    relabelled = parse_group_file(text)
    expected = _first_least_ind(parse_group_file(text))
    assert expected[1] == 2

    sizes = _bfs_reach(monkeypatch)
    monkeypatch.setattr(PermGroup, "_enumerate", lambda self: pytest.fail("full enumeration"))
    s9 = symmetric_natural(9)
    assert s9.min_index_witness() == (s9.generators[0], 1)
    assert s9.a_invariant() == 1
    assert sum(sizes) < 10
    sizes.clear()
    assert relabelled.min_index_witness() == expected
    assert relabelled.a_invariant() == Fraction(1, 2)
    assert sum(sizes) < 100


def test_witness_search_walks_the_whole_bfs_when_nothing_can_be_proved(monkeypatch):
    # least ind 24 on 48 points, not a regular action: the ball of ind <= 1 alone outnumbers the group
    group = sl2_natural(7)
    expected = _first_least_ind(sl2_natural(7))
    sizes = _bfs_reach(monkeypatch)
    assert group.min_index_witness() == expected
    assert expected[1] == 24 and sum(sizes) == 336


def test_regular_action_stops_at_an_element_of_least_prime_order(monkeypatch):
    # 384 = 2^7 * 3: the least ind is 384 - 384/2, met by a generator of order 2
    group = regular_rep(wreath(cyclic_natural(2), symmetric_natural(4)))
    expected = _first_least_ind(regular_rep(wreath(cyclic_natural(2), symmetric_natural(4))))
    sizes = _bfs_reach(monkeypatch)
    monkeypatch.setattr(PermGroup, "_enumerate", lambda self: pytest.fail("full enumeration"))
    monkeypatch.setattr(PermGroup, "contains", lambda self, rows: pytest.fail("a sphere was sifted"))
    assert group.min_index_witness() == expected
    assert expected[1] == 192 and sum(sizes) == 4


def test_regular_witness_matches_the_full_bfs_on_the_catalog():
    # the closed-form floor must not change which element is the witness
    for group in catalog_groups():
        assert group.order() <= 5040
        action = regular_rep(group)
        expected = _first_least_ind(regular_rep(group))
        assert action.min_index_witness() == expected
        assert action.a_invariant() == Fraction(1, expected[1])


def test_engine_above_256_points_uses_uint16():
    group = regular_rep(wreath(cyclic_natural(2), symmetric_natural(4)))
    assert group.degree == 384
    assert group.image_array().dtype == np.uint16
    assert_matches_reference(group)
    assert group.a_invariant() == Fraction(1, 192)


def test_is_transitive():
    assert PermGroup(3, [parse_cycles("(1 2 3)", 3)]).is_transitive()
    assert not PermGroup(3, [parse_cycles("(1 2)", 3)]).is_transitive()
    assert direct_product(symmetric_natural(3), cyclic_natural(2)).is_transitive()
    assert PermGroup(1, [Perm.identity(1)]).is_transitive()
    assert not PermGroup(3, [Perm.identity(3)]).is_transitive()


def test_component_minima_match_a_graph_search():
    rng = random.Random(5)
    for _ in range(200):
        k, m = rng.randint(1, 3), rng.randint(1, 40)
        succ = np.array([[rng.randrange(m) for _ in range(m)] for _ in range(k)])
        neighbours = [set() for _ in range(m)]
        for row in succ.tolist():
            for x, y in enumerate(row):
                neighbours[x].add(y)
                neighbours[y].add(x)
        expected = [-1] * m
        for start in range(m):  # ascending, so each search starts at its component's least point
            stack = [start] if expected[start] < 0 else []
            while stack:
                x = stack.pop()
                if expected[x] < 0:
                    expected[x] = start
                    stack.extend(neighbours[x])
        assert component_minima(succ).tolist() == expected


def test_is_transitive_refuses_without_the_chain(monkeypatch):
    monkeypatch.setattr(PermGroup, "_stabilizer_chain", lambda self: pytest.fail("chain built"))
    cycle = "(" + " ".join(map(str, range(1, 501))) + ")"
    assert not PermGroup(1000, [parse_cycles(cycle, 1000), parse_cycles("(1 2)", 1000)]).is_transitive()
    assert PermGroup(500, [parse_cycles(cycle, 500)]).is_transitive()


def test_narrow_levels_are_enumerated_in_runs(monkeypatch):
    # one generator of order 2310 on 28 points: every BFS level holds one element
    g = parse_cycles("(1 2)(3 4 5)(6 7 8 9 10)(11 12 13 14 15 16 17)(18 19 20 21 22 23 24 25 26 27 28)", 28)
    group = PermGroup(28, [g])
    sizes = _bfs_reach(monkeypatch)
    powers = [Perm.identity(28)]
    while len(powers) < 2310:
        powers.append(powers[-1] * g)
    assert group.elements() == tuple(powers)
    assert sum(sizes) == 2310 and len(sizes) < 50
    assert group.index(group.image_array()[::-1]).tolist() == list(range(2309, -1, -1))


def test_generator_validation():
    with pytest.raises(ValueError):
        PermGroup(3, [])
    with pytest.raises(ValueError):
        PermGroup(3, [Perm.identity(4)])


def test_a_invariant_examples():
    assert PermGroup(1, [Perm.identity(1)]).a_invariant() == 0
    for ell in (2, 3, 5, 7):
        assert cyclic_natural(ell).a_invariant() == Fraction(1, ell - 1)
    assert sl2_natural(3).a_invariant() == Fraction(1, 4)
    assert dihedral_natural(8).a_invariant() == Fraction(1, 3)  # order 16 in degree 8


def test_min_index_witness_examples():
    witness, ind = regular_rep(cyclic_natural(4)).min_index_witness()
    assert ind == 2 and witness.order() == 2

    witness, ind = symmetric_natural(3).min_index_witness()
    assert ind == 1 and witness.order() == 2  # a transposition

    witness, ind = wreath(cyclic_natural(2), cyclic_natural(4)).min_index_witness()
    assert ind == 1
    assert witness.cycles() == [(0, 1)]  # a single block flip


def catalog_groups() -> list[PermGroup]:
    return [
        symmetric_natural(3),
        symmetric_natural(4),
        symmetric_natural(5),
        alternating_natural(4),
        alternating_natural(5),
        dihedral_natural(8),
        cyclic_natural(12),
        sl2_natural(3),
        heisenberg_mod3(),
        regular_rep(symmetric_natural(3)),
        regular_rep(dihedral_natural(8)),
        wreath(cyclic_natural(2), symmetric_natural(4)),
        direct_product(symmetric_natural(4), symmetric_natural(3)),
        regular_rep(direct_product(heisenberg_mod3(), cyclic_natural(2))),
    ]


def test_orders_against_orbit_stabilizer_oracle():
    expected = [6, 24, 120, 12, 60, 16, 12, 24, 27, 6, 16, 384, 144, 54]
    for group, order in zip(catalog_groups(), expected):
        assert group.order() == order
        assert_matches_reference(group)


def test_index_and_word_follow_the_enumeration():
    rng = random.Random(5)
    s3 = symmetric_natural(3)
    extra = [regular_rep(wreath(cyclic_natural(2), symmetric_natural(4))), PermGroup(3, s3.generators[::-1])]
    for group in catalog_groups() + extra:
        images = group.image_array()
        assert group.index(images).tolist() == list(range(group.order()))
        outside = [[0] * group.degree]  # not a permutation at all
        if group.order() < math.factorial(group.degree):
            members = set(map(tuple, images.tolist()))
            perm = list(range(group.degree))
            while tuple(perm) in members:
                rng.shuffle(perm)
            outside.append(perm)
        assert group.index(outside).tolist() == [-1] * len(outside)

        gens = np.array([g.images for g in group.generators])
        position = {e: i for i, e in enumerate(group.elements())}
        words = [group.word(k) for k in range(group.order())]
        for k, word in enumerate(words):
            row = np.arange(group.degree)
            for j in word:
                row = row[gens[j]]
            assert row.tolist() == images[k].tolist()
            assert word == bfs_tree_word(group, position, k)
        # breadth-first order lists elements by word length
        assert [len(w) for w in words] == sorted(len(w) for w in words)


def test_index_rejects_a_row_that_agrees_with_an_element_on_every_base_point():
    a5 = alternating_natural(5)
    base = [level.base for level in a5._stabilizer_chain()]
    assert len(base) == 3
    p, q = sorted(set(range(5)) - set(base))
    row = list(range(5))
    row[p], row[q] = q, p  # a transposition, fixing every base point like the identity
    assert _ranks(a5._stabilizer_chain(), np.array([row], dtype=np.uint8)).tolist() == [0]
    assert a5.index([row]).tolist() == [-1]
    assert not a5.contains([row]).any()
    assert a5.index([list(range(5))]).tolist() == [0]


def test_index_rejects_a_row_whose_sift_leaves_an_orbit():
    group = PermGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
    row = parse_cycles("(1 3)", 4).images  # sends the first base point out of its orbit
    assert _ranks(group._stabilizer_chain(), np.array([row], dtype=np.uint8)).tolist() == [-1]
    assert group.index([row, parse_cycles("(1 2)(3 4)", 4).images]).tolist() == [-1, 3]


def test_concurrent_element_fill_single_result():
    group = wreath(cyclic_natural(2), symmetric_natural(4))
    results, positions = [], []

    def worker():
        results.append(group.elements())
        positions.append(group.index(group.image_array()).tolist())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)
    assert len(results[0]) == 384
    assert positions == [list(range(384))] * 8
