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
from galcount.groups import EnumerationCapError, PermGroup
from galcount.perms import Perm, parse_cycles

from oracles import bfs_elements, schreier_order


def assert_matches_reference(group):
    """Elements, order, ind array, witness and a(G) against the per-Perm reference."""
    reference = bfs_elements(group.degree, list(group.generators), group.cap)
    assert group.elements() == reference
    assert group.order() == len(reference) == schreier_order(group.degree, list(group.generators))
    inds = [e.ind() for e in reference]
    assert group.inds().tolist() == inds
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
        group = symmetric_natural(5, cap=cap)
        with pytest.raises(EnumerationCapError) as reference:
            bfs_elements(5, list(group.generators), cap)
        with pytest.raises(EnumerationCapError) as engine:
            group.a_invariant()
        assert str(engine.value) == str(reference.value) == f"group order exceeds cap {cap}"
    assert symmetric_natural(5, cap=120).order() == 120


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


def test_orders_against_orbit_stabilizer_oracle():
    catalog = [
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
    expected = [6, 24, 120, 12, 60, 16, 12, 24, 27, 6, 16, 384, 144, 54]
    for group, order in zip(catalog, expected):
        assert group.order() == order
        assert_matches_reference(group)


def test_concurrent_element_fill_single_result():
    group = wreath(cyclic_natural(2), symmetric_natural(4))
    results = []

    def worker():
        results.append(group.elements())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)
    assert len(results[0]) == 384
