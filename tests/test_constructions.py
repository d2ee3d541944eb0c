import itertools
import random
from fractions import Fraction

import pytest

from galcount.constructions import (
    DualRep,
    InconsistentDualRep,
    alternating_natural,
    check_index_domination,
    coset_action,
    cyclic_natural,
    dihedral_natural,
    direct_product,
    dual_regular_pair,
    heisenberg_mod3,
    regular_rep,
    sl2_natural,
    symmetric_natural,
    wreath,
)
from galcount.groups import EnumerationCapError, PermGroup
from galcount.perms import Perm, parse_cycles

from oracles import check_index_domination_slow, coset_action_slow, regular_index_formula


# Regular groups with the smallest prime divisor of their order, for the
# a = ell / ((ell-1) |G|) identity.
def regular_catalog():
    return [
        (regular_rep(cyclic_natural(2)), 2),
        (regular_rep(cyclic_natural(3)), 3),
        (regular_rep(cyclic_natural(5)), 5),
        (regular_rep(cyclic_natural(7)), 7),
        (regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2))), 2),
        (regular_rep(cyclic_natural(4)), 2),
        (regular_rep(dihedral_natural(3)), 2),  # order 6
        (regular_rep(dihedral_natural(4)), 2),  # order 8
        (regular_rep(dihedral_natural(5)), 2),  # order 10
        (regular_rep(dihedral_natural(6)), 2),  # order 12
        (regular_rep(dihedral_natural(7)), 2),  # order 14
        (regular_rep(dihedral_natural(8)), 2),  # order 16
        (regular_rep(symmetric_natural(3)), 2),
        (regular_rep(alternating_natural(4)), 2),
        (regular_rep(heisenberg_mod3()), 3),
    ]


def test_regular_rep_basics():
    c3 = cyclic_natural(3)
    reg = regular_rep(c3)
    assert reg.degree == 3 and reg.order() == 3

    reg_s3 = regular_rep(symmetric_natural(3))
    assert reg_s3.degree == 6
    assert reg_s3.a_invariant() == Fraction(1, 3)

    trivial = PermGroup(1, [Perm.identity(1)])
    assert regular_rep(trivial).degree == 1


def test_regular_rep_fixed_point_free():
    for group, _ in regular_catalog():
        for elem in group.elements()[1:]:
            assert all(elem(i) != i for i in range(group.degree))
        assert group.is_transitive()


def test_regular_index_identity():
    # ind(s) = |G|(m-1)/m for every element of every regular group
    for group, _ in regular_catalog():
        order = group.order()
        for elem in group.elements():
            if elem.is_identity:
                continue
            assert elem.ind() == regular_index_formula(order, elem.order())


def test_regular_a_formula():
    # a = ell/((ell-1)|G|) with ell the smallest prime divisor of |G|
    for group, ell in regular_catalog():
        assert group.a_invariant() == Fraction(ell, (ell - 1) * group.order())


def test_coset_action_trivial_subgroup_is_regular_rep():
    for group in [symmetric_natural(3), alternating_natural(4), cyclic_natural(5)]:
        action, faithful = coset_action(group, [group.identity()])
        reg = regular_rep(group)
        assert faithful
        assert action.degree == reg.degree
        assert action.generators == reg.generators


def test_coset_action_s3_on_transposition():
    s3 = symmetric_natural(3)
    action, faithful = coset_action(s3, [parse_cycles("(1 2)", 3)])
    assert faithful
    assert action.degree == 3
    assert action.order() == 6
    assert action.a_invariant() == Fraction(1, 1)


def test_coset_action_s4_on_c3():
    s4 = symmetric_natural(4)
    action, faithful = coset_action(s4, [parse_cycles("(1 2 3)", 4)])
    assert faithful
    assert action.degree == 8
    assert action.a_invariant() == Fraction(1, 4)


def test_coset_action_rejects_foreign_generator():
    # a transposition is not in the natural copy of A3
    a3 = alternating_natural(3)
    with pytest.raises(ValueError):
        coset_action(a3, [parse_cycles("(1 2)", 3)])
    # an odd permutation is not in A4 either
    a4 = alternating_natural(4)
    with pytest.raises(ValueError):
        coset_action(a4, [parse_cycles("(1 2)", 4)])


def test_coset_action_maps_each_coset_to_its_translate():
    # S4 on <(1 2 3)>, S4 on a non-normal Klein four-group, S3 on A3 (unfaithful)
    cases = [
        (symmetric_natural(4), ["(1 2 3)"]),
        (symmetric_natural(4), ["(1 2)", "(3 4)"]),
        (symmetric_natural(3), ["(1 2 3)"]),
    ]
    for group, cycles in cases:
        subgroup_gens = [parse_cycles(c, group.degree) for c in cycles]
        subgroup = PermGroup(group.degree, subgroup_gens).elements()
        reps: list[Perm] = []
        covered: set[Perm] = set()
        for x in group.elements():
            if x not in covered:
                reps.append(x)
                covered.update(x * h for h in subgroup)
        action, _ = coset_action(group, subgroup_gens)
        assert action.degree == len(reps)
        for g, image in zip(group.generators, action.generators):
            for i, rep in enumerate(reps):
                assert g * rep in {reps[image(i)] * h for h in subgroup}


def test_coset_action_unfaithful():
    # S3 acting on the cosets of A3: degree 2, kernel A3
    s3 = symmetric_natural(3)
    action, faithful = coset_action(s3, [parse_cycles("(1 2 3)", 3)])
    assert action.degree == 2
    assert not faithful


def test_direct_product_examples():
    prod = direct_product(symmetric_natural(3), cyclic_natural(2))
    assert prod.degree == 6
    assert prod.order() == 12
    assert prod.a_invariant() == Fraction(1, 2)

    g = symmetric_natural(4)
    trivial = PermGroup(1, [Perm.identity(1)])
    again = direct_product(g, trivial)
    assert again.degree == g.degree
    assert again.order() == g.order()

    a4xc2 = direct_product(alternating_natural(4), cyclic_natural(2))
    assert a4xc2.degree == 8
    assert a4xc2.a_invariant() == Fraction(1, 4)


def product_catalog():
    return [
        cyclic_natural(2),
        cyclic_natural(3),
        cyclic_natural(4),
        cyclic_natural(5),
        symmetric_natural(3),
        symmetric_natural(4),
        alternating_natural(4),
        dihedral_natural(4),
        regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2))),
        sl2_natural(3),
        heisenberg_mod3(),
        wreath(cyclic_natural(2), cyclic_natural(2)),
    ]


def test_direct_product_a_formula():
    # a(H x Z) = max(a(H)/deg(Z), a(Z)/deg(H)), exactly, over all catalog pairs
    catalog = product_catalog()
    checked = 0
    for h in catalog:
        for z in catalog:
            if h.degree * z.degree > 64:
                continue
            prod = direct_product(h, z)
            expected = max(
                h.a_invariant() / z.degree, z.a_invariant() / h.degree
            )
            assert prod.a_invariant() == expected, (h, z)
            checked += 1
    assert checked >= 50


def test_direct_product_transitive():
    for h in [cyclic_natural(3), symmetric_natural(4)]:
        for z in [cyclic_natural(2), dihedral_natural(4)]:
            assert direct_product(h, z).is_transitive()


def test_wreath_examples():
    w = wreath(cyclic_natural(3), cyclic_natural(2))
    assert w.degree == 6
    assert w.order() == 18
    assert w.a_invariant() == Fraction(1, 2)

    w2 = wreath(cyclic_natural(2), PermGroup(1, [Perm.identity(1)]))
    assert w2.degree == 2 and w2.order() == 2

    w3 = wreath(cyclic_natural(2), alternating_natural(4))
    assert w3.degree == 8
    assert w3.order() == 2**4 * 12
    assert w3.a_invariant() == Fraction(1, 1)


def test_wreath_order_formula():
    cases = [
        (cyclic_natural(2), cyclic_natural(2)),
        (cyclic_natural(2), cyclic_natural(4)),
        (cyclic_natural(4), cyclic_natural(2)),
        (cyclic_natural(3), symmetric_natural(3)),
        (cyclic_natural(2), symmetric_natural(4)),
        (symmetric_natural(3), cyclic_natural(2)),
    ]
    for a, h in cases:
        w = wreath(a, h)
        assert w.order() == a.order() ** h.degree * h.order()
        assert w.is_transitive()


def test_wreath_cap():
    with pytest.raises(EnumerationCapError):
        wreath(cyclic_natural(2, cap=100), symmetric_natural(4, cap=100))


def test_sl2_examples():
    g2 = sl2_natural(2)
    assert g2.degree == 3 and g2.order() == 6

    g3 = sl2_natural(3)
    assert g3.degree == 8 and g3.order() == 24
    assert g3.is_transitive()
    assert g3.a_invariant() == Fraction(1, 4)

    g5 = sl2_natural(5)
    assert g5.degree == 24 and g5.order() == 120

    with pytest.raises(ValueError):
        sl2_natural(4)
    with pytest.raises(ValueError):
        sl2_natural(1)


def test_sl2_cap_refused_before_building():
    # |SL2(101)| = 1,030,200: refused from the order alone, not after building
    # 10,200-point generators and enumerating toward the cap
    with pytest.raises(EnumerationCapError, match="SL2\\(101\\) order 1030200 exceeds cap 1000000"):
        sl2_natural(101)
    with pytest.raises(EnumerationCapError):
        sl2_natural(7, cap=335)
    assert sl2_natural(7, cap=336).order() == 336


def test_heisenberg():
    h = heisenberg_mod3()
    assert h.degree == 9
    assert h.order() == 27
    assert h.is_transitive()
    assert all(e.order() == 3 for e in h.elements()[1:])
    assert any(a * b != b * a for a in h.elements() for b in h.elements())
    assert h.a_invariant() == Fraction(1, 4)

    prod = direct_product(h, cyclic_natural(2))
    assert prod.degree == 18
    assert prod.a_invariant() == Fraction(1, 8)
    assert regular_rep(prod).a_invariant() == Fraction(1, 27)


# --- index domination -------------------------------------------------------


def ell_group_pairs():
    """(regular representation, smaller faithful transitive action) pairs of ell-groups."""
    groups = [
        cyclic_natural(2),
        cyclic_natural(3),
        cyclic_natural(4),
        cyclic_natural(5),
        cyclic_natural(7),
        cyclic_natural(8),
        cyclic_natural(9),
        regular_rep(direct_product(cyclic_natural(2), cyclic_natural(2))),
        dihedral_natural(4),  # order 8 on 4 points
        wreath(cyclic_natural(2), cyclic_natural(2)),
        wreath(cyclic_natural(2), cyclic_natural(4)),
        wreath(cyclic_natural(4), cyclic_natural(2)),
        heisenberg_mod3(),
    ]
    return [dual_regular_pair(g) for g in groups]


def test_domination_holds_for_ell_group_pairs():
    for dual in ell_group_pairs():
        report = check_index_domination(dual)
        assert report.holds and report.witness is None


def test_domination_identical_representations():
    s4 = symmetric_natural(4)
    dual = DualRep(tuple(s4.generators), tuple(s4.generators))
    assert check_index_domination(dual).holds


def test_domination_fails_for_example_pair():
    prod = direct_product(heisenberg_mod3(), cyclic_natural(2))
    report = check_index_domination(dual_regular_pair(prod))
    assert not report.holds
    w = report.witness
    assert (w.ind1, w.ind2) == (36, 8)
    assert w.a1 == Fraction(1, 27)
    assert w.a2 == Fraction(1, 8)
    # the witness violates the inequality as exact rationals
    assert w.a2 * w.ind2 < w.a1 * w.ind1


def _word_product(gens, word):
    result = Perm.identity(gens[0].degree)
    for j in word:
        result = result * gens[j]
    return result


def test_domination_witness_for_swapped_pairs():
    # natural action first, regular second; the witness is a violating word of
    # minimal length, and its indices are those of the word in each representation
    coxeter_s4 = PermGroup(4, [parse_cycles(c, 4) for c in ("(1 2)", "(2 3)", "(3 4)")])
    cases = [
        (symmetric_natural(4), (1,)),
        (coxeter_s4, (0, 1)),
        (wreath(cyclic_natural(2), symmetric_natural(4)), (1,)),
    ]
    for group, expected_word in cases:
        regular = regular_rep(group)
        dual = DualRep(tuple(group.generators), tuple(regular.generators))
        report = check_index_domination(dual)
        assert not report.holds
        w = report.witness
        assert w.word == expected_word
        assert (w.a1, w.a2) == (group.a_invariant(), regular.a_invariant())
        assert _word_product(dual.gens1, w.word).ind() == w.ind1
        assert _word_product(dual.gens2, w.word).ind() == w.ind2
        assert w.a2 * w.ind2 < w.a1 * w.ind1
        for length in range(len(w.word)):
            for word in itertools.product(range(len(dual.gens1)), repeat=length):
                ind1 = _word_product(dual.gens1, word).ind()
                ind2 = _word_product(dual.gens2, word).ind()
                assert w.a2 * ind2 >= w.a1 * ind1


def test_domination_cap_refused():
    prod = direct_product(heisenberg_mod3(), cyclic_natural(2))
    with pytest.raises(EnumerationCapError):
        check_index_domination(dual_regular_pair(prod), cap=10)


def test_ell_power_index_inequality():
    # ind(s) >= ell(m-1) / (m(ell-1) a(G)) for each element of an ell-group action
    actions = [
        (cyclic_natural(4), 2),
        (cyclic_natural(8), 2),
        (cyclic_natural(9), 3),
        (dihedral_natural(4), 2),
        (wreath(cyclic_natural(2), cyclic_natural(4)), 2),
        (heisenberg_mod3(), 3),
        (regular_rep(dihedral_natural(8)), 2),
    ]
    for group, ell in actions:
        a2 = group.a_invariant()
        for elem in group.elements()[1:]:
            m = elem.order()
            assert Fraction(elem.ind()) >= Fraction(ell * (m - 1), m * (ell - 1)) / a2


def test_inconsistent_pair_detected():
    # same generator count, but C2 against C4: the square of the generator is
    # the identity on one side only
    c2 = cyclic_natural(2)
    c4 = cyclic_natural(4)
    # one group, but S3 as (transposition, 3-cycle) against its regular action
    # built from (3-cycle, transposition)
    s3 = symmetric_natural(3)
    reordered = regular_rep(PermGroup(3, s3.generators[::-1]))
    for gens1, gens2 in ((c2.generators, c4.generators), (s3.generators, reordered.generators)):
        with pytest.raises(InconsistentDualRep):
            check_index_domination(DualRep(tuple(gens1), tuple(gens2)))


def test_mismatched_generator_counts_rejected():
    s3 = symmetric_natural(3)
    with pytest.raises(InconsistentDualRep):
        DualRep(tuple(s3.generators), (s3.generators[0],))


def _relabelled(gens, rng):
    """The generators conjugated by a random renaming of the points."""
    sigma = Perm(rng.sample(range(gens[0].degree), gens[0].degree))
    return tuple(sigma * g * sigma.inverse() for g in gens)


def test_matches_perm_reference():
    # coset actions: generator images and faithfulness, and the same refusal of a
    # generator outside the group
    cosets = [
        (symmetric_natural(4), ["(1 2 3)"]),
        (symmetric_natural(4), ["(1 2)", "(3 4)"]),
        (symmetric_natural(4), ["(1 2 3 4)"]),
        (symmetric_natural(3), ["(1 2 3)"]),
        (alternating_natural(4), ["(1 2)(3 4)"]),
        (symmetric_natural(5), ["(1 2 3 4 5)", "(2 5)(3 4)"]),
        (heisenberg_mod3(), ["()"]),
        (wreath(cyclic_natural(2), symmetric_natural(4)), ["()"]),
    ]
    for group, cycles in cosets:
        subgroup_gens = [parse_cycles(c, group.degree) for c in cycles]
        (action, faithful), (expected, expected_faithful) = (
            build(group, subgroup_gens) for build in (coset_action, coset_action_slow)
        )
        assert action.generators == expected.generators and faithful == expected_faithful
    for build in (coset_action, coset_action_slow):
        with pytest.raises(ValueError, match=r"subgroup generator \(1 2\) is not in the group"):
            build(alternating_natural(4), [parse_cycles("(1 2)", 4)])

    # domination: the whole report (holds, witness word, ind1, ind2, a1, a2)
    rng = random.Random(7)
    example_7_4 = dual_regular_pair(direct_product(heisenberg_mod3(), cyclic_natural(2)))
    coxeter_s4 = PermGroup(4, [parse_cycles(c, 4) for c in ("(1 2)", "(2 3)", "(3 4)")])
    swapped = [
        symmetric_natural(4),
        coxeter_s4,
        wreath(cyclic_natural(2), symmetric_natural(4)),
        dihedral_natural(5),
    ]
    pairs = ell_group_pairs() + [example_7_4]
    pairs += [DualRep(tuple(g.generators), tuple(regular_rep(g).generators)) for g in swapped]
    pairs += [DualRep(d.gens2, d.gens1) for d in ell_group_pairs()]
    pairs += [DualRep(d.gens1[::-1], d.gens2[::-1]) for d in list(pairs)]
    pairs += [DualRep(_relabelled(d.gens1, rng), _relabelled(d.gens2, rng)) for d in list(pairs)]
    outcomes = set()
    for dual in pairs:
        report = check_index_domination(dual)
        assert report == check_index_domination_slow(dual)
        outcomes.add(report.holds)
    assert outcomes == {True, False}

    # pairs that do not present one group, including one side's generators reordered
    s3 = symmetric_natural(3)
    inconsistent = [
        DualRep(tuple(cyclic_natural(2).generators), tuple(cyclic_natural(4).generators)),
        DualRep(tuple(s3.generators), tuple(regular_rep(PermGroup(3, s3.generators[::-1])).generators)),
        DualRep(example_7_4.gens1, example_7_4.gens2[::-1]),
        DualRep(tuple(coxeter_s4.generators), (*symmetric_natural(4).generators, parse_cycles("(1 2)", 4))),
    ]
    inconsistent += [DualRep(d.gens2, d.gens1) for d in inconsistent]
    for dual in inconsistent + [DualRep(_relabelled(d.gens1, rng), d.gens2) for d in inconsistent]:
        for check in (check_index_domination, check_index_domination_slow):
            with pytest.raises(InconsistentDualRep):
                check(dual)
