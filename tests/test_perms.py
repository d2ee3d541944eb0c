import copy
import pickle
import random

import pytest

from galcount.constructions import DualRep
from galcount.perms import CycleParseError, Perm, parse_cycles


def test_parse_identity():
    p = parse_cycles("()", 4)
    assert p == Perm.identity(4)
    assert str(p) == "()"


def test_parse_two_cycles():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    assert p.images == (1, 2, 0, 4, 3)


def test_parse_roundtrip():
    for text, degree in [("(1 2 3)(4 5)", 5), ("(2 4)", 4), ("()", 3), ("(1 3)(2 5)(4 6)", 6)]:
        assert str(parse_cycles(text, degree)) == text


def test_parse_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 9)", 5)  # point out of range
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2)(2 3)", 5)  # repeated point
    with pytest.raises(CycleParseError):
        parse_cycles("(1, 2)", 5)  # not the grammar
    with pytest.raises(CycleParseError):
        parse_cycles("", 5)
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2", 5)
    with pytest.raises(CycleParseError):
        parse_cycles("(0 1)", 5)  # 1-based points


def test_parse_whitespace_between_cycles():
    assert parse_cycles("(1 2) (3 4)", 4) == parse_cycles("(1 2)(3 4)", 4)


def test_compose_order_convention():
    # (p * q)(i) = p(q(i)): composing (1 2) with (2 3) must give a 3-cycle
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert (p * q).images == (1, 2, 0)  # 1->2, 2->3, 3->1
    assert str(p * q) == "(1 2 3)"


def test_identity_and_inverse_laws():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        images = list(range(n))
        rng.shuffle(images)
        g = Perm(images)
        e = Perm.identity(n)
        assert g * e == g
        assert e * g == g
        assert g * g.inverse() == e
        assert g.inverse() * g == e


def test_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)", 2) * parse_cycles("(1 2)", 3)


def test_not_a_bijection():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([])


def test_ind_examples():
    assert Perm.identity(7).ind() == 0
    assert parse_cycles("(1 2 3 4 5 6 7 8)", 8).ind() == 7
    assert parse_cycles("(1 2)(3 4 5)", 5).ind() == 3


def test_ind_is_sum_of_cycle_lengths_minus_one():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 15)
        images = list(range(n))
        rng.shuffle(images)
        g = Perm(images)
        cycles = g.cycles(include_fixed=True)
        assert g.ind() == sum(len(c) - 1 for c in cycles)
        assert 0 <= g.ind() <= n - 1


def test_ind_invariant_under_inverse_and_conjugation():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 12)
        a = list(range(n))
        b = list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        g, h = Perm(a), Perm(b)
        assert g.ind() == g.inverse().ind()
        assert (h * g * h.inverse()).ind() == g.ind()


def test_element_order():
    assert Perm.identity(5).order() == 1
    assert parse_cycles("(1 2)(3 4 5)", 5).order() == 6
    for ell in (2, 3, 5, 7, 11):
        cycle = "(" + " ".join(str(i + 1) for i in range(ell)) + ")"
        assert parse_cycles(cycle, ell).order() == ell


def test_order_times_power_is_identity():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 10)
        images = list(range(n))
        rng.shuffle(images)
        g = Perm(images)
        assert (g ** g.order()).is_identity


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))])
def test_perm_and_dual_rep_copy_and_pickle(clone):
    g = parse_cycles("(1 2 3)(4 5)", 5)
    assert clone(g) == g and hash(clone(g)) == hash(g) and clone(g).images == g.images
    dual = DualRep((g,), (parse_cycles("(1 2)", 2),))
    assert clone(dual) == dual and type(clone(dual)) is DualRep
