"""Stabilizer-chain engine: brute-force closure is the independent oracle."""

import math
import random

import numpy as np
import pytest

from dpmod2 import errors
from dpmod2.groups import PermGroup, closure


def _tuple_mult(a, b):
    return tuple(a[i] for i in b)


def _closure_order(gens, degree):
    return len(closure([tuple(g) for g in gens], _tuple_mult,
                       tuple(range(degree))))


def test_symmetric_group_orders():
    for k in (3, 4, 5, 6, 7):
        t = np.array([1, 0] + list(range(2, k)))
        c = np.array(list(range(1, k)) + [0])
        assert PermGroup([t, c], k).order() == math.factorial(k)


def test_random_groups_against_bfs_closure():
    random.seed(42)
    for _ in range(60):
        k = random.choice([4, 5, 6, 7])
        gens = [np.array(random.sample(range(k), k))
                for _ in range(random.choice([1, 2, 3]))]
        assert PermGroup(gens, k).order() == _closure_order(gens, k)


def test_order_invariant_under_generator_shuffles():
    random.seed(9)
    gens = [np.array([1, 0, 2, 3, 4, 5]), np.array([1, 2, 3, 4, 5, 0]),
            np.array([0, 2, 1, 3, 5, 4])]
    ref = PermGroup(gens, 6).order()
    assert PermGroup(gens[::-1], 6).order() == ref
    for _ in range(8):
        shuffled = gens[:]
        random.shuffle(shuffled)
        assert PermGroup(shuffled, 6).order() == ref


def test_trivial_group():
    G = PermGroup([np.arange(5)], 5)
    assert G.order() == 1
    assert G.contains(np.arange(5))
    assert not G.contains(np.array([1, 0, 2, 3, 4]))


def test_contains_products_of_generators():
    random.seed(17)
    gens = [np.array([1, 2, 0, 4, 3, 5, 6]), np.array([0, 1, 3, 2, 5, 6, 4])]
    G = PermGroup(gens, 7)
    for _ in range(25):
        word = [random.choice(gens) for _ in range(random.randint(1, 3))]
        g = np.arange(7)
        for w in word:
            g = w[g]
        assert G.contains(g)


def test_contains_rejects_non_members():
    # even permutations only: A4 from two 3-cycles
    gens = [np.array([1, 2, 0, 3]), np.array([0, 2, 3, 1])]
    G = PermGroup(gens, 4)
    assert G.order() == 12
    transposition = np.array([1, 0, 2, 3])
    assert not G.contains(transposition)


def test_order_divides_degree_factorial():
    random.seed(23)
    for _ in range(10):
        k = random.choice([5, 6, 8])
        gens = [np.array(random.sample(range(k), k)) for _ in range(2)]
        assert math.factorial(k) % PermGroup(gens, k).order() == 0


def test_degree_mismatch():
    G = PermGroup([np.array([1, 0, 2])], 3)
    with pytest.raises(errors.DegreeMismatch):
        G.contains(np.array([1, 0]))


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermGroup([[1, 1, 2]], 3)


def test_contains_single_transposition():
    G = PermGroup([np.array([1, 0, 2, 3, 4])], 5)
    assert G.order() == 2
    assert G.contains(np.array([1, 0, 2, 3, 4]))


def test_every_generator_is_a_member():
    random.seed(31)
    gens = [np.array(random.sample(range(8), 8)) for _ in range(3)]
    G = PermGroup(gens, 8)
    assert all(G.contains(g) for g in G.generators)


def test_extend_reports_growth():
    G = PermGroup([], 4)
    assert G.order() == 1
    assert G.extend(np.array([1, 0, 2, 3]))
    assert not G.extend(np.array([1, 0, 2, 3]))
    assert G.extend(np.array([0, 1, 3, 2]))
    assert G.order() == 4
    # only the generators that grew the group are recorded
    assert [g.tolist() for g in G.generators] == [[1, 0, 2, 3], [0, 1, 3, 2]]
