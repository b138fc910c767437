import random
from fractions import Fraction

import pytest

from tconvex import (
    IllFormed,
    NotInvertible,
    complement,
    compose,
    cyclic_group,
    deserialize_endo,
    identity_endo,
    lattice_group,
    midpoint_recursion,
    multiplication_endo,
    nadic_group,
    neumann_inverse,
    operator_norm,
    power,
    right_inverse_on,
    scaled_identity,
    serialize_endo,
    spectral_radius,
    try_inverse,
    validate_endo,
)
from tconvex import linalg
from tconvex.endos import Endo, NoSolution, add, zero_endo
from tconvex.sets import EndoSet, closure_generate


def test_cyclic_congruence_validation():
    g = cyclic_group(4, 2)
    # entry sending the order-2 coordinate into Z_4 must be even
    validate_endo(g, [[1, 2], [0, 1]])
    with pytest.raises(IllFormed):
        validate_endo(g, [[1, 1], [0, 1]])


def test_scalar_ring_validation():
    gl = lattice_group(1)
    with pytest.raises(IllFormed):
        validate_endo(gl, [[Fraction(1, 2)]])
    gn = nadic_group(6)
    validate_endo(gn, [[Fraction(1, 2)]])
    with pytest.raises(IllFormed):
        validate_endo(gn, [[Fraction(1, 5)]])


def test_ring_operations():
    g = cyclic_group(5)
    t = multiplication_endo(g, 2)
    s = multiplication_endo(g, 3)
    assert compose(t, s).key() == multiplication_endo(g, 1).key()
    assert add(t, s).key() == zero_endo(g).key()
    assert complement(t).key() == multiplication_endo(g, 4).key()
    assert complement(complement(t)).key() == t.key()
    assert power(t, 0).key() == identity_endo(g).key()
    assert power(t, 3).key() == multiplication_endo(g, 3).key()


def test_operator_norm_values():
    g = cyclic_group(5)
    assert operator_norm(multiplication_endo(g, 2)) == 2
    gn = nadic_group(2, 2)
    t = validate_endo(gn, [[Fraction(1, 2), 1], [0, Fraction(1, 4)]])
    # abs metric: weighted column-sum norm
    assert operator_norm(t) == Fraction(5, 4)


def test_operator_norm_is_submultiplicative():
    g = cyclic_group(6)
    t = multiplication_endo(g, 2)
    s = multiplication_endo(g, 4)
    assert operator_norm(compose(t, s)) <= operator_norm(t) * operator_norm(s)


def test_nilpotent_certificate_and_neumann_inverse():
    g = lattice_group(2)
    t = validate_endo(g, [[0, 1], [0, 0]])
    bound = spectral_radius(t)
    assert bound.is_nilpotent
    inv = neumann_inverse(t)  # (I - T)^-1 = I + T
    assert inv.matrix == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert compose(complement(t), inv).matrix == identity_endo(g).matrix


def test_non_nilpotent_is_not_certified():
    g = lattice_group(1)
    assert not spectral_radius(validate_endo(g, [[2]])).is_nilpotent


def test_contraction_gets_a_rational_bound():
    g = nadic_group(2)
    bound = spectral_radius(scaled_identity(g, Fraction(1, 2)))
    assert not bound.is_nilpotent
    assert bound.upper < 1


def test_iroot_ceil_brackets_the_root():
    rng = random.Random(5)
    cases = [(10**400 + 1, 2), (3**1000, 3), (3**1000 - 1, 3)]
    for _ in range(400):
        cases.append((rng.randrange(1, 10 ** rng.randint(1, 400)), rng.randint(1, 6)))
    for k, m in cases:
        r = linalg.iroot_ceil(k, m)
        assert (r - 1) ** m < k <= r**m
    assert linalg.iroot_ceil(0, 3) == 0


def test_try_inverse():
    gn = nadic_group(6)
    inv = try_inverse(validate_endo(gn, [[Fraction(1, 2)]]))
    assert inv.matrix == ((Fraction(2),),)
    with pytest.raises(NotInvertible):
        try_inverse(validate_endo(lattice_group(1), [[2]]))
    g5 = cyclic_group(5)
    assert try_inverse(multiplication_endo(g5, 2)).key() == \
        multiplication_endo(g5, 3).key()


def test_right_inverse_on_generators():
    g = lattice_group(1)
    s = validate_endo(g, [[2]])
    u = g.reduce([2])
    part = right_inverse_on(s, [u])
    assert s.apply(part.apply(u)) == u
    with pytest.raises(NoSolution):
        right_inverse_on(s, [g.reduce([1])])


def test_midpoint_recursion_fixed_point():
    g = nadic_group(2)
    t = scaled_identity(g, Fraction(1, 2))
    assert midpoint_recursion(t, 4).matrix == t.matrix
    t2 = scaled_identity(g, Fraction(1, 4))
    # T^2 + (I-T)^2 at t = 1/4 gives 1/16 + 9/16 = 5/8
    assert midpoint_recursion(t2, 2).matrix == ((Fraction(5, 8),),)


def test_endo_serialization_round_trip():
    g = cyclic_group(4, 2)
    t = validate_endo(g, [[3, 2], [1, 1]])
    assert deserialize_endo(g, serialize_endo(t)).key() == t.key()
    gn = nadic_group(6, 2)
    s = validate_endo(gn, [[Fraction(1, 2), 0], [Fraction(-1, 3), 1]])
    assert deserialize_endo(gn, serialize_endo(s)).matrix == s.matrix


def test_key_keeps_non_integer_cyclic_entries_distinct():
    g = cyclic_group(5)
    half = Endo(g, ((Fraction(1, 2),),))
    assert half.key() != zero_endo(g).key()
    assert Endo(g, ((Fraction(7),),)).key() == multiplication_endo(g, 2).key()
    assert len(EndoSet([zero_endo(g), half]).keys()) == 2
    assert half.key() in closure_generate(g, [half], budget=8).keys()
