from fractions import Fraction

import pytest

from tconvex import (
    GroupError,
    cyclic_group,
    deserialize_group,
    divisible_by,
    lattice_group,
    mu_d,
    n_norm,
    nadic_group,
    serialize_group,
)


def test_lee_norm_wraps_around():
    g = cyclic_group(5)
    assert g.dnorm(g.reduce([3])) == 2
    assert g.dnorm(g.reduce([2])) == 2
    assert g.dnorm(g.reduce([0])) == 0


def test_weighted_product_norm_is_a_sum():
    g = cyclic_group(4, 2, weights=[Fraction(1), Fraction(3)])
    assert g.dnorm(g.reduce([2, 1])) == 2 + 3


def test_abs_norm_on_lattice_and_adic():
    gl = lattice_group(2)
    assert gl.dnorm(gl.reduce([-3, 4])) == 7
    gn = nadic_group(2)
    assert gn.dnorm(gn.reduce([Fraction(-3, 4)])) == Fraction(3, 4)


def test_norm_axioms_hold_on_a_sample():
    g = cyclic_group(7, kind="lee")
    elems = list(g.elements())
    for x in elems:
        assert (g.dnorm(x) == 0) == (x == g.zero())
        assert g.dnorm(g.neg(x)) == g.dnorm(x)
        for y in elems:
            assert g.dnorm(g.add(x, y)) <= g.dnorm(x) + g.dnorm(y)


def test_injectivity_measure_on_z5():
    g = cyclic_group(5)
    assert mu_d(g, 2, "enumerated") == Fraction(1, 2)
    assert n_norm(g, 2, "enumerated") == 2
    assert mu_d(g, 1, "enumerated") == 1
    # multiplication by 5 kills everything: not injective
    assert mu_d(g, 5, "enumerated") == 0


def test_injectivity_measure_abs_metric_is_exact():
    g = lattice_group(3)
    assert mu_d(g, 4) == 4
    assert n_norm(g, 4) == 4


def test_divisibility_witnesses():
    assert divisible_by(cyclic_group(5), 2) == (True, [3])
    assert divisible_by(cyclic_group(6), 2) == (False, None)
    assert divisible_by(lattice_group(1), 2) == (False, None)
    flag, w = divisible_by(nadic_group(6), 4)
    assert flag and w == Fraction(1, 4)
    assert divisible_by(nadic_group(6), 5) == (False, None)


def test_adic_carrier_rejects_foreign_denominators():
    g = nadic_group(6)
    g.reduce([Fraction(5, 12)])  # 12 = 2^2 * 3 is fine
    with pytest.raises(GroupError):
        g.reduce([Fraction(1, 5)])


def test_cyclic_reduction_is_modular():
    g = cyclic_group(4, 2)
    assert g.reduce([6, 3]).coords == g.reduce([2, 1]).coords
    assert g.add(g.reduce([3, 1]), g.reduce([1, 1])) == g.zero()


def test_group_serialization_round_trip():
    for g in (
        cyclic_group(4, 2, kind="discrete", weights=[Fraction(1, 2), Fraction(2)]),
        lattice_group(2),
        nadic_group(6, 2),
    ):
        assert deserialize_group(serialize_group(g)) == g


@pytest.mark.parametrize("family, field, value", [
    ("lattice", "rank", 1.7),
    ("lattice", "rank", 1.0),
    ("lattice", "rank", True),
    ("lattice", "rank", float("inf")),
    ("lattice", "rank", "1"),
    ("nadic", "base", 6.5),
    ("nadic", "rank", True),
    ("cyclic", "moduli", [5.0]),
    ("cyclic", "moduli", [5.5]),
    ("cyclic", "moduli", [float("inf")]),
    ("cyclic", "moduli", "5"),
])
def test_deserialize_group_accepts_only_integer_fields(family, field, value):
    data = serialize_group({"cyclic": cyclic_group(5),
                            "lattice": lattice_group(1),
                            "nadic": nadic_group(6)}[family])
    assert deserialize_group(data).family == family
    data[field] = value
    with pytest.raises(GroupError):
        deserialize_group(data)
