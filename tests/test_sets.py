from fractions import Fraction

import pytest

from tconvex import (
    SetError,
    box_set,
    closure_generate,
    cyclic_group,
    deserialize_ground_set,
    enumerate_TD,
    finite_set,
    internal_points,
    is_T_convex,
    is_n_convex,
    lattice_group,
    multiplication_endo,
    nadic_group,
    radstrom_check,
    serialize_ground_set,
    whole_group_set,
)
from tconvex.endos import complement, compose
from tconvex.report import FAILED


def test_whole_group_is_always_T_convex():
    g = cyclic_group(6)
    d = whole_group_set(g)
    for a in range(6):
        assert is_T_convex(d, multiplication_endo(g, a)).verdict


def test_T_convexity_witness():
    g = cyclic_group(5)
    d = finite_set(g, [g.reduce([0]), g.reduce([1])])
    rep = is_T_convex(d, multiplication_endo(g, 3))
    assert not rep.verdict
    assert rep.witness is not None


def test_box_T_convexity_is_sampled():
    g = nadic_group(2)
    d = box_set(g, [Fraction(0)], [Fraction(1)])
    from tconvex.endos import scaled_identity

    rep = is_T_convex(d, scaled_identity(g, Fraction(1, 2)))
    assert rep.verdict and rep.mode == "sampled" and rep.details["probes"] == 1000


def test_n_convexity():
    g = lattice_group(1)
    a = finite_set(g, [g.reduce([0]), g.reduce([1])])
    rep = is_n_convex(a, 2)
    assert not rep.verdict  # {0,2} != {0,1,2}
    assert rep.witness["side"] == "sumset minus dilation"
    singleton = finite_set(g, [g.reduce([3])])
    assert is_n_convex(singleton, 4).verdict
    box = box_set(nadic_group(2), [Fraction(0)], [Fraction(1)])
    assert is_n_convex(box, 3).verdict


def test_enumerate_TD_on_whole_cyclic_group():
    g = cyclic_group(5)
    td = enumerate_TD(whole_group_set(g))
    assert len(td) == 5  # every multiplication endo keeps the whole group


def test_enumerated_semigroup_is_closed():
    g = cyclic_group(6)
    d = finite_set(g, [g.reduce([0]), g.reduce([2]), g.reduce([4])])
    td = enumerate_TD(d)
    keys = td.keys()
    members = list(td)
    for t in members:
        assert complement(t).key() in keys
        for t1 in members:
            for t2 in members:
                comp = binary_map_combination(t, t1, t2)
                assert comp.key() in keys


def binary_map_combination(t, t1, t2):
    from tconvex import linalg
    from tconvex.endos import Endo

    return Endo(
        t.group,
        linalg.mat_add(compose(t, t1).matrix, compose(complement(t), t2).matrix),
    )


def test_closure_generate_stays_inside_the_semigroup():
    g = cyclic_group(6)
    d = finite_set(g, [g.reduce([0]), g.reduce([3])])
    td = enumerate_TD(d)
    closed = closure_generate(g, list(td), budget=128)
    assert not closed.truncated
    assert closed.keys() <= td.keys()
    # provenance strings are recorded for every member
    assert all(k in closed.provenance for k in closed.keys())


def test_closure_generate_truncates_at_budget():
    g = cyclic_group(12)
    closed = closure_generate(g, [multiplication_endo(g, 5)], budget=3)
    assert closed.truncated and len(closed) <= 3


def test_radstrom_cancellation_on_adic_box():
    g = nadic_group(2)
    b = box_set(g, [Fraction(0)], [Fraction(1)])
    a = finite_set(g, [g.reduce([Fraction(1, 2)])])
    c = finite_set(g, [g.reduce([Fraction(1, 4)])])
    rep = radstrom_check(a, b, c, 2)
    assert rep.verdict
    assert rep.details["conclusion_asserted"]
    assert rep.fully_verified


def test_radstrom_hypothesis_fails_on_finite_groups():
    g = cyclic_group(6)
    s = finite_set(g, [g.zero()])
    rep = radstrom_check(s, s, s, 2)
    assert not rep.details.get("conclusion_asserted", False)
    assert any(h.startswith("mu_d") and st == FAILED for h, st in rep.audit)


def test_internal_points():
    g = cyclic_group(5)
    d = whole_group_set(g)
    verdict, _ = internal_points(d, multiplication_endo(g, 3), g.zero())
    assert verdict == "internal"
    box = box_set(nadic_group(2), [Fraction(0)], [Fraction(1)])
    from tconvex.endos import scaled_identity

    verdict, _ = internal_points(
        box, scaled_identity(nadic_group(2), Fraction(1, 2)),
        nadic_group(2).reduce([Fraction(1, 2)]),
    )
    assert verdict == "inconclusive"


def test_ground_set_serialization_round_trip():
    g = cyclic_group(4, 2)
    d = finite_set(g, [g.reduce([1, 0]), g.reduce([3, 1])])
    assert deserialize_ground_set(g, serialize_ground_set(d)).elements == d.elements
    gn = nadic_group(2)
    b = box_set(gn, [Fraction(0)], [Fraction(3, 2)])
    rb = deserialize_ground_set(gn, serialize_ground_set(b))
    assert (rb.lower, rb.upper) == (b.lower, b.upper)


def test_box_requires_adic_carrier():
    with pytest.raises(SetError):
        box_set(lattice_group(1), [0], [1])
