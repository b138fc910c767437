import itertools
from fractions import Fraction

import pytest

from tconvex import (
    ConvexPair,
    DeriveError,
    Infeasible,
    QuadraticFn,
    WRIGHT,
    affine_decompose,
    box_set,
    check_inequality,
    compose_pair,
    finite_set,
    kuhn_derive,
    last_derive,
    lattice_group,
    nadic_group,
    right_inverse_derive,
    right_inverse_on,
    rode_support,
    scaled_identity,
    table_fn,
    twa_decompose,
    u_grid_verify,
    wright_ratio_derive,
)

G6 = nadic_group(6)


def _sq_on_box(g, hi=Fraction(1)):
    dom = box_set(g, [Fraction(0)], [hi])
    return QuadraticFn(dom, ((Fraction(1),),), (Fraction(0),), Fraction(0))


def _pair(g, t):
    return ConvexPair(scaled_identity(g, t), t)


def test_compose_pair_blends_endo_and_weight():
    g = nadic_group(2)
    outer, p1, p2 = _pair(g, Fraction(1, 2)), _pair(g, Fraction(1, 4)), _pair(
        g, Fraction(3, 4)
    )
    derived = compose_pair(outer, p1, p2)
    assert derived.pair.t == Fraction(1, 2)
    assert derived.pair.endo.matrix == ((Fraction(1, 2),),)
    assert derived.rule == "compose"
    # without a function to check, hypotheses stay assumed
    assert not derived.may_alarm


def test_wright_ratio_hand_case():
    t = scaled_identity(G6, Fraction(1, 2))
    derived = wright_ratio_derive(t, 1, 2)
    assert derived.pair.t == Fraction(1, 3)
    assert derived.pair.endo.matrix == ((Fraction(1, 3),),)
    assert derived.details["route"] == "neumann"
    statuses = [s for _, s in derived.audit]
    assert "failed" not in statuses
    f = _sq_on_box(G6)
    assert check_inequality(WRIGHT, f, derived.pair, probes=60, seed=1).verdict


def test_u_grid_hand_case():
    g = nadic_group(2)
    f = _sq_on_box(g)
    rep = u_grid_verify(f, scaled_identity(g, Fraction(1, 2)), 1, 2,
                        g.zero(), g.reduce([Fraction(3, 4)]))
    assert rep.verdict
    assert rep.details["cells"] == 6


def test_u_grid_rejects_escaping_cells():
    g = nadic_group(2)
    f = _sq_on_box(g)
    with pytest.raises(DeriveError):
        u_grid_verify(f, scaled_identity(g, Fraction(1, 2)), 3, 3,
                      g.zero(), g.reduce([Fraction(31, 32)]))


def test_last_coefficients_hand_case():
    derived = last_derive([_pair(G6, Fraction(1, 2))] * 2, 1)
    assert derived.pair.t == Fraction(2, 3)
    assert derived.details["coefficients"] == ["0", "4/3", "2/3", "0"]
    assert derived.may_alarm


def test_last_derive_single_pair_is_identity():
    p = _pair(G6, Fraction(1, 3))
    derived = last_derive([p], 1)
    assert derived.pair.t == p.t
    assert derived.pair.endo.matrix == p.endo.matrix


def test_kuhn_division_chain():
    derived = kuhn_derive(_pair(G6, Fraction(1, 2)), 3,
                          domain=_sq_on_box(G6).domain)
    assert [d.pair.t for d in derived] == [Fraction(1, 3), Fraction(2, 3),
                                           Fraction(1)]
    for d in derived:
        assert d.rule == "division"
        assert all(s != "failed" for _, s in d.audit)


def test_right_inverse_rules():
    g = nadic_group(2)
    t_pair = _pair(g, Fraction(1, 4))
    s_pair = _pair(g, Fraction(1, 2))
    sstar = right_inverse_on(s_pair.endo, g.generators())
    derived = right_inverse_derive(t_pair, s_pair, sstar)
    ts = {d.pair.t for d in derived}
    assert Fraction(1, 2) in ts  # t/s
    assert Fraction(1, 4) in ts  # s - t


def test_twa_roundtrip_quadratic():
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    a = table_fn(window, [x * x + 2 * x + 3 for x in range(-4, 5)])
    dec = twa_decompose(a)
    assert dec.ok
    assert dec.b_matrix == ((Fraction(1),),)
    assert dec.c == 3
    assert all(dec.reconstruct(x) == a(x) for x in window.elements)


def test_twa_rejects_cubics_with_witness():
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    cubic = table_fn(window, [x**3 for x in range(-4, 5)])
    dec = twa_decompose(cubic)
    assert not dec.ok and dec.residual is not None


def test_affine_decompose():
    g = nadic_group(2)
    window = finite_set(g, [g.reduce([Fraction(i, 4)]) for i in range(-8, 9)])
    a = table_fn(window, [3 * e.coords[0] + 7 for e in window.elements])
    pair = ConvexPair(scaled_identity(g, Fraction(1, 2)), Fraction(1, 2))
    dec = affine_decompose(a, [pair])
    assert dec.ok and dec.c == 7
    half = g.reduce([Fraction(1, 2)])
    assert dec.a_table[half.coords] == Fraction(3, 2)


def test_rode_support_hand_tangent():
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    f = table_fn(window, [x * x for x in range(-4, 5)])
    cert = rode_support(f, [], g.reduce([2]))
    assert not isinstance(cert, Infeasible)
    assert (cert.a, cert.c) == ((Fraction(4),), Fraction(-4))
    # support property: touches at p, stays below f elsewhere
    assert cert.value(g.reduce([2])) == f(g.reduce([2]))
    assert all(cert.value(x) <= f(x) for x in window.elements)


def test_rode_support_every_point_of_a_convex_table():
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    f = table_fn(window, [2 * x * x - x for x in range(-4, 5)])
    for p in window.elements:
        cert = rode_support(f, [], p)
        assert not isinstance(cert, Infeasible)
        assert cert.value(p) == f(p)
        assert all(cert.value(x) <= f(x) for x in window.elements)


def test_rode_support_infeasible_on_concave_table():
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    f = table_fn(window, [-x * x for x in range(-4, 5)])
    result = rode_support(f, [], g.zero())
    assert isinstance(result, Infeasible)
    assert result.note == "window artifact"
    # the Farkas vector: y >= 0 over the window, and summing y_x times
    # a.x + c <= f(x) with a(0) + c = f(0) gives 0 <= y.f - y(1) f(0) < 0
    y = result.farkas
    assert list(y) == list(window.elements)
    assert all(w >= 0 for w in y.values())
    assert sum(w * x.coords[0] for x, w in y.items()) == 0
    slack = sum(w * (f(x) - f(g.zero())) for x, w in y.items())
    assert slack < 0
    assert result.contradiction == ((Fraction(0),), slack)


def test_rode_support_rejects_a_false_farkas_vector(monkeypatch):
    from tconvex import linalg

    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    f = table_fn(window, [x * x for x in range(-4, 5)])
    # the system is feasible, so no y >= 0 can pass the re-verification
    monkeypatch.setattr(linalg, "fm_feasible",
                        lambda cs, n: ("infeasible", (Fraction(1),) * len(cs)))
    with pytest.raises(DeriveError, match="Farkas"):
        rode_support(f, [], g.reduce([2]))


def _kinked_quadratic(q, b, c, half, p):
    """x.Q.x + b.x + c + 3|x_0| + max(0, x_last) on the window [-half, half]^r
    of Z^r: convex, with kinks through the centre."""
    r = len(b)
    g = lattice_group(r)
    pts = list(itertools.product(range(-half, half + 1), repeat=r))
    window = finite_set(g, [g.reduce(list(x)) for x in pts])
    vals = [sum(x[i] * q[i][j] * x[j] for i in range(r) for j in range(r))
            + sum(bi * xi for bi, xi in zip(b, x)) + c + 3 * abs(x[0]) + max(0, x[-1])
            for x in pts]
    return table_fn(window, vals), g.reduce(list(p))


Q2, B2 = [[2, 1], [1, 3]], [1, -2]
Q3, B3 = [[2, 1, 0], [1, 3, -1], [0, -1, 2]], [1, -1, 2]


@pytest.mark.parametrize("case, a, c", [
    ((Q2, B2, 3, 3, (0, 0)), (1, Fraction(-3, 2)), 3),
    ((Q3, B3, -1, 1, (0, 0, 0)), (1, -1, Fraction(5, 2)), -1),
    ((Q3, B3, -1, 1, (1, -1, 1)), (5, -5, 7), -3),
])
def test_rode_support_rank_two_and_three(case, a, c):
    # (a, c) as plain Fourier-Motzkin found them: the midpoint rule on
    # each fibre interval, which dropping dominated rows leaves alone
    f, p = _kinked_quadratic(*case)
    cert = rode_support(f, [], p)
    assert not isinstance(cert, Infeasible)
    assert (cert.a, cert.c) == (tuple(Fraction(w) for w in a), Fraction(c))


def test_rode_support_five_cube_centre():
    f, p = _kinked_quadratic(Q3, B3, -1, 2, (0, 0, 0))
    cert = rode_support(f, [], p)
    assert not isinstance(cert, Infeasible)
    assert len(f.domain.elements) == 125
    assert cert.value(p) == f(p)
    assert all(cert.value(x) <= f(x) for x in f.domain.elements)
