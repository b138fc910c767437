import itertools
from fractions import Fraction

import pytest

from tconvex import (
    ConvexPair,
    FnError,
    NEG_INF,
    QUASICONVEX,
    QuadraticFn,
    TTCONVEX,
    TT_AFFINE,
    WRIGHT,
    box_set,
    check_inequality,
    convexity_interval,
    cyclic_group,
    deserialize_fn,
    diamond_conv,
    finite_set,
    inf_conv,
    lattice_group,
    level_set,
    lift_check,
    multiplication_endo,
    nadic_group,
    neg_char_fn,
    pointwise,
    qconv_envelope,
    scaled_identity,
    serialize_fn,
    table_fn,
    transport,
    whole_group_set,
)
from tconvex import functions
from tconvex.functions import is_vacuous, member_catalogue
from tconvex.sets import _TableMemo

G5 = cyclic_group(5)
HAT = table_fn(whole_group_set(G5), [Fraction(v) for v in (0, 1, 2, 1, 0)])
PAIR5 = ConvexPair(multiplication_endo(G5, 3), Fraction(1, 2))


def test_hat_profile_is_not_quasiconvex():
    rep = check_inequality(QUASICONVEX, HAT, PAIR5)
    assert not rep.verdict and rep.mode == "exhaustive"
    assert rep.witness is not None


def test_constant_passes_every_kind():
    const = table_fn(whole_group_set(G5), [Fraction(1)] * 5)
    for kind in (QUASICONVEX, WRIGHT, TTCONVEX, TT_AFFINE):
        assert check_inequality(kind, const, PAIR5).verdict


def test_domain_must_be_T_convex():
    d = finite_set(G5, [G5.reduce([0]), G5.reduce([1])])
    f = table_fn(d, [Fraction(0), Fraction(1)])
    with pytest.raises(FnError):
        check_inequality(QUASICONVEX, f, PAIR5)


def test_quadratic_on_adic_box_is_midpoint_convex():
    g = nadic_group(2)
    dom = box_set(g, [Fraction(0)], [Fraction(1)])
    f = QuadraticFn(dom, ((Fraction(1),),), (Fraction(0),), Fraction(0))
    pair = ConvexPair(scaled_identity(g, Fraction(1, 2)), Fraction(1, 2))
    rep = check_inequality(TTCONVEX, f, pair, probes=200, seed=0)
    assert rep.verdict and rep.mode == "sampled" and rep.details["probes"] == 200


def test_level_sets_and_negative_characteristic_function():
    lvl = level_set(HAT, Fraction(1))
    assert sorted(e.coords[0] for e in lvl.elements) == [0, 1, 3, 4]
    s = finite_set(G5, [G5.reduce([0]), G5.reduce([2])])
    chi = neg_char_fn(s, whole_group_set(G5))
    assert sorted(map(str, set(chi.values))) == ["-1", "0"]
    assert chi(G5.reduce([2])) == Fraction(-1)
    assert chi(G5.reduce([1])) == Fraction(0)


def test_envelope_flattens_the_hat():
    env = qconv_envelope(HAT, [PAIR5.endo])
    assert all(v == 0 for v in env.values)
    assert check_inequality(QUASICONVEX, env, PAIR5).verdict


def test_envelope_is_idempotent_and_below_f():
    g = cyclic_group(6)
    f = table_fn(whole_group_set(g), [Fraction(v) for v in (2, 0, 1, 2, 1, 0)])
    ts = [multiplication_endo(g, 3)]
    env = qconv_envelope(f, ts)
    assert all(e <= v for e, v in zip(env.values, f.values))
    assert qconv_envelope(env, ts).values == env.values


def test_diamond_and_infimal_convolutions():
    g = lattice_group(1)
    d = finite_set(g, [g.reduce([0]), g.reduce([1])])
    f = table_fn(d, [Fraction(0), Fraction(1)])
    h = inf_conv(f, f)
    vals = {e.coords[0]: h(e) for e in h.domain.elements}
    assert vals == {0: 0, 1: 1, 2: 2}
    m = diamond_conv(f, f)
    mvals = {e.coords[0]: m(e) for e in m.domain.elements}
    assert mvals == {0: 0, 1: 1, 2: 1}


def test_transport_pullback_and_pushforward():
    f = table_fn(whole_group_set(G5), [Fraction(v) for v in (0, 1, 2, 3, 4)])
    pulled = transport(f, multiplication_endo(G5, 2), "pullback")
    assert [pulled(x) for x in G5.elements()] == [
        Fraction(v) for v in (0, 2, 4, 1, 3)
    ]
    pushed = transport(f, multiplication_endo(G5, 2), "pushforward")
    # (pushforward f)(y) = min over preimages x of y under doubling
    assert [pushed(x) for x in G5.elements()] == [
        Fraction(v) for v in (0, 3, 1, 4, 2)
    ]


def test_convexity_interval_full_and_point():
    g = cyclic_group(3)
    t = multiplication_endo(g, 2)
    const = table_fn(whole_group_set(g), [Fraction(2)] * 3)
    iv = convexity_interval(const, t, mode="convex")
    assert not iv.empty and iv.lower == 0 and iv.upper == 1
    # constants satisfy the affine equality for every weight
    iva = convexity_interval(const, t, mode="affine")
    assert not iva.empty and (iva.lower, iva.upper) == (Fraction(0), Fraction(1))


def test_convexity_interval_all_neg_inf():
    g = cyclic_group(3)
    f = table_fn(whole_group_set(g), [NEG_INF] * 3)
    iv = convexity_interval(f, multiplication_endo(g, 2))
    assert not iv.empty and (iv.lower, iv.upper) == (Fraction(0), Fraction(1))


def test_lift_check_agrees_with_direct_verdict():
    env = qconv_envelope(HAT, [PAIR5.endo])
    rep = lift_check(env, PAIR5, mode="epigraph")
    assert rep.details["equivalence_agrees"]
    rep2 = lift_check(HAT, PAIR5, mode="epigraph")
    assert rep2.details["equivalence_agrees"]


def test_pointwise_operations():
    d = whole_group_set(cyclic_group(3))
    f = table_fn(d, [Fraction(0), Fraction(1), NEG_INF])
    g_fn = table_fn(d, [Fraction(2), Fraction(0), Fraction(1)])
    assert pointwise("sup", [f, g_fn]).values == (Fraction(2), Fraction(1), Fraction(1))
    assert pointwise("inf", [f, g_fn]).values == (Fraction(0), Fraction(0), NEG_INF)
    assert pointwise("add", [f, g_fn]).values == (Fraction(2), Fraction(1), NEG_INF)
    assert pointwise("scale", [f], scalar=Fraction(2)).values == (
        Fraction(0), Fraction(2), NEG_INF,
    )
    assert pointwise("shift", [f], scalar=Fraction(1)).values == (
        Fraction(1), Fraction(2), NEG_INF,
    )


def test_fn_serialization_round_trip():
    data = serialize_fn(HAT)
    back = deserialize_fn(G5, data)
    assert back.values == HAT.values
    g = nadic_group(2)
    dom = box_set(g, [Fraction(0)], [Fraction(1)])
    q = QuadraticFn(dom, ((Fraction(1, 2),),), (Fraction(-1),), Fraction(3))
    qb = deserialize_fn(g, serialize_fn(q))
    x = g.reduce([Fraction(3, 4)])
    assert qb(x) == q(x)


# -- member catalogues -------------------------------------------------------

T_GRID = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)})


def _kind_ts(kind):
    return T_GRID if kind in (TTCONVEX, TT_AFFINE) else [Fraction(1, 2)]


def _code(vals):
    return sum(v << 2 * i for i, v in enumerate(vals))


def test_catalogue_is_exactly_the_passing_tables_on_small_carriers():
    for m in (3, 4):
        g = cyclic_group(m)
        d = whole_group_set(g)
        tables = list(itertools.product(range(4), repeat=m))
        for kind in (QUASICONVEX, WRIGHT, TTCONVEX, TT_AFFINE):
            for a in range(m):
                for t in _kind_ts(kind):
                    pair = ConvexPair(multiplication_endo(g, a), t)
                    want = [_code(vals) for vals in tables
                            if check_inequality(kind, table_fn(d, vals), pair).verdict]
                    got = member_catalogue(kind, m, a, t)
                    assert sorted(got) == sorted(want), (kind, m, a, t)
                    # vacuous exactly when every table passes
                    assert is_vacuous(kind, m, a, t) == (len(want) == 4 ** m)


def test_pairs_recognised_as_vacuous_pass_every_table():
    seen = set()
    for m in (3, 4, 5):
        g = cyclic_group(m)
        d = whole_group_set(g)
        for kind in (QUASICONVEX, WRIGHT, TTCONVEX, TT_AFFINE):
            for a in range(m):
                for t in _kind_ts(kind):
                    if not is_vacuous(kind, m, a, t):
                        continue
                    seen.add((kind, a, t))
                    pair = ConvexPair(multiplication_endo(g, a), t)
                    for vals in itertools.product(range(4), repeat=m):
                        assert check_inequality(kind, table_fn(d, vals), pair).verdict
    # multiplication by 0 puts z at y and by 1 at x: that binds nothing for
    # quasiconvex and Wright, and for the TT kinds only at t = 0 and t = 1
    half = Fraction(1, 2)
    assert seen == {(QUASICONVEX, 0, half), (QUASICONVEX, 1, half), (WRIGHT, 0, half),
                    (WRIGHT, 1, half), (TTCONVEX, 0, 0), (TTCONVEX, 1, 1),
                    (TT_AFFINE, 0, 0), (TT_AFFINE, 1, 1)}


def test_catalogue_memo_holds_at_most_its_budget(monkeypatch):
    monkeypatch.setattr(functions, "_CATALOGUES",
                        _TableMemo(lambda: functions.CATALOGUE_MEMO_ENTRIES, len))
    monkeypatch.setattr(functions, "CATALOGUE_MEMO_ENTRIES", 300)
    memo = functions._CATALOGUES
    built = []
    for m in (4, 5, 6):
        for a in range(m):
            built.append(member_catalogue(QUASICONVEX, m, a, Fraction(1, 2)))
            assert sum(map(len, memo.tables.values())) == memo.entries <= 300
    assert max(map(len, built)) > 300  # returned but not stored
    held = list(memo.tables.values())
    assert 1 < len(held) < len(built)
    assert [id(c) for c in held] == [id(c) for c in built if len(c) <= 300][-len(held):]
    assert member_catalogue(QUASICONVEX, 6, 5, Fraction(1, 2)) is built[-1] is held[-1]


def test_catalogue_rejects_unknown_kinds_and_t_outside_the_unit_interval():
    with pytest.raises(FnError):
        member_catalogue("convexish", 4, 1, Fraction(1, 2))
    with pytest.raises(FnError):
        member_catalogue(TTCONVEX, 4, 1, Fraction(3, 2))
