"""The index-table kernel behind the finite checks against plain
Element-pair reference loops written with the library's scalar rules."""

import random
from fractions import Fraction

import pytest

from tconvex import (
    KINDS,
    Endo,
    EndoError,
    GroupError,
    NEG_INF,
    WRIGHT,
    WRIGHT_AFFINE,
    ConvexPair,
    Interval,
    check_inequality,
    complement,
    convexity_interval,
    cyclic_group,
    finite_set,
    internal_points,
    is_T_convex,
    lift_check,
    multiplication_endo,
    qconv_envelope,
    table_fn,
    validate_endo,
    whole_group_set,
)
from tconvex import sets
from tconvex.functions import _violates
from tconvex.rationals import ext_le, ext_max, format_ext
from tconvex.sets import combo_table, valid_endo_matrices

CARRIERS = [(6,), (8,), (9,), (2, 4), (3, 3), (2, 6)]
TS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2, 3)]


def coords(e):
    return list(map(str, e.coords))


def ref_pair_witness(d, t):
    g, it = d.group, complement(t)
    members = set(d.elements)
    for x in d.elements:
        for y in d.elements:
            z = g.add(t.apply(x), it.apply(y))
            if z not in members:
                return {"x": coords(x), "y": coords(y), "z": coords(z)}
    return None


def ref_check(kind, f, pair):
    g, t, it = f.group, pair.endo, complement(pair.endo)
    val = dict(zip(f.domain.elements, f.values))
    for x in f.domain.elements:
        for y in f.domain.elements:
            z1 = g.add(t.apply(x), it.apply(y))
            fz2 = val[g.add(it.apply(x), t.apply(y))] if kind in (WRIGHT, WRIGHT_AFFINE) else None
            bad = _violates(kind, pair.t, val[x], val[y], val[z1], fz2)
            if bad:
                return {"x": coords(x), "y": coords(y), "z": coords(z1),
                        "lhs": format_ext(bad[0]), "rhs": format_ext(bad[1])}
    return None


def ref_interval(f, t, mode):
    if any(v is NEG_INF for v in f.values):
        return Interval.full() if all(v is NEG_INF for v in f.values) else "raises"
    if ref_pair_witness(f.domain, t) is not None:
        return Interval.none()
    g, it = f.group, complement(t)
    val = dict(zip(f.domain.elements, f.values))
    lo, hi = Fraction(0), Fraction(1)
    for x in f.domain.elements:
        for y in f.domain.elements:
            fx, fy, fz = val[x], val[y], val[g.add(t.apply(x), it.apply(y))]
            if fx == fy:
                if (fz > fy) if mode == "convex" else (fz != fy):
                    return Interval.none()
                continue
            bound = (fz - fy) / (fx - fy)
            if mode == "affine" or fx > fy:
                lo = max(lo, bound)
            if mode == "affine" or fx < fy:
                hi = min(hi, bound)
            if lo > hi:
                return Interval.none()
    return Interval(False, lo, hi)


def ref_envelope(f, t):
    if ref_pair_witness(f.domain, t) is not None:
        return "raises"
    g, it = f.group, complement(t)
    vals = dict(zip(f.domain.elements, f.values))
    changed = True
    while changed:
        changed = False
        for x in f.domain.elements:
            for y in f.domain.elements:
                z = g.add(t.apply(x), it.apply(y))
                cap = ext_max(vals[x], vals[y])
                if not ext_le(vals[z], cap):
                    vals[z] = cap
                    changed = True
    return [vals[x] for x in f.domain.elements]


def ref_internal(d, t, p):
    g, it = d.group, complement(t)
    e = {p}
    changed = True
    while changed:
        changed = False
        for x in d.elements:
            for y in d.elements:
                if g.add(t.apply(x), it.apply(y)) in e:
                    for w in (x, y):
                        if w not in e:
                            e.add(w)
                            changed = True
    return "internal" if len(e) == len(d.elements) else "not-internal", e


def ref_lift(f, pair, mode, layers):
    g, t, it = f.group, pair.endo, complement(pair.endo)
    val = dict(zip(f.domain.elements, f.values))
    points = [(x, val[x] + i) for x in f.domain.elements for i in range(layers)]
    for x, u in points:
        for y, v in points:
            fz, zu = val[g.add(t.apply(x), it.apply(y))], pair.t * u + (1 - pair.t) * v
            if not (fz <= zu if mode == "epigraph" else fz == zu):
                return {"lifted_x": [coords(x), format_ext(u)],
                        "lifted_y": [coords(y), format_ext(v)],
                        "combo_value": format_ext(zu)}
    return None


def palette(rng, n, style):
    if style == "ints":
        return [rng.randint(0, 3) for _ in range(n)]
    if style == "thirds":
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    if style == "neg-inf":
        return [rng.choice([NEG_INF, 0, 1, 2]) for _ in range(n)]
    if style == "all-neg-inf":
        return [NEG_INF] * n
    return [Fraction(5, 2)] * n  # constant


def domains(rng, g):
    """The whole carrier, a coset of a subgroup of multiples, and a random
    subset (rarely T-convex)."""
    whole = list(whole_group_set(g).elements)
    k = rng.choice([m for m in range(2, g.exponent) if g.exponent % m == 0] or [1])
    shift = rng.choice(whole)
    coset = {g.add(shift, g.scalar_mul(k, x)) for x in whole}
    subset = rng.sample(whole, rng.randint(2, len(whole) - 1))
    return [whole_group_set(g), finite_set(g, coset), finite_set(g, subset)]


def test_kernel_agrees_with_the_element_pair_reference():
    rng = random.Random(2026)
    seen = set()
    for case in range(48):
        g = cyclic_group(*CARRIERS[case % len(CARRIERS)])
        matrices = list(valid_endo_matrices(g))
        t_endo = validate_endo(g, rng.choice(matrices))
        d = domains(rng, g)[case % 3]
        style = ("ints", "thirds", "neg-inf", "all-neg-inf", "constant")[case % 5]
        f = table_fn(d, palette(rng, len(d.elements), style))
        t = TS[case % len(TS)]
        pair = ConvexPair(t_endo, t)

        witness = ref_pair_witness(d, t_endo)
        conv = is_T_convex(d, t_endo)
        assert (conv.verdict, conv.witness) == (witness is None, witness)
        seen.add(("convex", witness is None, g.rank))

        for kind in KINDS:
            if witness is not None:
                with pytest.raises(ValueError) as exc:
                    check_inequality(kind, f, pair)
                assert str(exc.value) == f"domain is not T-convex: witness {witness}"
                continue
            want = ref_check(kind, f, pair)
            rep = check_inequality(kind, f, pair)
            assert (rep.verdict, rep.witness, rep.mode) == (want is None, want, "exhaustive")
            seen.add((kind, want is None, style == "neg-inf"))

        for mode in ("convex", "affine"):
            want = ref_interval(f, t_endo, mode)
            if want == "raises":
                with pytest.raises(ValueError):
                    convexity_interval(f, t_endo, mode=mode)
            else:
                assert convexity_interval(f, t_endo, mode=mode) == want
                seen.add((mode, want.empty))

        want = ref_envelope(f, t_endo)
        if want == "raises":
            with pytest.raises(ValueError):
                qconv_envelope(f, [t_endo])
        else:
            assert list(qconv_envelope(f, [t_endo]).values) == want

        if witness is None and f.is_finite_valued():
            for mode, layers in (("epigraph", 2), ("graph", 1)):
                rep = lift_check(f, pair, mode=mode, grid_layers=layers - 1)
                assert (rep.verdict, rep.witness) == (ref_lift(f, pair, mode, layers) is None,
                                                      ref_lift(f, pair, mode, layers))
                seen.add(("lift", mode, rep.verdict))

        p = rng.choice(d.elements)
        verdict, rest = internal_points(d, t_endo, p)
        want_verdict, closure = ref_internal(d, t_endo, p)
        assert verdict == want_verdict
        if verdict == "not-internal":
            assert set(rest.elements) == closure
        seen.add(("internal", verdict))

    for kind in KINDS:
        assert {(kind, True, False), (kind, False, False), (kind, False, True)} <= seen
    for rank in (1, 2):
        assert {("convex", True, rank), ("convex", False, rank)} <= seen
    assert {("convex", True), ("convex", False), ("affine", True), ("affine", False)} <= seen
    assert {("internal", "internal"), ("internal", "not-internal")} <= seen
    assert {("lift", "epigraph", True), ("lift", "epigraph", False)} <= seen


@pytest.fixture()
def empty_memo(monkeypatch):
    monkeypatch.setattr(sets, "_COMBO_MEMO", sets._TableMemo())
    return monkeypatch


def held_entries():
    return sum(len(rows) ** 2 for rows in sets._COMBO_MEMO.tables.values())


def test_equal_domains_share_one_memoised_table(empty_memo):
    g = cyclic_group(2, 4)
    t = validate_endo(g, [[1, 0], [2, 3]])
    first = combo_table(whole_group_set(g), t)
    again = combo_table(whole_group_set(cyclic_group(2, 4)), validate_endo(g, [[1, 0], [2, 3]]))
    assert again is first  # a separately built but equal domain and endo hit
    assert isinstance(first, tuple) and all(isinstance(row, tuple) for row in first)
    empty_memo.setattr(sets, "COMBO_MEMO_ENTRIES", 0)
    sets._COMBO_MEMO.tables.clear()
    fresh = combo_table(whole_group_set(g), t)
    assert fresh is not first and fresh == first
    assert sets._COMBO_MEMO.tables == {}


def test_memo_never_serves_an_endo_that_fails_to_apply(empty_memo):
    g = cyclic_group(5)
    d = whole_group_set(g)
    half = Endo(g, ((Fraction(1, 2),),))  # same shape as the zero endo, fails in apply
    combo_table(d, multiplication_endo(g, 0))
    with pytest.raises(GroupError):
        combo_table(d, half)
    with pytest.raises(EndoError):  # an endo of another group
        combo_table(d, multiplication_endo(cyclic_group(5, kind="discrete"), 0))


def test_memo_holds_at_most_its_budget_of_pair_entries(empty_memo):
    empty_memo.setattr(sets, "COMBO_MEMO_ENTRIES", 300)
    tables = []
    for m in range(3, 13):
        g = cyclic_group(m)
        d = whole_group_set(g)
        for a in range(m):
            tables.append(combo_table(d, multiplication_endo(g, a)))
            assert held_entries() == sets._COMBO_MEMO.entries <= 300
    held = [id(rows) for rows in sets._COMBO_MEMO.tables.values()]
    assert 1 < len(held) < len(tables)
    # the oldest tables were evicted first: what is held is the newest run
    assert held == [id(rows) for rows in tables[-len(held):]]


def test_a_table_over_the_budget_is_returned_but_not_stored(empty_memo):
    empty_memo.setattr(sets, "COMBO_MEMO_ENTRIES", 100)
    g = cyclic_group(11)  # 121 pair entries
    rows = combo_table(whole_group_set(g), multiplication_endo(g, 3))
    assert len(rows) == 11 and rows[1][0] == 3
    assert sets._COMBO_MEMO.tables == {} and sets._COMBO_MEMO.entries == 0
