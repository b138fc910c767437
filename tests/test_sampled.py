"""The integer sampler behind the sampled checks, compared with a reference
that draws Elements and evaluates the quadratic on Fractions pair by pair."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tconvex import (
    ConvexPair,
    KINDS,
    QuadraticFn,
    box_set,
    check_inequality,
    complement,
    convexity_interval,
    cyclic_group,
    finite_set,
    is_T_convex,
    lattice_group,
    nadic_group,
    scaled_identity,
    table_fn,
)
from tconvex.endos import Endo
from tconvex.functions import FnError, Interval, _violates
from tconvex.rationals import format_ext
from tconvex.report import EXHAUSTIVE, SAMPLED, Report
from tconvex.sets import SetError

F = Fraction


# -- reference: one Element triple per probe --------------------------------


def ref_witness(x, y, z, sides=None):
    out = {k: [str(c) for c in e.coords] for k, e in zip("xyz", (x, y, z))}
    if sides:
        out.update(lhs=format_ext(sides[0]), rhs=format_ext(sides[1]))
    return out


def ref_sample(d, rng):
    g, coords = d.group, []
    for lo, hi in zip(d.lower, d.upper):
        denom = g.base ** rng.randint(0, 6)
        coords.append(F(rng.randint((lo * denom).__ceil__(), (hi * denom).__floor__()), denom))
    return g.reduce(coords)


def ref_convexity(d, t, probes, seed):
    g, it, rng = d.group, complement(t), random.Random(seed)
    report, triples = Report("is_T_convex", True, SAMPLED), []
    for _ in range(probes):
        x, y = ref_sample(d, rng), ref_sample(d, rng)
        z = g.add(t.apply(x), it.apply(y))
        if z not in d:
            report = Report("is_T_convex", False, SAMPLED, witness=ref_witness(x, y, z))
            break
        triples.append((x, y, z))
    return report, triples


def ref_check(kind, f, pair, probes, seed):
    conv, triples = ref_convexity(f.domain, pair.endo, probes, seed)
    if not conv.verdict:
        raise FnError("domain is not T-convex")
    g, t, it = f.group, pair.endo, complement(pair.endo)
    for x, y, z in triples:
        fw = f(g.add(it.apply(x), t.apply(y))) if kind in ("wright", "wright_affine") else None
        sides = _violates(kind, pair.t, f(x), f(y), f(z), fw)
        if sides:
            return Report(f"check:{kind}", False, SAMPLED, witness=ref_witness(x, y, z, sides))
    return Report(f"check:{kind}", True, SAMPLED)


def ref_interval(f, t, mode, probes, seed):
    conv, triples = ref_convexity(f.domain, t, probes, seed)
    if not conv.verdict:
        return Interval.none()
    interval = Interval.full()
    for x, y, z in triples:
        fx, fy, fz = f(x), f(y), f(z)
        if fx == fy:
            if fz > fy if mode == "convex" else fz != fy:
                return Interval.none()
            continue
        bound = (fz - fy) / (fx - fy)
        if mode == "affine":
            interval = interval.intersect_point(bound)
        elif fx > fy:
            interval = interval.intersect_lower(bound)
        else:
            interval = interval.intersect_upper(bound)
        if interval.empty:
            return interval
    return interval


def outcome(call):
    try:
        out = call()
    except Exception as exc:  # the error type is part of the outcome
        return type(exc).__name__
    if isinstance(out, Report):
        return out.verdict, out.mode, out.witness
    return out


def same(ref, new):
    assert outcome(new) == outcome(ref)


# -- cases -------------------------------------------------------------------


def quadratic(dom, q, b, c):
    q = tuple(tuple(F(e) for e in row) for row in q)
    return QuadraticFn(dom, q, tuple(F(e) for e in b), F(c))


def random_case(rng):
    base, rank = rng.choice((2, 3, 6)), rng.choice((1, 2))
    g = nadic_group(base, rank)

    def adic(k=8):
        return F(rng.randint(-k, k), base ** rng.randint(0, 2))

    lo = [adic() for _ in range(rank)]
    dom = box_set(g, lo, [a + abs(adic()) + 1 for a in lo])
    s = F(rng.randint(0, base), base)
    if rng.random() < 0.6:
        matrix = tuple(tuple(s if i == j else F(0) for j in range(rank)) for i in range(rank))
    else:  # off-diagonal entries: boxes are rarely T-convex
        matrix = tuple(tuple(adic(2) for _ in range(rank)) for _ in range(rank))
    q = [[F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rank)] for _ in range(rank)]
    q = [[q[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)]
    b = [F(rng.randint(-3, 3), rng.choice((1, 5))) for _ in range(rank)]
    f = quadratic(dom, q, b, F(rng.randint(-3, 3), rng.choice((1, 7))))
    t = rng.choice((F(0), F(1), s, F(1, 3), F(2, 7)))
    return f, Endo(g, matrix), t


@pytest.mark.parametrize("seed", range(6))
def test_random_quadratic_boxes_match_the_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        f, endo, t = random_case(rng)
        pair = ConvexPair(endo, t)
        probes, s = rng.randint(1, 40), rng.randint(0, 999)
        for kind in KINDS:
            same(lambda: ref_check(kind, f, pair, probes, s),
                 lambda: check_inequality(kind, f, pair, probes=probes, seed=s))
        for mode in ("convex", "affine"):
            same(lambda: ref_interval(f, endo, mode, probes, s),
                 lambda: convexity_interval(f, endo, mode, probes=probes, seed=s))
        same(lambda: ref_convexity(f.domain, endo, probes, s)[0],
             lambda: is_T_convex(f.domain, endo, probes=probes, seed=s))


G2 = nadic_group(2)
G3 = nadic_group(3, 2)
G6 = nadic_group(6)
SQ6 = quadratic(box_set(G6, [0], [1]), [[1]], [0], 0)
CONCAVE2 = quadratic(box_set(G2, [F(-1, 2)], [F(3, 4)]), [[-2]], [1], F(1, 3))
BOWL3 = quadratic(box_set(G3, [F(1, 3), 0], [2, F(5, 9)]), [[2, 1], [1, 3]], [1, -1], 2)
SHEAR3 = Endo(G3, ((F(1, 3), F(1, 9)), (F(0), F(2, 3))))  # off-diagonal entry


@pytest.mark.parametrize("f, endo, t", [
    (SQ6, scaled_identity(G6, F(1, 3)), F(1, 3)),
    (SQ6, scaled_identity(G6, F(0)), F(0)),
    (SQ6, scaled_identity(G6, F(1)), F(1)),
    (SQ6, scaled_identity(G6, F(5, 12)), F(1, 2)),
    (CONCAVE2, scaled_identity(G2, F(1, 4)), F(1, 4)),
    (CONCAVE2, scaled_identity(G2, F(1)), F(1)),
    (BOWL3, scaled_identity(G3, F(2, 3)), F(2, 3)),
    (BOWL3, SHEAR3, F(1, 3)),
], ids=["sq-interior", "sq-t0", "sq-t1", "sq-wrong-t", "concave", "concave-t1",
        "rank2", "rank2-offdiag"])
@pytest.mark.parametrize("kind", KINDS)
def test_named_cases_match_the_reference(f, endo, t, kind):
    pair = ConvexPair(endo, t)
    for probes, seed in ((1, 0), (30, 1), (200, 7)):
        same(lambda: ref_check(kind, f, pair, probes, seed),
             lambda: check_inequality(kind, f, pair, probes=probes, seed=seed))
    for mode in ("convex", "affine"):
        same(lambda: ref_interval(f, endo, mode, 60, 3),
             lambda: convexity_interval(f, endo, mode, probes=60, seed=3))


def test_concave_quadratic_fails_with_the_reference_witness():
    pair = ConvexPair(scaled_identity(G2, F(1, 4)), F(1, 4))
    rep = check_inequality("ttconvex", CONCAVE2, pair, probes=50, seed=2)
    assert not rep.verdict and rep.mode == SAMPLED and rep.witness
    assert rep.witness == ref_check("ttconvex", CONCAVE2, pair, 50, 2).witness
    assert 1 <= rep.details["probes"] <= 50


def test_box_that_is_not_T_convex():
    d = box_set(G2, [0], [1])
    double = scaled_identity(G2, 2)
    rep = is_T_convex(d, double, probes=100, seed=5)
    ref = ref_convexity(d, double, 100, 5)[0]
    assert not rep.verdict and rep.witness == ref.witness
    assert rep.details["probes"] >= 1
    f = quadratic(d, [[1]], [0], 0)
    with pytest.raises(FnError):
        check_inequality("ttconvex", f, ConvexPair(double, F(1, 2)), probes=100, seed=5)
    assert convexity_interval(f, double, probes=100, seed=5) == Interval.none()


def test_quadratics_on_finite_domains_match_the_reference():
    """The reference for a quadratic on a finite domain is the exhaustive
    check of the table of its values."""
    cases = [
        (cyclic_group(5), list(cyclic_group(5).elements()), ((F(3),),)),
        (cyclic_group(4, 2), list(cyclic_group(4, 2).elements()), ((F(3), F(0)), (F(0), F(1)))),
        (lattice_group(1), [lattice_group(1).reduce([0])], ((F(1, 2),),)),
        (nadic_group(2), [nadic_group(2).reduce([F(k, 4)]) for k in range(3)], ((F(1),),)),
    ]
    for g, elems, matrix in cases:
        r = g.rank
        f = quadratic(finite_set(g, elems), [[1 if i == j else 0 for j in range(r)]
                                               for i in range(r)], [-1] * r, 0)
        endo = Endo(g, matrix)
        table = table_fn(f.domain, [f(x) for x in f.domain.elements])
        for kind in KINDS:
            for t in (F(0), F(1, 2), F(1)):
                pair = ConvexPair(endo, t)
                same(lambda: check_inequality(kind, table, pair),
                     lambda: check_inequality(kind, f, pair, probes=40, seed=9))
        for mode in ("convex", "affine"):
            same(lambda: convexity_interval(table, endo, mode),
                 lambda: convexity_interval(f, endo, mode, probes=40, seed=9))


@pytest.mark.parametrize("probes", [1, 5])
def test_quadratic_on_z5_fails_exhaustively(probes):
    g = cyclic_group(5)
    f = quadratic(finite_set(g, g.elements()), [[1]], [-1], 0)  # x^2 - x
    pair = ConvexPair(Endo(g, ((F(3),),)), F(1, 2))
    rep = check_inequality("ttconvex", f, pair, probes=probes)
    assert (rep.verdict, rep.mode, rep.details.get("probes")) == (False, EXHAUSTIVE, None)
    assert rep.witness == {"x": ["0"], "y": ["1"], "z": ["3"], "lhs": "6", "rhs": "0"}
    assert convexity_interval(f, pair.endo, probes=probes) == Interval.none()


@pytest.mark.parametrize("probes, seed", [(1, 0), (3, 0), (1, 2)])
def test_boxes_without_grid_points_fail_up_front(probes, seed):
    # [1/3, 1/2] holds no integer, so the exponent-0 draw has nothing to pick
    f = quadratic(box_set(G2, [F(1, 3)], [F(1, 2)]), [[1]], [0], 0)
    pair = ConvexPair(scaled_identity(G2, F(1, 2)), F(1, 2))
    for call in (lambda: check_inequality("ttconvex", f, pair, probes=probes, seed=seed),
                 lambda: convexity_interval(f, pair.endo, probes=probes, seed=seed),
                 lambda: is_T_convex(f.domain, pair.endo, probes=probes, seed=seed)):
        with pytest.raises(SetError, match=r"1/3.*1/2.*e = 0 in coordinate 0"):
            call()


def test_probes_count_the_pairs_evaluated():
    pair = ConvexPair(scaled_identity(G6, F(1, 2)), F(1, 2))
    rep = check_inequality("ttconvex", SQ6, pair, probes=75, seed=4)
    assert rep.verdict and rep.mode == SAMPLED and rep.details["probes"] == 75
    assert is_T_convex(SQ6.domain, pair.endo, probes=12).details["probes"] == 12


@pytest.mark.parametrize("probes", [0, -5])
def test_sampled_verdicts_need_a_probe(probes):
    pair = ConvexPair(scaled_identity(G6, F(1, 2)), F(1, 2))
    with pytest.raises(SetError):
        check_inequality("ttconvex", SQ6, pair, probes=probes)
    with pytest.raises(SetError):
        convexity_interval(SQ6, pair.endo, probes=probes)
    with pytest.raises(SetError):
        is_T_convex(SQ6.domain, pair.endo, probes=probes)


def test_bad_endos_raise_before_the_first_draw():
    from tconvex import EndoError, GroupError

    with pytest.raises(EndoError):
        is_T_convex(SQ6.domain, scaled_identity(nadic_group(6, 1, kind="discrete"), F(1, 2)))
    # 1/5 is not a 6-adic scalar; the box {0} never leaves Z[1/6] under it
    point = box_set(G6, [0], [0])
    with pytest.raises(GroupError):
        is_T_convex(point, Endo(G6, ((F(1, 5),),)), probes=10)


# -- the integer form of a quadratic -------------------------------------------

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_form_scales_the_quadratic(data):
    rank = data.draw(st.integers(1, 3), label="rank")
    upper = [[data.draw(RATIONALS) for _ in range(rank)] for _ in range(rank)]
    q = [[upper[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)]
    b = [data.draw(RATIONALS) for _ in range(rank)]
    c = data.draw(RATIONALS)
    g = nadic_group(6, rank)
    f = quadratic(box_set(g, [0] * rank, [1] * rank), q, b, c)
    den = 6 ** data.draw(st.integers(0, 4)) * data.draw(st.sampled_from((1, 2, 3, 4, 9)))
    nums = [data.draw(st.integers(-10**6, 10**6)) for _ in range(rank)]
    scale = math.lcm(*(v.denominator for v in [*sum(q, []), *b, c]))
    x = g.reduce([F(n, den) for n in nums])
    value = f.integer_form()(nums, den)
    assert isinstance(value, int)
    assert value == scale * den * den * f(x)
