"""Property campaigns binding every implemented statement to a seeded,
replayable suite of checks.

A case is one property evaluation.  An alarm is a failed case whose
hypotheses were fully verified — the target across every suite is zero
alarms.  Each suite draws every instance from one ``random.Random(seed)``,
so a report is fixed by its suite, seed and caps.  An alarm records that
run, ``{"suite", "seed", "caps", "id"}``, and ``replay_alarm`` re-runs the
whole suite from it and returns the entry of that case; any case of any
suite replays the same way, at the cost of one suite run.

Every inequality a suite checks goes through the public checker
(``check_inequality`` and ``convexity_interval``).  The closure and
composition suites draw their tables on whole rank-1 cyclic carriers,
where ``sets.combo_table``'s memo makes the repeated small checks cheap;
the closure suites take their member tables from the exact catalogues of
``functions.member_catalogue``.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .derive import (
    DeriveError,
    Infeasible,
    compose_pair,
    kuhn_derive,
    last_derive,
    rode_support,
    twa_decompose,
    u_grid_verify,
    wright_ratio_derive,
)
from .endos import (
    Endo,
    NotInvertible,
    complement,
    compose,
    identity_endo,
    multiplication_endo,
    neumann_inverse,
    operator_norm,
    power,
    scaled_identity,
    serialize_endo,
    spectral_radius,
    validate_endo,
)
from .functions import (
    ConvexPair,
    QUASICONVEX,
    QuadraticFn,
    TTCONVEX,
    TT_AFFINE,
    WRIGHT,
    check_inequality,
    convexity_interval,
    diamond_conv,
    inf_conv,
    is_vacuous,
    level_set,
    member_catalogue,
    neg_char_fn,
    qconv_envelope,
    table_fn,
    transport,
)
from .generators import gen_cyclic_group, gen_endo, gen_fn, gen_t, with_defaults
from .groups import (
    GroupSpec,
    cyclic_group,
    is_smooth,
    lattice_group,
    mu_d,
    n_norm,
    nadic_group,
)
from .rationals import NEG_INF, ext_le
from .report import FAILED
from .sets import (
    box_set,
    closure_generate,
    combo_table,
    enumerate_TD,
    finite_set,
    is_T_convex,
    radstrom_check,
    whole_group_set,
)


class SuiteError(ValueError):
    pass


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 0
    caps: dict | None = None


@dataclass
class CampaignReport:
    suite: str
    results: list = field(default_factory=list)
    alarms: list = field(default_factory=list)
    audit_summary: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def cases(self) -> int:
        return len(self.results)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "alarms": self.alarms,
            "audit": dict(sorted(self.audit_summary.items())),
            "results": self.results,
            "elapsed_ms": self.elapsed_ms,
        }


class Campaign:
    """Collects the cases of one suite run; ``caps`` are the effective caps
    the suite function receives."""

    def __init__(self, suite: str, seed: int, caps: dict):
        self.report = CampaignReport(suite)
        self.seed, self.caps = seed, caps

    def add(self, case_id, verdict, witness=None, audit=()):
        entry = {"id": case_id, "verdict": bool(verdict)}
        if witness is not None:
            entry["witness"] = witness
        self.report.results.append(entry)
        for _, status in audit:
            self.report.audit_summary[status] = (
                self.report.audit_summary.get(status, 0) + 1
            )
        if not verdict:
            self.report.alarms.append({"id": case_id, "case": {
                "suite": self.report.suite, "seed": self.seed,
                "caps": dict(self.caps), "id": case_id}})


def _primes_of(n: int):
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _adaptive_base(fractions):
    """Smallest square-free base whose adic ring contains every input."""
    primes = set()
    for q in fractions:
        primes |= _primes_of(q.numerator)
        primes |= _primes_of(q.denominator)
    primes.discard(1)
    base = 1
    for p in sorted(primes):
        base *= p
    return max(base, 2)


def _sq_fn(g: GroupSpec, hi=Fraction(1)):
    """f(x) = x^2 on the box [0, hi] of a rank-1 adic module."""
    dom = box_set(g, [Fraction(0)], [hi])
    return QuadraticFn(dom, ((Fraction(1),),), (Fraction(0),), Fraction(0))


# -- group_core suites -----------------------------------------------------


def suite_norm_axioms(rng, caps, camp: Campaign):
    groups = [cyclic_group(200), cyclic_group(5), cyclic_group(4, 2)]
    extra = max(1, caps["cases"] // 25)
    groups += [gen_cyclic_group(rng, 30, caps["max_rank"]) for _ in range(extra)]
    for gi, g in enumerate(groups):
        elems = list(g.elements())
        ok = True
        witness = None
        for x in elems:
            nx = g.dnorm(x)
            if (nx == 0) != (x == g.zero()) or nx < 0 or g.dnorm(g.neg(x)) != nx:
                ok, witness = False, {"x": str(x.coords)}
                break
        if ok and g.order <= 60:
            pairs = itertools.product(elems, elems)
        elif ok:
            pairs = ((rng.choice(elems), rng.choice(elems)) for _ in range(500))
        else:
            pairs = ()
        for x, y in pairs:
            if g.dnorm(g.add(x, y)) > g.dnorm(x) + g.dnorm(y):
                ok, witness = False, {"x": str(x.coords), "y": str(y.coords)}
                break
        camp.add(f"norm-axioms/{gi}", ok, witness)


def suite_mu_bounds(rng, caps, camp: Campaign):
    ngroups = max(2, caps["cases"] // 20)
    for gi in range(ngroups):
        g = gen_cyclic_group(rng, caps["max_order"], caps["max_rank"])
        elems = [x for x in g.elements() if g.dnorm(x) != 0]
        ok = mu_d(g, 1, "enumerated") == 1 and n_norm(g, 1, "enumerated") == 1
        camp.add(f"mu-unit/{gi}", ok)
        mus = {n: mu_d(g, n, "enumerated") for n in range(1, 7)}
        nns = {n: n_norm(g, n, "enumerated") for n in range(1, 7)}
        ok = all(
            mus[n] * g.dnorm(x) <= g.dnorm(g.scalar_mul(n, x)) <= nns[n] * g.dnorm(x)
            for n in range(1, 7)
            for x in elems
        )
        camp.add(f"mu-sandwich/{gi}", ok)
        ok = all(
            mu_d(g, n * m, "enumerated") >= mus[n] * mus[m]
            for n in range(1, 7)
            for m in range(1, 7)
        )
        camp.add(f"mu-submult/{gi}", ok)
        ok = all(mu_d(g, n, "enumerated") <= 1 for n in range(1, g.exponent + 1))
        camp.add(f"mu-bounded/{gi}", ok)
    # infinite carriers: the abs metric gives mu_d(n) = |n| exactly
    infinite = [lattice_group(1), lattice_group(2), nadic_group(2), nadic_group(6, 2)]
    for gi, g in enumerate(infinite):
        ok = True
        for n in range(1, 7):
            mu, nn = mu_d(g, n), n_norm(g, n)
            for _ in range(100):
                x = g.reduce([Fraction(rng.randint(-5, 5)) for _ in range(g.rank)])
                nx = g.dnorm(x)
                if not (mu * nx <= g.dnorm(g.scalar_mul(n, x)) <= nn * nx):
                    ok = False
        camp.add(f"mu-infinite/{gi}", ok)


# -- endo_algebra suites ---------------------------------------------------


def suite_ring_laws(rng, caps, camp: Campaign):
    for i in range(caps["cases"]):
        g = gen_cyclic_group(rng, caps["max_order"], caps["max_rank"])
        t, s, r = (gen_endo(rng, g) for _ in range(3))
        assoc = compose(compose(t, s), r).key() == compose(t, compose(s, r)).key()
        ldist = compose(t, Endo(g, linalg.mat_add(s.matrix, r.matrix))).key() == Endo(
            g, linalg.mat_add(compose(t, s).matrix, compose(t, r).matrix)
        ).key()
        invol = complement(complement(t)).key() == t.key()
        pw0 = power(t, 0).key() == identity_endo(g).key()
        norm_ok = operator_norm(compose(t, s)) <= operator_norm(t) * operator_norm(s)
        camp.add(f"ring/{i}", assoc and ldist and invol and pw0 and norm_ok)


def suite_spectral_neumann(rng, caps, camp: Campaign):
    g = lattice_group(2)
    for i in range(caps["cases"]):
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        t = validate_endo(g, m)
        if spectral_radius(t).is_nilpotent:
            try:
                inv = neumann_inverse(t)
                ok = compose(complement(t), inv).matrix == identity_endo(g).matrix
            except NotInvertible:
                ok = False
            camp.add(f"neumann/{i}", ok)
        else:
            camp.add(f"neumann-skip/{i}", True)
    for i in range(max(5, caps["cases"] // 10)):
        gc = gen_cyclic_group(rng, caps["max_order"], 1)
        t = gen_endo(rng, gc)
        if spectral_radius(t).is_nilpotent:
            inv = neumann_inverse(t)
            ok = compose(complement(t), inv).key() == identity_endo(gc).key()
            camp.add(f"neumann-cyclic/{i}", ok)
        else:
            camp.add(f"neumann-cyclic-skip/{i}", True)


def suite_midpoint_convexity(rng, caps, camp: Campaign):
    """Endos with nilpotent 2T-I force every T-convex subset to be
    midpoint convex (through the invertible doubling map)."""
    for label, m, t_scalar in (("Z3", 3, 2), ("Z9", 9, 5)):
        g = cyclic_group(m)
        t = multiplication_endo(g, t_scalar)
        two_t_minus_i = multiplication_endo(g, (2 * t_scalar - 1) % m)
        if not spectral_radius(two_t_minus_i).is_nilpotent:
            camp.add(f"midpoint/{label}/cert", False)
            continue
        half = pow(2, -1, m)
        rows = combo_table(whole_group_set(g), t)
        bad = None
        for mask in range(1, 1 << m):
            members = [i for i in range(m) if mask >> i & 1]
            inside = [mask >> i & 1 for i in range(m)]
            if not all(inside[rows[x][y]] for x in members for y in members):
                continue  # not T-convex
            for x in members:
                for y in members:
                    if not inside[half * (x + y) % m]:
                        bad = {"subset": members}
                        break
                if bad:
                    break
            if bad:
                break
        camp.add(f"midpoint/{label}", bad is None, bad)


# -- convex_sets suites ----------------------------------------------------


def _small_group_and_domain(rng, caps):
    g = gen_cyclic_group(rng, min(caps["max_order"], 12), 1)
    elems = list(g.elements())
    size = rng.randint(1, len(elems))
    return g, finite_set(g, rng.sample(elems, size))


def suite_semigroup_combination(rng, caps, camp: Campaign):
    per_domain = 25
    i = 0
    while camp.report.cases < caps["cases"] and i < caps["cases"]:
        i += 1
        g, d = _small_group_and_domain(rng, caps)
        td = enumerate_TD(d)
        keys = td.keys()
        members = list(td)
        if len(members) ** 3 <= per_domain:
            triples = list(itertools.product(members, repeat=3))
        else:
            triples = [
                (rng.choice(members), rng.choice(members), rng.choice(members))
                for _ in range(per_domain)
            ]
        for j, (t, t1, t2) in enumerate(triples):
            comp = Endo(
                g,
                linalg.mat_add(
                    compose(t, t1).matrix, compose(complement(t), t2).matrix
                ),
            )
            ok = comp.key() in keys and complement(t).key() in keys
            camp.add(
                f"semigroup/{i}/{j}", ok,
                None if ok else {"t": serialize_endo(t), "t1": serialize_endo(t1),
                                 "t2": serialize_endo(t2)},
            )


def suite_closure_generated(rng, caps, camp: Campaign):
    i = 0
    while camp.report.cases < caps["cases"] and i < caps["cases"]:
        i += 1
        g, d = _small_group_and_domain(rng, caps)
        td = enumerate_TD(d)
        closed = closure_generate(g, list(td), budget=4 * max(1, len(td)) + 16)
        if closed.truncated:
            camp.add(f"generated/{i}/truncated", True)
            continue
        for j, key in enumerate(sorted(closed.keys())):
            camp.add(f"generated/{i}/{j}", key in td.keys())


def suite_radstrom(rng, caps, camp: Campaign):
    g = nadic_group(2)
    for i in range(caps["cases"]):
        hi = Fraction(rng.randint(1, 2))
        b = box_set(g, [Fraction(0)], [hi])
        pool = [Fraction(k, 8) for k in range(0, int(hi * 8) + 1)]
        a_pts = [g.reduce([rng.choice(pool)]) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            a_pts.append(g.reduce([hi + Fraction(rng.randint(1, 4), 4)]))
        c_pts = [g.reduce([rng.choice(pool)]) for _ in range(rng.randint(1, 3))]
        a = finite_set(g, a_pts)
        c = finite_set(g, c_pts)
        rep = radstrom_check(a, b, c, 2)
        camp.add(f"radstrom/{i}", rep.verdict, rep.witness, audit=rep.audit)
    # finite carriers must always fail the injectivity-measure hypothesis
    for i in range(max(3, caps["cases"] // 20)):
        gc = gen_cyclic_group(rng, caps["max_order"], 1)
        singleton = finite_set(gc, [gc.zero()])
        expected = True
        for n0 in range(2, gc.exponent + 1):
            rep = radstrom_check(singleton, singleton, singleton, n0)
            if not any(
                h.startswith("mu_d") and status == FAILED for h, status in rep.audit
            ):
                expected = False
        camp.add(f"radstrom-finite/{i}", expected)


# -- convex_functions suites -----------------------------------------------


def suite_prop_ls(rng, caps, camp: Campaign):
    for i in range(caps["cases"]):
        g = gen_cyclic_group(rng, min(caps["max_order"], 12), 1)
        domain = whole_group_set(g)
        f = gen_fn(rng, domain)
        t = gen_endo(rng, g)
        pair = ConvexPair(t, Fraction(1, 2))
        qc = check_inequality(QUASICONVEX, f, pair).verdict
        levels_ok = all(
            is_T_convex(level_set(f, c), t).verdict for c in set(f.values)
        )
        camp.add(f"prop-ls/fn/{i}", qc == levels_ok)
        elems = list(g.elements())
        s = finite_set(g, rng.sample(elems, rng.randint(1, len(elems))))
        chi = neg_char_fn(s, domain)
        s_conv = is_T_convex(s, t).verdict
        chi_qc = check_inequality(QUASICONVEX, chi, pair).verdict
        camp.add(f"prop-ls/set/{i}", s_conv == chi_qc)


def brute_envelope(f, ts):
    """Independent oracle: the pointwise maximum over every quasiconvex
    minorant with values drawn from f's value set plus -inf."""
    g = f.group
    elems = f.domain.elements
    index = {e: i for i, e in enumerate(elems)}
    # integer-encode the value lattice; -inf sorts below everything
    lattice = sorted(set(f.values), key=lambda v: (v is not NEG_INF, v))
    if NEG_INF not in lattice:
        lattice = [NEG_INF] + lattice
    rank = {id(v): i for i, v in enumerate(lattice)}
    fvals = [lattice.index(v) for v in f.values]
    combos = []
    for t in ts:
        it = complement(t)
        for x in elems:
            tx = t.apply(x)
            for y in elems:
                z = g.add(tx, it.apply(y))
                iz, ix, iy = index[z], index[x], index[y]
                if iz != ix and iz != iy:
                    combos.append((iz, ix, iy))
    per_slot = [range(fv + 1) for fv in fvals]
    best = [0] * len(elems)
    for assign in itertools.product(*per_slot):
        ok = True
        for iz, ix, iy in combos:
            az = assign[iz]
            if az > assign[ix] and az > assign[iy]:
                ok = False
                break
        if ok:
            best = [max(b, a) for b, a in zip(best, assign)]
    return table_fn(f.domain, [lattice[b] for b in best])


def suite_envelope_oracle(rng, caps, camp: Campaign):
    # hand case: the hat profile on Z_5 flattens to zero
    g5 = cyclic_group(5)
    f5 = table_fn(whole_group_set(g5), [Fraction(v) for v in (0, 1, 2, 1, 0)])
    env5 = qconv_envelope(f5, [multiplication_endo(g5, 3)])
    camp.add("envelope/z5-hand", all(v == 0 for v in env5.values))
    for i in range(caps["cases"]):
        order = rng.choice([3, 3, 4, 4, 5, 6])
        g = cyclic_group(order)
        domain = whole_group_set(g)
        palette = rng.sample(
            [NEG_INF, Fraction(0), Fraction(1), Fraction(2), Fraction(3)], 3
        )
        f = table_fn(domain, [rng.choice(palette) for _ in domain.elements])
        ts = [gen_endo(rng, g) for _ in range(rng.randint(1, 2))]
        env = qconv_envelope(f, ts)
        oracle = brute_envelope(f, ts)
        ok = env.values == oracle.values
        ok = ok and all(ext_le(e, fv) for e, fv in zip(env.values, f.values))
        for t in ts:
            ok = ok and check_inequality(
                QUASICONVEX, env, ConvexPair(t, Fraction(1, 2))
            ).verdict
        camp.add(
            f"envelope/{i}", ok,
            None if ok else {"env": [str(v) for v in env.values],
                             "oracle": [str(v) for v in oracle.values]},
        )


def _random_vals(rng, m):
    return [rng.randint(0, 3) for _ in range(m)]


def _holds(kind, d, vals, pair: ConvexPair) -> bool:
    return check_inequality(kind, table_fn(d, vals), pair).verdict


def _find_scalar_pair(rng, d, vals, kind, tries=20):
    """A pair (multiplication by a, t) under which the value table passes."""
    g, m = d.group, len(d.elements)
    for _ in range(tries):
        endo = multiplication_endo(g, rng.randrange(m))
        if kind in (QUASICONVEX, WRIGHT):
            pair = ConvexPair(endo, Fraction(1, 2))
            if _holds(kind, d, vals, pair):
                return pair
        else:
            mode = "affine" if kind == TT_AFFINE else "convex"
            iv = convexity_interval(table_fn(d, vals), endo, mode)
            if not iv.empty:
                return ConvexPair(endo, (iv.lower + iv.upper) / 2)
    return None


def _composite_suite(kind, tag):
    def run(rng, caps, camp: Campaign):
        produced = 0
        attempts = 0
        target = caps["cases"]
        while produced < target and attempts < 30 * target:
            attempts += 1
            m = rng.randint(3, 8)
            g = cyclic_group(m)
            d = whole_group_set(g)
            vals = _random_vals(rng, m)
            found = []
            for _ in range(3):
                got = _find_scalar_pair(rng, d, vals, kind)
                if got is None:
                    break
                found.append(got)
            if len(found) < 3:
                if attempts % 3 == 0:  # keep progress with a constant table
                    vals = [rng.randint(0, 2)] * m
                    found = [
                        ConvexPair(multiplication_endo(g, rng.randrange(m)), gen_t(rng, 6))
                        for _ in range(3)
                    ]
                else:
                    continue
            outer, p1, p2 = found
            if kind == WRIGHT:
                p2, found = p1, [found[0], found[1], found[1]]
            derived = compose_pair(outer, p1, p2)
            camp.add(f"{tag}/{produced}", _holds(kind, d, vals, derived.pair))
            produced += 1

    return run


suite_compose_quasi = _composite_suite(QUASICONVEX, "compose-q")
suite_compose_wright = _composite_suite(WRIGHT, "compose-w")
suite_compose_convex = _composite_suite(TTCONVEX, "compose-c")
suite_compose_affine = _composite_suite(TT_AFFINE, "compose-a")


# every t that gen_t(rng, 6) can draw
_T_GRID = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)})


@functools.cache
def _informative_keys(kind):
    """The (m, a, t) with m in 3..8 whose pair (multiplication by a, t) on
    Z_m binds some table and admits a non-constant one; t runs over _T_GRID
    for the TT kinds and is 1/2 otherwise.  Every constant passes every
    kind, so a catalogue with more than the four constants holds a
    non-constant table."""
    ts = _T_GRID if kind in (TTCONVEX, TT_AFFINE) else (Fraction(1, 2),)
    return tuple((m, a, t) for m in range(3, 9) for a in range(m) for t in ts
                 if not is_vacuous(kind, m, a, t) and len(member_catalogue(kind, m, a, t)) > 4)


def _scalar_family(rng, kind, count):
    """The whole of Z_m, a scalar pair under which some table is not
    constant, and `count` value tables drawn uniformly with replacement from
    the pair's catalogue: the distribution of a successful rejection draw."""
    m, a, t = rng.choice(_informative_keys(kind))
    members = member_catalogue(kind, m, a, t)
    fams = [[(code >> 2 * i) & 3 for i in range(m)]
            for code in (rng.choice(members) for _ in range(count))]
    g = cyclic_group(m)
    return whole_group_set(g), ConvexPair(multiplication_endo(g, a), t), fams


def _pointwise_suite(kind, tag, with_sum_scale, with_sup):
    def run(rng, caps, camp: Campaign):
        for i in range(caps["cases"]):
            d, pair, fams = _scalar_family(rng, kind, 3)
            if with_sup:
                sup = [max(col) for col in zip(*fams)]
                camp.add(f"{tag}/sup/{i}", _holds(kind, d, sup, pair))
            # pointwise-decreasing chain whose steps stay inside the class:
            # clamping from above preserves quasiconvexity, constant shifts
            # preserve the additive-inequality classes
            if kind == QUASICONVEX:
                chain = [[min(v, 3 - j) for v in fams[0]] for j in range(3)]
            else:
                chain = [[v - j for v in fams[0]] for j in range(3)]
            inf = [min(col) for col in zip(*chain)]
            camp.add(f"{tag}/chain-inf/{i}",
                     _holds(kind, d, inf, pair)
                     and all(_holds(kind, d, step, pair) for step in chain))
            if with_sum_scale:
                total = [u + v for u, v in zip(fams[0], fams[1])]
                scaled = [Fraction(3, 2) * v for v in fams[0]]
                camp.add(f"{tag}/sum/{i}", _holds(kind, d, total, pair))
                camp.add(f"{tag}/scale/{i}", _holds(kind, d, scaled, pair))

    return run


suite_closure_wright = _pointwise_suite(WRIGHT, "wright", with_sum_scale=True, with_sup=False)


def suite_closure_quasi(rng, caps, camp: Campaign):
    _pointwise_suite(QUASICONVEX, "quasi", with_sum_scale=False, with_sup=True)(
        rng, caps, camp
    )
    for i in range(max(5, caps["cases"] // 4)):
        d, pair, fams = _scalar_family(rng, QUASICONVEX, 2)
        f1, f2 = table_fn(d, fams[0]), table_fn(d, fams[1])
        conv = diamond_conv(f1, f2)
        camp.add(f"quasi/diamond/{i}", check_inequality(QUASICONVEX, conv, pair).verdict)
        g = d.group
        amap = multiplication_endo(g, rng.randrange(g.order))  # commutes with pair
        pushed = transport(f1, amap, "pushforward")
        camp.add(f"quasi/transport/{i}",
                 check_inequality(QUASICONVEX, pushed, pair).verdict)


def suite_closure_convex(rng, caps, camp: Campaign):
    _pointwise_suite(TTCONVEX, "convex", with_sum_scale=True, with_sup=True)(
        rng, caps, camp
    )
    for i in range(max(5, caps["cases"] // 4)):
        d, pair, fams = _scalar_family(rng, TTCONVEX, 2)
        f1, f2 = table_fn(d, fams[0]), table_fn(d, fams[1])
        camp.add(f"convex/infconv/{i}",
                 check_inequality(TTCONVEX, inf_conv(f1, f2), pair).verdict)


def suite_closure_affine(rng, caps, camp: Campaign):
    for i in range(caps["cases"]):
        d, pair, fams = _scalar_family(rng, TT_AFFINE, 3)
        camp.add(f"affine/limit/{i}", _holds(TT_AFFINE, d, fams[-1], pair))
        combo = [Fraction(2) * v + Fraction(5, 2) for v in fams[0]]
        camp.add(f"affine/combo/{i}", _holds(TT_AFFINE, d, combo, pair))


def suite_hconv(rng, caps, camp: Campaign):
    g = nadic_group(6)
    f = _sq_fn(g)
    smooth_dens = [2, 3, 4, 6, 8, 9, 12]
    for i in range(caps["cases"]):
        d = rng.choice(smooth_dens)
        t = Fraction(rng.randint(1, d - 1), d)
        pair = ConvexPair(scaled_identity(g, t), t)
        base_ok = check_inequality(TTCONVEX, f, pair, probes=40, seed=i).verdict
        npts = rng.randint(2, 4)
        cuts = sorted(rng.randint(0, d) for _ in range(npts - 1))
        weights = []
        prev = 0
        for cpt in cuts + [d]:
            weights.append(Fraction(cpt - prev, d))
            prev = cpt
        xs = [g.reduce([Fraction(rng.randint(0, d), d)]) for _ in range(npts)]
        combo = Fraction(0)
        val = Fraction(0)
        for w, x in zip(weights, xs):
            combo += w * x.coords[0]
            val += w * f(x)
        camp.add(f"hconv/{i}", base_ok and f(g.reduce([combo])) <= val)


# -- derivation suites -----------------------------------------------------


def suite_wright_grid(rng, caps, camp: Campaign):
    g = nadic_group(6)
    f = _sq_fn(g)
    smooth_dens = [2, 3, 4, 6, 8, 9, 12]
    for i in range(caps["cases"]):
        d = rng.choice(smooth_dens)
        t = Fraction(rng.randint(1, d - 1), d)
        t_endo = scaled_identity(g, t)
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        s_val = n * t + k * (1 - t)
        if not (is_smooth(s_val.numerator, 6) and is_smooth(s_val.denominator, 6)):
            camp.add(f"grid-skip/{i}", True)
            continue
        x = g.reduce([Fraction(rng.randint(0, 8), 8)])
        y = g.reduce([Fraction(rng.randint(0, 9), 9)])
        try:
            rep = u_grid_verify(f, t_endo, n, k, x, y)
            camp.add(f"grid/{i}", rep.verdict, rep.witness)
        except DeriveError as exc:
            camp.add(f"grid/{i}", False, {"error": str(exc)})
        try:
            derived = wright_ratio_derive(t_endo, n, k)
        except NotInvertible:
            camp.add(f"ratio-skip/{i}", True)
            continue
        rep = check_inequality(WRIGHT, f, derived.pair, probes=30, seed=i)
        camp.add(f"ratio/{i}", rep.verdict, rep.witness, audit=derived.audit)


def suite_last_coefficients(rng, caps, camp: Campaign):
    # hand-verified anchor: n = 2, t = (1/2, 1/2), k = 1; the blended
    # scalar is 3/4, so the carrier base must allow division by 2 and 3
    g0 = nadic_group(6)
    anchor = last_derive(
        [ConvexPair(scaled_identity(g0, Fraction(1, 2)), Fraction(1, 2))] * 2, 1
    )
    ok = (
        anchor.pair.t == Fraction(2, 3)
        and anchor.details["coefficients"] == ["0", "4/3", "2/3", "0"]
        and anchor.may_alarm
    )
    camp.add("last/hand", ok, audit=anchor.audit)
    for i in range(caps["cases"]):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        ts = [gen_t(rng, caps["max_denominator"], interior=True) for _ in range(n)]
        s_vals = []
        for j in range(n + 1):
            v = Fraction(1)
            for idx in range(1, j + 1):
                v *= ts[idx - 1]
            for idx in range(j + 1, n + 1):
                v *= 1 - ts[idx - 1]
            s_vals.append(v)
        base = _adaptive_base(
            ts + [1 - t for t in ts] + [sum(s_vals, Fraction(0)), Fraction(2)]
        )
        g = nadic_group(base)
        pairs = [ConvexPair(scaled_identity(g, t), t) for t in ts]
        try:
            derived = last_derive(pairs, k)
        except (DeriveError, NotInvertible) as exc:
            camp.add(f"last/{i}", False, {"error": str(exc)})
            continue
        camp.add(f"last/{i}", derived.may_alarm, audit=derived.audit)
        rep = check_inequality(TTCONVEX, _sq_fn(g), derived.pair, probes=20, seed=i)
        camp.add(f"last-recheck/{i}", rep.verdict, rep.witness)


def suite_kuhn_chain(rng, caps, camp: Campaign):
    for base, n in ((6, 3), (30, 5)):
        g = nadic_group(base)
        f = _sq_fn(g)
        seed_pair = ConvexPair(scaled_identity(g, Fraction(1, 2)), Fraction(1, 2))
        derived = kuhn_derive(seed_pair, n, domain=f.domain)
        per_pair = max(10, caps["probes"] // max(1, len(derived)))
        for j, dp in enumerate(derived):
            rep = check_inequality(
                TTCONVEX, f, dp.pair, probes=per_pair, seed=rng.randint(0, 10**6)
            )
            camp.add(f"kuhn/{base}/{j + 1}-of-{n}", rep.verdict, rep.witness,
                     audit=dp.audit)


def suite_twa_roundtrip(rng, caps, camp: Campaign):
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    for i in range(caps["cases"]):
        q = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        c = Fraction(rng.randint(-4, 4))
        a = table_fn(window, [q * x * x + b * x + c for x in range(-4, 5)])
        dec = twa_decompose(a)
        ok = (
            dec.ok
            and dec.b_matrix == ((q,),)
            and dec.c == c
            and all(dec.reconstruct(x) == a(x) for x in window.elements)
        )
        camp.add(f"twa/{i}", ok, dec.residual)
        if i % 5 == 0:
            cubic = table_fn(
                window, [x**3 + q * x * x + b * x + c for x in range(-4, 5)]
            )
            dec3 = twa_decompose(cubic)
            camp.add(f"twa-cubic/{i}", not dec3.ok and dec3.residual is not None)


def suite_rode_support(rng, caps, camp: Campaign):
    g = lattice_group(1)
    window = finite_set(g, [g.reduce([i]) for i in range(-4, 5)])
    for i in range(max(5, caps["cases"] // 4)):
        q = Fraction(rng.randint(1, 3), rng.choice([1, 2]))
        b = Fraction(rng.randint(-3, 3))
        c = Fraction(rng.randint(-3, 3))
        f = table_fn(window, [q * x * x + b * x + c for x in range(-4, 5)])
        for p in window.elements:
            result = rode_support(f, [], p)
            ok = not isinstance(result, Infeasible)
            camp.add(
                f"rode/{i}/p={p.coords[0]}", ok,
                None if ok else {"contradiction": str(result.contradiction)},
                audit=result.audit if ok else (),
            )


def suite_empty(rng, caps, camp: Campaign):
    pass


REGISTRY = {
    "norm-axioms": suite_norm_axioms,
    "mu-bounds": suite_mu_bounds,
    "ring-laws": suite_ring_laws,
    "spectral-neumann": suite_spectral_neumann,
    "midpoint-convexity": suite_midpoint_convexity,
    "semigroup-combination": suite_semigroup_combination,
    "closure-generated": suite_closure_generated,
    "compose-quasi": suite_compose_quasi,
    "compose-wright": suite_compose_wright,
    "compose-convex": suite_compose_convex,
    "compose-affine": suite_compose_affine,
    "closure-quasi": suite_closure_quasi,
    "closure-wright": suite_closure_wright,
    "closure-convex": suite_closure_convex,
    "closure-affine": suite_closure_affine,
    "prop-ls": suite_prop_ls,
    "envelope-oracle": suite_envelope_oracle,
    "wright-grid": suite_wright_grid,
    "last-coefficients": suite_last_coefficients,
    "kuhn-chain": suite_kuhn_chain,
    "twa-roundtrip": suite_twa_roundtrip,
    "rode-support": suite_rode_support,
    "radstrom": suite_radstrom,
    "hconv": suite_hconv,
    "empty": suite_empty,
}


def run_suite(config: SuiteConfig) -> CampaignReport:
    caps = with_defaults(config.caps)
    for cap in ("cases", "probes"):
        value = caps[cap]
        if type(value) is not int or value < 1:  # bool is not a count
            raise SuiteError(f"the {cap!r} cap must be a positive integer, not {value!r}")
    start = time.monotonic()
    if config.suite == "all":
        camp = Campaign("all", config.seed, caps)
        small = dict(caps)
        small["cases"] = min(caps["cases"], 20)
        for name, fn in REGISTRY.items():
            sub = Campaign(name, config.seed, small)
            fn(random.Random(config.seed), small, sub)
            for entry in sub.report.results:
                entry = dict(entry)
                entry["id"] = f"{name}/{entry['id']}"
                camp.report.results.append(entry)
            camp.report.alarms.extend(
                {"id": f"{name}/{a['id']}", "case": a["case"]}
                for a in sub.report.alarms
            )
            for key, v in sub.report.audit_summary.items():
                camp.report.audit_summary[key] = (
                    camp.report.audit_summary.get(key, 0) + v
                )
    else:
        fn = REGISTRY.get(config.suite)
        if fn is None:
            raise SuiteError(f"unknown suite {config.suite!r}")
        camp = Campaign(config.suite, config.seed, caps)
        fn(random.Random(config.seed), caps, camp)
    camp.report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return camp.report


def replay_alarm(alarm: dict) -> dict:
    """The result entry ``{"id", "verdict"[, "witness"]}`` of an alarm's
    case, from a re-run of the suite run the alarm records.

    The whole suite runs again, since its cases share one random stream.
    An unknown suite, or a case id the run does not produce, raises
    SuiteError.
    """
    case = alarm["case"]
    report = run_suite(SuiteConfig(case["suite"], case["seed"], case["caps"]))
    for entry in report.results:
        if entry["id"] == case["id"]:
            return entry
    raise SuiteError(f"suite {case['suite']!r} has no case {case['id']!r}")
