"""Rules that manufacture new convexity pairs from old ones, with
per-hypothesis audits: composite pairs, Wright ratio derivation and its
grid verifier, Wright-affine and affine decompositions, right-inverse
pair derivation, the telescoping-coefficient rule, division-derived
pairs and exact affine support certificates."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import linalg
from .endos import (
    Endo,
    EndoError,
    NotInvertible,
    PartialEndo,
    add as endo_add,
    certified_strictly_below,
    complement,
    compose,
    identity_endo,
    multiplication_endo,
    neumann_inverse,
    sub as endo_sub,
    try_inverse,
    validate_endo,
)
from .functions import (
    TT_AFFINE, ConvexPair, TableFn, _first_violation, _scaled, check_inequality,
)
from .groups import CYCLIC, LATTICE, NADIC, GroupError, Element, divisible_by, mu_d
from .rationals import ext_add, ext_le, format_rational
from .sets import combo_table
from .report import ASSUMED, CERTIFIED_BOUND, EXHAUSTIVE, FAILED, VERIFIED, Report


class DeriveError(ValueError):
    pass


def _dot(u, v):
    return sum(map(mul, u, v))


@dataclass
class DerivedPair:
    pair: ConvexPair
    rule: str
    audit: list  # (hypothesis, status) tuples
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.audit:
            raise DeriveError("derived pairs must carry a non-empty audit")

    @property
    def may_alarm(self) -> bool:
        """Only fully verified derivations may feed violation alarms."""
        return all(status == VERIFIED for _, status in self.audit)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "endo": [[format_rational(e) for e in row] for row in self.pair.endo.matrix],
            "t": format_rational(self.pair.t),
            "audit": [[h, s] for h, s in self.audit],
            "inputs": self.inputs,
            "details": {k: str(v) for k, v in self.details.items()},
        }


# -- composite pairs -------------------------------------------------------


def compose_pair(
    outer: ConvexPair,
    p1: ConvexPair,
    p2: ConvexPair,
    f=None,
    kind: str = None,
) -> DerivedPair:
    """Outer pair (T,t) applied to inputs (T1,t1),(T2,t2):
    S = T.T1 + (I-T).T2 and s = t*t1 + (1-t)*t2."""
    t = outer.endo
    if t.group != p1.endo.group or t.group != p2.endo.group:
        raise DeriveError("pairs must live on the same group")
    s_endo = endo_add(compose(t, p1.endo), compose(complement(t), p2.endo))
    s_t = outer.t * p1.t + (1 - outer.t) * p2.t
    audit = []
    if f is not None and kind is not None:
        for name, p in (("outer", outer), ("first", p1), ("second", p2)):
            rep = check_inequality(kind, f, p)
            audit.append((f"{name} pair holds on target", VERIFIED if rep.verdict else FAILED))
    else:
        audit.append(("input pairs convex on target", ASSUMED))
    return DerivedPair(
        ConvexPair(s_endo, s_t),
        rule="compose",
        audit=audit,
        inputs={
            "outer_t": format_rational(outer.t),
            "t1": format_rational(p1.t),
            "t2": format_rational(p2.t),
        },
    )


# -- Wright ratio derivation -----------------------------------------------


def _blend(t: Endo, n: int, k: int) -> Endo:
    """n*T + k*(I-T) as a raw matrix endo."""
    return Endo(
        t.group,
        linalg.mat_add(
            linalg.mat_scale(n, t.matrix),
            linalg.mat_scale(k, complement(t).matrix),
        ),
    )


def wright_ratio_derive(t: Endo, n: int, k: int) -> DerivedPair:
    """From a Wright-convexity witness T derive the ratio pair
    (S^{-1}.(n*T), n/(n+k)) with S = n*T + k*(I-T)."""
    if n < 1 or k < 1:
        raise DeriveError("n and k must be positive integers")
    g = t.group
    s = _blend(t, n, k)
    # contraction certificate |n-k| * rho_d(2T - I) < mu_d(n+k)
    try:
        mu = mu_d(g, n + k, mode="exact")
    except GroupError:
        mu = mu_d(g, n + k, mode="enumerated") if g.is_finite else None
    two_t_minus_i = Endo(
        g, linalg.mat_sub(linalg.mat_scale(2, t.matrix), linalg.identity(g.rank))
    )
    if mu is None or mu == 0:
        certified = False
    elif n == k:
        certified = True
    else:
        certified = certified_strictly_below(two_t_minus_i, mu / abs(n - k))
    s_inv = None
    route = None
    if certified:
        ok, _ = divisible_by(g, n + k)
        if ok:
            try:
                # S = (n+k)*(I - N): invert the series factor, then rescale
                n_mat = linalg.mat_sub(
                    linalg.identity(g.rank), linalg.mat_scale(Fraction(1, n + k), s.matrix)
                )
                series = neumann_inverse(Endo(g, n_mat))
                s_inv = validate_endo(
                    g, linalg.mat_scale(Fraction(1, n + k), series.matrix)
                )
                route = "neumann"
            except EndoError:
                s_inv = None
    if s_inv is None:
        s_inv = try_inverse(s)  # raises NotInvertible when S is not a unit
        route = "direct"
    derived = compose(s_inv, Endo(g, linalg.mat_scale(n, t.matrix)))
    div2, _ = divisible_by(g, 2)
    audit = [
        (
            f"|n-k|*rho_d(2T-I) < mu_d({n + k})",
            CERTIFIED_BOUND if certified else ASSUMED,
        ),
        ("S = n*T + k*(I-T) invertible", VERIFIED),
        (
            "carrier 2-divisible",
            VERIFIED if div2 else (FAILED if certified else ASSUMED),
        ),
    ]
    return DerivedPair(
        ConvexPair(derived, Fraction(n, n + k)),
        rule="wright-ratio",
        audit=audit,
        inputs={"n": n, "k": k},
        details={"route": route},
    )


def u_grid_verify(f, t: Endo, n: int, k: int, x: Element, y: Element) -> Report:
    """Materialize the (n+1)x(k+1) interpolation grid between x and y,
    check its two defining recurrences and boundary identities exactly,
    then every cell inequality and the telescoped end inequality."""
    if n < 1 or k < 1:
        raise DeriveError("n and k must be positive integers")
    g = t.group
    s = _blend(t, n, k)
    try:
        s_inv_mat = linalg.mat_inv(s.matrix)
    except ValueError:
        raise DeriveError("S = n*T + k*(I-T) is singular")
    c_mat = complement(t).matrix
    grid = []
    for i in range(n + 1):
        row = []
        for j in range(k + 1):
            p = linalg.mat_add(
                linalg.mat_scale(n - i, t.matrix), linalg.mat_scale(k - j, c_mat)
            )
            q = linalg.mat_add(
                linalg.mat_scale(i, t.matrix), linalg.mat_scale(j, c_mat)
            )
            raw = [
                a + b
                for a, b in zip(
                    linalg.mat_vec(linalg.mat_mul(s_inv_mat, p), x.coords),
                    linalg.mat_vec(linalg.mat_mul(s_inv_mat, q), y.coords),
                )
            ]
            try:
                u = g.reduce(raw)
            except GroupError:
                raise DeriveError(f"grid cell ({i},{j}) escapes the domain")
            if u not in f.domain:
                raise DeriveError(f"grid cell ({i},{j}) escapes the domain")
            row.append(u)
        grid.append(row)
    if grid[0][0] != x or grid[n][k] != y:
        return Report("u_grid", False, EXHAUSTIVE, witness={"boundary": "corner mismatch"})
    it = complement(t)
    for i in range(n):
        for j in range(k):
            a = g.add(t.apply(grid[i][j]), it.apply(grid[i + 1][j + 1]))
            b = g.add(t.apply(grid[i + 1][j + 1]), it.apply(grid[i][j]))
            if grid[i][j + 1] != a or grid[i + 1][j] != b:
                return Report(
                    "u_grid", False, EXHAUSTIVE,
                    witness={"recurrence_cell": [i, j]},
                )
            lhs = ext_add(f(grid[i][j + 1]), f(grid[i + 1][j]))
            rhs = ext_add(f(grid[i][j]), f(grid[i + 1][j + 1]))
            if not ext_le(lhs, rhs):
                return Report(
                    "u_grid", False, EXHAUSTIVE,
                    witness={"inequality_cell": [i, j]},
                )
    lhs = ext_add(f(grid[0][k]), f(grid[n][0]))
    rhs = ext_add(f(grid[0][0]), f(grid[n][k]))
    if not ext_le(lhs, rhs):
        return Report("u_grid", False, EXHAUSTIVE, witness={"telescoped": True})
    return Report("u_grid", True, EXHAUSTIVE, details={"cells": (n + 1) * (k + 1)})


# -- Wright-affine decomposition -------------------------------------------


@dataclass
class WrightDecomposition:
    """a(x) = B(x,x) + A(x) + c with B symmetric biadditive, A additive."""

    b_matrix: tuple  # B(x,y) = x^T M y on coordinates
    a_table: dict  # coords -> Fraction
    c: Fraction
    ok: bool
    residual: dict | None = None
    audit: list = field(default_factory=list)

    def b_value(self, x: Element, y: Element) -> Fraction:
        return _dot(x.coords, linalg.mat_vec(self.b_matrix, y.coords))

    def reconstruct(self, x: Element) -> Fraction:
        return self.b_value(x, x) + self.a_table[x.coords] + self.c


def twa_decompose(a: TableFn, ts=()) -> WrightDecomposition:
    """Finite-difference decomposition of a Wright-affine table:
    c = a(0), B(x,y) = (a(x+y)-a(x)-a(y)+a(0))/2, A = a - B(.,.) - c.

    The probes run on integers: with D the common denominator of the
    values and K that of the coordinates, 2*D*K^2 times B and A are
    integers.  Fractions are built only for what is returned."""
    if not a.is_finite_valued():
        raise DeriveError("decomposition needs finite values")
    g = a.group
    dom = a.domain
    zero = g.zero()
    if zero not in dom:
        raise DeriveError("domain must contain the group zero")
    c = a(zero)
    den, vals = _scaled(a.values)
    r, elems = g.rank, dom.elements
    kd, flat = _scaled([u for x in elems for u in x.coords])
    k2, pts = kd * kd, [flat[i:i + r] for i in range(0, len(flat), r)]
    mods = g.moduli if g.family == CYCLIC else (None,) * r
    get = dom.index.get

    def at(i, j):  # the index of elems[i] + elems[j] in the domain, or None
        return get(tuple((u + v) % m if m else u + v
                         for u, v, m in zip(elems[i].coords, elems[j].coords, mods)))

    v0, gi = vals[get(zero.coords)], [get(x.coords) for x in g.generators()]
    if None in gi or None in (at(i, j) for i in gi for j in gi):
        raise DeriveError("domain too small for generator probes")
    cols = list(zip(*[[vals[at(i, j)] - vals[i] - vals[j] + v0 for j in gi] for i in gi]))
    dec = WrightDecomposition(tuple(tuple(Fraction(e, 2 * den) for e in col) for col in cols),
                              {}, c, ok=True)  # B's matrix is symmetric: rows = columns

    def residual(probe, i, j, **forms):
        dec.ok = False
        dec.residual = {"probe": probe, "x": list(map(str, elems[i].coords)),
                        "y": list(map(str, elems[j].coords)), **forms}
        return dec

    # biadditivity probe: the finite-difference B must agree with the
    # bilinear extension everywhere it is defined; both sides times 2*D*K^2
    sums = [(i, j, k) for i in range(len(elems)) for j in range(len(elems))
            if (k := at(i, j)) is not None]
    xm = [[_dot(x, col) for col in cols] for x in pts]
    for i, j, k in sums:
        diff, bil = vals[k] - vals[i] - vals[j] + v0, _dot(xm[i], pts[j])
        if diff * k2 != bil:
            return residual("biadditivity", i, j,
                            difference_form=format_rational(Fraction(diff, 2 * den)),
                            bilinear_form=format_rational(Fraction(bil, 2 * den * k2)))
    a2 = [2 * k2 * (v - v0) - _dot(xm[i], pts[i]) for i, v in enumerate(vals)]
    dec.a_table = {x.coords: Fraction(v, 2 * den * k2) for x, v in zip(elems, a2)}
    for i, j, k in sums:
        if a2[k] != a2[i] + a2[j]:
            return residual("additivity", i, j)
    for idx, t in enumerate(ts):
        it = complement(t)
        vanishes = all(_dot([_dot(t.apply(u).coords, col) for col in cols],
                            it.apply(u).coords) == 0 for u in elems)
        dec.audit.append((f"B(Tu,(I-T)u) = 0 for endo #{idx}",
                          VERIFIED if vanishes else FAILED))
    return dec


@dataclass
class AffineDecomposition:
    a_table: dict  # coords -> Fraction (additive part)
    c: Fraction
    ok: bool
    residual: dict | None = None
    audit: list = field(default_factory=list)


def affine_decompose(a: TableFn, pairs) -> AffineDecomposition:
    """a = A + c with A additive and (T,t)-homogeneous for every pair."""
    if not a.is_finite_valued():
        raise DeriveError("decomposition needs finite values")
    g = a.group
    dom = a.domain
    zero = g.zero()
    if zero not in dom:
        raise DeriveError("domain must contain the group zero")
    # affine equality probed on the triples that stay inside the window
    # (finite windows of torsion-free carriers are never fully T-convex)
    for p in pairs:
        hit = _first_violation(TT_AFFINE, p.t, a.values, combo_table(dom, p.endo))
        if hit is not None:
            x, y = (dom.elements[i] for i in hit[:2])
            raise DeriveError(f"input is not (T,t)-affine at {x.coords}, {y.coords}")
    c = a(zero)
    table = {x.coords: a(x) - c for x in dom.elements}
    dec = AffineDecomposition(table, c, ok=True)
    for x in dom.elements:
        for y in dom.elements:
            z = g.add(x, y)
            if z not in dom:
                continue
            if table[z.coords] != table[x.coords] + table[y.coords]:
                dec.ok = False
                dec.residual = {
                    "probe": "additivity",
                    "x": list(map(str, x.coords)),
                    "y": list(map(str, y.coords)),
                }
                return dec
    for idx, p in enumerate(pairs):
        status = VERIFIED
        for x in dom.elements:
            tx = p.endo.apply(x)
            if tx in dom and table[tx.coords] != p.t * table[x.coords]:
                status = FAILED
                break
        dec.audit.append((f"A homogeneous for pair #{idx}", status))
    if g.is_finite:
        # torsion forces the additive part to vanish
        trivial = all(v == 0 for v in table.values())
        dec.audit.append(("A = 0 on finite carrier", VERIFIED if trivial else FAILED))
        if not trivial:
            dec.ok = False
    return dec


# -- right-inverse pair derivation -----------------------------------------


def right_inverse_derive(
    t_pair: ConvexPair,
    s_pair: ConvexPair,
    sstar: PartialEndo,
    complement_star: PartialEndo = None,
) -> list:
    """From (T,t)- and (S,s)-affine data with a right inverse S* of S on
    the image of T, derive (S*.T, t/s) and (S-T, s-t); with a right
    inverse on the complement image and s+t >= 1 also (S+T-I, s+t-1)."""
    t, s = t_pair.t, s_pair.t
    g = t_pair.endo.group
    if not (0 < s and t <= s):
        raise DeriveError("requires 0 < s and t <= s")
    for u in sstar.generators:
        if s_pair.endo.apply(sstar.apply(u)) != u:
            raise DeriveError(f"right-inverse verification failed at {u}")
    audit = [
        ("right inverse verified on supplied generators", VERIFIED),
        ("0 < t <= s", VERIFIED),
    ]
    first = validate_endo(g, linalg.mat_mul(sstar.matrix, t_pair.endo.matrix))
    out = [
        DerivedPair(ConvexPair(first, t / s), rule="right-inverse-compose", audit=list(audit)),
        DerivedPair(
            ConvexPair(endo_sub(s_pair.endo, t_pair.endo), s - t),
            rule="right-inverse-difference",
            audit=list(audit),
        ),
    ]
    if s + t >= 1 and complement_star is not None:
        for u in complement_star.generators:
            if s_pair.endo.apply(complement_star.apply(u)) != u:
                raise DeriveError(f"right-inverse verification failed at {u}")
        third = Endo(
            g,
            linalg.mat_sub(
                linalg.mat_add(s_pair.endo.matrix, t_pair.endo.matrix),
                linalg.identity(g.rank),
            ),
        )
        out.append(
            DerivedPair(
                ConvexPair(third, s + t - 1),
                rule="right-inverse-overlap",
                audit=list(audit),
            )
        )
    return out


# -- telescoping coefficient rule ------------------------------------------


def last_derive(pairs, k: int) -> DerivedPair:
    """From commuting pairs (T_i, t_i), i = 1..n, with interior t_i,
    derive (S^{-1}.(S_k+...+S_n), (s_k+...+s_n)/s) where
    S_j = T_1...T_j.(I-T_{j+1})...(I-T_n), with a full audit of the
    telescoping coefficients."""
    n = len(pairs)
    if not (1 <= k <= n):
        raise DeriveError("k must be in 1..n")
    ts = [p.t for p in pairs]
    if any(not (0 < t < 1) for t in ts):
        raise DeriveError("all t_i must be strictly interior")
    endos = [p.endo for p in pairs]
    g = endos[0].group
    for i in range(n):
        for j in range(i + 1, n):
            if compose(endos[i], endos[j]).key() != compose(endos[j], endos[i]).key():
                raise DeriveError(f"endos #{i} and #{j} do not commute")
    s_list, sc_list = [], []
    for j in range(n + 1):
        acc = identity_endo(g)
        val = Fraction(1)
        for idx in range(1, j + 1):
            acc = compose(acc, endos[idx - 1])
            val *= ts[idx - 1]
        for idx in range(j + 1, n + 1):
            acc = compose(acc, complement(endos[idx - 1]))
            val *= 1 - ts[idx - 1]
        s_list.append(acc)
        sc_list.append(val)
    s_total = s_list[0]
    for e in s_list[1:]:
        s_total = endo_add(s_total, e)
    sc_total = sum(sc_list, Fraction(0))
    s_inv = try_inverse(s_total)
    tail = s_list[k]
    for e in s_list[k + 1:]:
        tail = endo_add(tail, e)
    r_endo = compose(s_inv, tail)
    r_k = sum(sc_list[k:], Fraction(0)) / sc_total
    # coefficient table indexed 0..n+1 (t_i below is 1-based)
    c = [Fraction(0)] * (n + 2)
    for i in range(1, k + 1):
        c[i] = r_k * sum(sc_list[:i], Fraction(0)) / (ts[i - 1] * sc_list[i - 1])
    for i in range(k + 1, n + 1):
        c[i] = (1 - r_k) * sum(sc_list[i:], Fraction(0)) / ((1 - ts[i - 1]) * sc_list[i])
    positive = all(c[i] > 0 for i in range(1, n + 1))
    recurrence = True
    for i in range(1, n + 1):
        if i == k:
            continue
        prev = (1 - ts[i - 2]) * c[i - 1] if i - 1 >= 1 else Fraction(0)
        nxt = ts[i] * c[i + 1] if i + 1 <= n else Fraction(0)
        if c[i] != prev + nxt:
            recurrence = False
    prev = (1 - ts[k - 2]) * c[k - 1] if k - 1 >= 1 else Fraction(0)
    nxt = ts[k] * c[k + 1] if k + 1 <= n else Fraction(0)
    normalized = c[k] - prev - nxt == 1
    audit = [
        ("endos pairwise commuting", VERIFIED),
        ("S invertible", VERIFIED),
        ("interior coefficients positive", VERIFIED if positive else FAILED),
        ("coefficient recurrence", VERIFIED if recurrence else FAILED),
        ("coefficient normalization", VERIFIED if normalized else FAILED),
    ]
    return DerivedPair(
        ConvexPair(r_endo, r_k),
        rule="telescoping",
        audit=audit,
        inputs={"n": n, "k": k, "t": [format_rational(t) for t in ts]},
        details={"coefficients": [format_rational(ci) for ci in c],
                 "s_values": [format_rational(v) for v in sc_list]},
    )


# -- division-derived pairs ------------------------------------------------


def kuhn_derive(pair: ConvexPair, n: int, domain=None) -> list:
    """From one interior pair on an n-divisible carrier derive the whole
    family (pi_n^{-1}.(k*I), k/n) for k = 1..n."""
    if n < 1:
        raise DeriveError("n must be positive")
    if not (0 < pair.t < 1):
        raise DeriveError("pair t must be strictly interior")
    g = pair.endo.group
    ok, _ = divisible_by(g, n)
    if not ok:
        raise NotInvertible(f"multiplication by {n} is not invertible here")
    pin_inv = try_inverse(multiplication_endo(g, n))
    audit = [("multiplication by n invertible", VERIFIED)]
    try:
        mu2 = mu_d(g, 2, mode="exact")
        audit.append(("mu_d(2) > 1", VERIFIED if mu2 > 1 else FAILED))
    except GroupError:
        audit.append(("mu_d(2) > 1", ASSUMED))
    if domain is not None and not domain.is_finite:
        audit.append(("domain n0-convex closed bounded", VERIFIED))
    else:
        audit.append(("domain n0-convex closed bounded", ASSUMED))
    out = []
    for k in range(1, n + 1):
        derived = compose(pin_inv, multiplication_endo(g, k))
        out.append(
            DerivedPair(
                ConvexPair(derived, Fraction(k, n)),
                rule="division",
                audit=list(audit),
                inputs={"n": n, "k": k},
            )
        )
    return out


# -- affine support certificates -------------------------------------------


@dataclass
class SupportCertificate:
    a: tuple  # weight vector
    c: Fraction
    p: Element
    audit: list = field(default_factory=list)

    def value(self, x: Element) -> Fraction:
        return _dot(self.a, x.coords) + self.c

    def to_json(self) -> dict:
        return {
            "A": [format_rational(w) for w in self.a],
            "c": format_rational(self.c),
            "p": [format_rational(Fraction(cc)) for cc in self.p.coords],
        }


@dataclass
class Infeasible:
    contradiction: tuple  # (y.A, y.b): zero coefficients, negative rhs
    note: str = "window artifact"
    farkas: dict | None = None  # window point -> weight y_x


def rode_support(f: TableFn, pairs, p: Element):
    """Exact affine support of f at p compatible with every pair:
    weights a with a.T = t*a per pair, a(p)+c = f(p) and a+c <= f on
    the domain, or an Infeasible witness.

    The equalities are solved exactly; the free part of (a, c) must then
    satisfy one inequality per window point, decided by linalg.fm_feasible.
    Either answer is re-verified from scratch: a certificate pointwise, a
    Farkas vector y (one weight per window point) by y >= 0, y.A = 0 and
    y.b < 0 on the inequalities, which `contradiction` recomputes."""
    g = f.group
    if g.family not in (LATTICE, NADIC):
        raise DeriveError("support certificates need a torsion-free carrier")
    if not f.is_finite_valued():
        raise DeriveError("support needs finite values")
    if p not in f.domain:
        raise DeriveError("p must lie in the domain")
    endos = [q.endo for q in pairs]
    for i, q in enumerate(pairs):
        if q.t == 0 and not linalg.is_zero(q.endo.matrix):
            raise DeriveError(f"pair #{i} is singular: t = 0 with T nonzero")
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            if compose(endos[i], endos[j]).matrix != compose(endos[j], endos[i]).matrix:
                raise DeriveError(f"endos #{i} and #{j} do not commute")
    r = g.rank
    nv = r + 1  # unknowns: a_0..a_{r-1}, c
    eq_rows, eq_rhs = [], []
    for q in pairs:
        for j in range(r):
            row = [Fraction(0)] * nv
            for i in range(r):
                row[i] += q.endo.matrix[i][j]
            row[j] -= q.t
            eq_rows.append(tuple(row))
            eq_rhs.append(Fraction(0))
    touch = [Fraction(c) for c in p.coords] + [Fraction(1)]
    eq_rows.append(tuple(touch))
    eq_rhs.append(f(p))
    particular = linalg.solve(eq_rows, eq_rhs)
    if particular is None:
        return Infeasible((tuple(), Fraction(-1)), note="equalities inconsistent")
    basis = linalg.nullspace(eq_rows)
    # The row of window point x, (x, 1).(particular + sum_k w_k basis_k) <=
    # f(x), times k = D*E: D clears coordinates and values, E the solution
    # and basis.  fm_feasible makes each nonzero row primitive, so its run
    # and point stay the same and its weights on those rows shrink by k; it
    # keeps zero rows (x = p among them) as given, so they go in divided by k.
    elems = f.domain.elements
    den, flat = _scaled([u for x in elems for u in x.coords] + list(f.values))
    pts = [(*flat[i * r:(i + 1) * r], den) for i in range(len(elems))]
    vals = flat[len(elems) * r:]
    e, flat = _scaled([*particular, *(u for bv in basis for u in bv)])
    part, basis_k = flat[:nv], [flat[i:i + nv] for i in range(nv, len(flat), nv)]
    k = den * e
    constraints, scale = [], []
    for x, fx in zip(pts, vals):
        coeffs, rhs = tuple(_dot(x, bv) for bv in basis_k), e * fx - _dot(x, part)
        scale.append(k if any(coeffs) else 1)
        constraints.append((coeffs, rhs if any(coeffs) else Fraction(rhs, k)))
    status, payload = linalg.fm_feasible(constraints, len(basis))
    if status == "infeasible":
        y = payload
        ya = tuple(
            sum((w * cs[j] for w, (cs, _) in zip(y, constraints)), Fraction(0))
            for j in range(len(basis))
        )
        yb = sum((w * rhs for w, (_, rhs) in zip(y, constraints)), Fraction(0))
        if len(y) != len(constraints) or min(y, default=0) < 0 or any(ya) or yb >= 0:
            raise DeriveError("Farkas certificate failed re-verification")
        return Infeasible((ya, yb), farkas={x: w * s for x, w, s in zip(elems, y, scale)})
    w = payload
    v = list(particular)
    for wi, bv in zip(w, basis):
        for idx in range(nv):
            v[idx] += wi * bv[idx]
    cert = SupportCertificate(tuple(v[:r]), v[r], p)
    # re-verify from scratch: never trust the eliminator
    checks = []
    for i, q in enumerate(pairs):
        lhs = tuple(
            sum((cert.a[ii] * q.endo.matrix[ii][jj] for ii in range(r)), Fraction(0))
            for jj in range(r)
        )
        rhs = tuple(q.t * cert.a[jj] for jj in range(r))
        checks.append((f"homogeneity for pair #{i}", VERIFIED if lhs == rhs else FAILED))
    vd, vs = _scaled(v)  # (x, 1).v <= f(x) as (D*x, D).(vd*v) <= vd*D*f(x)
    ip = f.domain.index[p.coords]
    checks.append(("touching at p",
                   VERIFIED if _dot(pts[ip], vs) == vd * vals[ip] else FAILED))
    below = all(_dot(x, vs) <= vd * fx for x, fx in zip(pts, vals))
    checks.append(("support inequality on domain", VERIFIED if below else FAILED))
    cert.audit = checks
    if any(status == FAILED for _, status in checks):
        raise DeriveError("certificate failed re-verification")
    return cert
