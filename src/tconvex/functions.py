"""Extended-real functions on group subsets and every convexity notion:
the four inequality kinds, level sets, the two convolutions, transport,
the quasiconvex envelope, parameter intervals, epigraph/graph lifts and
exact member catalogues of small tables on Z_m."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .endos import Endo, multiplication_endo
from .groups import CYCLIC, GroupSpec, Element, GroupError, cyclic_group
from .rationals import (
    NEG_INF,
    ExtValue,
    ext_add,
    ext_le,
    ext_max,
    ext_min,
    ext_scale,
    format_ext,
    parse_ext,
)
from .report import EXHAUSTIVE, SAMPLED, Report
from .sets import (
    GroundSet,
    _TableMemo,
    _convexity_report,
    _element,
    _pair_witness,
    _sampled_convexity,
    combo_table,
    finite_set,
    whole_group_set,
)

QUASICONVEX = "quasiconvex"
WRIGHT = "wright"
TTCONVEX = "ttconvex"
WRIGHT_AFFINE = "wright_affine"
TT_AFFINE = "tt_affine"

KINDS = (QUASICONVEX, WRIGHT, TTCONVEX, WRIGHT_AFFINE, TT_AFFINE)

# member codes held by the catalogue memo, summed over its catalogues
CATALOGUE_MEMO_ENTRIES = 1 << 16


class FnError(ValueError):
    pass


@dataclass(frozen=True)
class TableFn:
    domain: GroundSet
    values: tuple  # aligned with domain.elements

    def __post_init__(self):
        if not self.domain.is_finite:
            raise FnError("table functions need an explicit finite domain")
        if len(self.values) != len(self.domain.elements):
            raise FnError("value count must match the domain size")

    @property
    def group(self):
        return self.domain.group

    def __call__(self, x: Element) -> ExtValue:
        idx = self.domain.index.get(x.coords)
        if idx is None or x.group != self.group:
            raise FnError(f"{x} outside the function domain")
        return self.values[idx]

    def is_finite_valued(self) -> bool:
        return all(v is not NEG_INF for v in self.values)


@dataclass(frozen=True)
class QuadraticFn:
    """x^T Q x + b^T x + c on a ground-set domain (Q symmetric)."""

    domain: GroundSet
    q: tuple
    b: tuple
    c: Fraction

    def __post_init__(self):
        if self.q != linalg.transpose(self.q):
            raise FnError("Q must be symmetric")

    @property
    def group(self):
        return self.domain.group

    def __call__(self, x: Element) -> ExtValue:
        v = x.coords
        qv = linalg.mat_vec(self.q, v)
        return (
            sum((a * b for a, b in zip(v, qv)), Fraction(0))
            + sum((a * b for a, b in zip(self.b, v)), Fraction(0))
            + self.c
        )

    def is_finite_valued(self) -> bool:
        return True

    def integer_form(self):
        """F(n, D) = n.Q'n + D*b'.n + D^2*c' = L*D^2*f(n/D) on integers, where
        Q', b', c' are Q, b, c times L, the common denominator of their entries."""
        r = len(self.b)
        _, flat = _scaled([e for row in self.q for e in row] + [*self.b, self.c])
        qs, bs, cs = [flat[i * r:(i + 1) * r] for i in range(r)], flat[r * r:-1], flat[-1]

        def form(n, d):
            total = d * d * cs
            for a, row, b in zip(n, qs, bs):
                total += a * (sum(map(mul, row, n)) + d * b)
            return total
        return form


def table_fn(domain: GroundSet, values) -> TableFn:
    return TableFn(
        domain, tuple([v if v is NEG_INF else Fraction(v) for v in values])
    )


def _tabulated(f):
    """f, with a quadratic on a finite domain evaluated into its table."""
    if isinstance(f, QuadraticFn) and f.domain.is_finite:
        return table_fn(f.domain, [f(x) for x in f.domain.elements])
    return f


@dataclass(frozen=True)
class ConvexPair:
    endo: Endo
    t: Fraction

    def __post_init__(self):
        t = Fraction(self.t)
        if not (0 <= t <= 1):
            raise FnError("t must lie in [0, 1]")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class Interval:
    """A closed rational subinterval of [0,1], possibly empty."""

    empty: bool
    lower: Fraction = Fraction(0)
    upper: Fraction = Fraction(1)

    def __post_init__(self):
        if not self.empty and self.lower > self.upper:
            raise FnError("nonempty interval needs lower <= upper")

    @staticmethod
    def full():
        return Interval(False, Fraction(0), Fraction(1))

    @staticmethod
    def none():
        return Interval(True)

    def contains(self, t) -> bool:
        return not self.empty and self.lower <= Fraction(t) <= self.upper

    def intersect_lower(self, bound: Fraction) -> "Interval":
        if self.empty or bound <= self.lower:
            return self
        if bound > self.upper:
            return Interval.none()
        return Interval(False, bound, self.upper)

    def intersect_upper(self, bound: Fraction) -> "Interval":
        if self.empty or bound >= self.upper:
            return self
        if self.lower > bound:
            return Interval.none()
        return Interval(False, self.lower, bound)

    def intersect_point(self, t: Fraction) -> "Interval":
        if self.empty or not (self.lower <= t <= self.upper):
            return Interval.none()
        return Interval(False, t, t)


# -- the inequality checker ------------------------------------------------


def _violates(kind, t, fx, fy, fz1, fz2):
    """Whether a pair violates the inequality; returns (lhs, rhs) or None."""
    if kind == QUASICONVEX:
        lhs, rhs = fz1, ext_max(fx, fy)
        bad = not ext_le(lhs, rhs)
    elif kind == WRIGHT:
        lhs, rhs = ext_add(fz1, fz2), ext_add(fx, fy)
        bad = not ext_le(lhs, rhs)
    elif kind == TTCONVEX:
        lhs = fz1
        rhs = ext_add(ext_scale(t, fx), ext_scale(1 - t, fy))
        bad = not ext_le(lhs, rhs)
    elif kind == WRIGHT_AFFINE:
        lhs, rhs = ext_add(fz1, fz2), ext_add(fx, fy)
        bad = lhs is not rhs if (lhs is NEG_INF or rhs is NEG_INF) else lhs != rhs
    elif kind == TT_AFFINE:
        lhs = fz1
        rhs = ext_add(ext_scale(t, fx), ext_scale(1 - t, fy))
        bad = lhs is not rhs if (lhs is NEG_INF or rhs is NEG_INF) else lhs != rhs
    else:
        raise FnError(f"unknown inequality kind {kind!r}")
    return (lhs, rhs) if bad else None


def _scaled(values):
    """The common denominator of finite rationals and the values times it,
    as Python ints."""
    den = math.lcm(*[v.denominator for v in values])
    if den == 1:
        return den, [v.numerator for v in values]
    return den, [v.numerator * (den // v.denominator) for v in values]


def _first_violation(kind, t, values, rows):
    """The first (ix, iy) in row-major order at which a table violates the
    inequality over a combination table, with the (lhs, rhs) sides that
    _violates gives there, or None.  Pairs whose combination leaves the
    domain are skipped; the Wright kinds need a T-convex table.

    Finite tables are compared exactly on integers scaled by one common
    denominator (t = p/q turns the TT kinds into q*f(z) <= p*f(x) +
    (q-p)*f(y)); tables with -inf values go through _violates."""
    mirror = kind in (WRIGHT, WRIGHT_AFFINE)
    if any(v is NEG_INF for v in values):
        for ix, row in enumerate(rows):
            for iy, iz in enumerate(row):
                if iz is None:
                    continue
                sides = _violates(kind, t, values[ix], values[iy], values[iz],
                                  values[rows[iy][ix]] if mirror else None)
                if sides:
                    return ix, iy, sides
        return None
    den, v = _scaled(values)
    if kind in (TTCONVEX, TT_AFFINE):
        p, q = t.numerator, t.denominator
        lhs, a, b = [q * w for w in v], [p * w for w in v], [(q - p) * w for w in v]
        den *= q
    else:
        lhs = a = b = v
    exact = kind in (WRIGHT_AFFINE, TT_AFFINE)
    quasi = kind == QUASICONVEX
    for ix, row in enumerate(rows):
        ax = a[ix]
        mirrors = [r[ix] for r in rows] if mirror else None  # (I-T)x + Ty
        for iy, iz in enumerate(row):
            if iz is None:
                continue
            left = lhs[iz] + lhs[mirrors[iy]] if mirror else lhs[iz]
            right = max(ax, v[iy]) if quasi else ax + b[iy]
            if left > right or (exact and left != right):
                return ix, iy, (Fraction(left, den), Fraction(right, den))
    return None


def check_inequality(
    kind: str,
    f,
    pair: ConvexPair,
    probes: int = 1000,
    seed: int = 0,
) -> Report:
    """Check one convexity inequality; exhaustive over finite domains,
    sampled over quadratics on boxes.  The domain must be T-convex."""
    f, t_endo = _tabulated(f), pair.endo
    if isinstance(f, TableFn):
        rows = combo_table(f.domain, t_endo)
        conv = _convexity_report(f.domain, t_endo, rows)
    else:
        conv, draws, den = _sampled_convexity(f.domain, t_endo, probes, seed)
    if not conv.verdict:
        raise FnError(f"domain is not T-convex: witness {conv.witness}")
    if kind not in KINDS:
        raise FnError(f"unknown inequality kind {kind!r}")
    if isinstance(f, TableFn):
        hit = _first_violation(kind, pair.t, f.values, rows)
        if hit is None:
            return Report(f"check:{kind}", True, EXHAUSTIVE)
        ix, iy, sides = hit
        x, y, z = (f.domain.elements[i] for i in (ix, iy, rows[ix][iy]))
        return Report(
            f"check:{kind}", False, EXHAUSTIVE, witness=_ineq_witness(x, y, z, sides)
        )
    # on the integer form; t = p/q turns the TT kinds into q*F(z) <= p*F(x) + (q-p)*F(y)
    form, p, q = f.integer_form(), pair.t.numerator, pair.t.denominator
    mirror = kind in (WRIGHT, WRIGHT_AFFINE)
    exact = kind in (WRIGHT_AFFINE, TT_AFFINE)
    for i, (x, y, z, w) in enumerate(draws):
        fx, fy, fz = form(x, den), form(y, den), form(z, den)
        if kind == QUASICONVEX:
            left, right = fz, max(fx, fy)
        elif mirror:
            left, right = fz + form(w, den), fx + fy
        else:
            left, right = q * fz, p * fx + (q - p) * fy
        if left > right or (exact and left != right):
            x, y, z, w = (_element(f.group, n, den) for n in draws[i])
            sides = _violates(kind, pair.t, f(x), f(y), f(z), f(w) if mirror else None)
            return Report(f"check:{kind}", False, SAMPLED,
                          witness=_ineq_witness(x, y, z, sides), details={"probes": i + 1})
    return Report(f"check:{kind}", True, SAMPLED, details={"probes": len(draws)})


def _ineq_witness(x, y, z, sides):
    return {**_pair_witness(x, y, z), "lhs": format_ext(sides[0]), "rhs": format_ext(sides[1])}


# -- member catalogues on Z_m ----------------------------------------------


def _scalar_pair(kind: str, m: int, a: int, t):
    """t as a Fraction and the combination table of multiplication by a on
    the whole of Z_m, once the kind and the pair are valid."""
    if kind not in KINDS:
        raise FnError(f"unknown inequality kind {kind!r}")
    g = cyclic_group(m)
    pair = ConvexPair(multiplication_endo(g, a), t)
    return pair.t, combo_table(whole_group_set(g), pair.endo)


def is_vacuous(kind: str, m: int, a: int, t) -> bool:
    """Whether every table on Z_m satisfies the inequality under the pair
    (multiplication by a, t).

    At each (x, y) the comparison is linear in the values with coefficients
    summing to zero (quasiconvex: it binds unless z is x or y), so a pair
    that binds somewhere fails a unit table; every table passes exactly when
    the m unit tables do."""
    t, rows = _scalar_pair(kind, m, a, t)
    return all(_first_violation(kind, t, [int(i == j) for i in range(m)], rows) is None
               for j in range(m))


def member_catalogue(kind: str, m: int, a: int, t) -> array:
    """Every table in {0..3}^m on the whole of Z_m that satisfies the
    inequality under the pair (multiplication by a, t), as base-4 codes
    (digit i is the value at i).  Memoised up to CATALOGUE_MEMO_ENTRIES
    codes; the array is shared and must not be changed.

    Backtracking over the indices of D: once index k is assigned, the
    kernel's comparison runs on the pairs whose points x, y, z (and for the
    Wright kinds the mirror (I-T)x + Ty) lie at or below k, with k among
    them.  (x, y) and (y, x) share their points, so the mirror lookup stays
    inside the level."""
    key = (kind, m, a, Fraction(t))
    members = _CATALOGUES.tables.get(key)
    if members is not None:
        return members
    t, rows = _scalar_pair(kind, m, a, t)
    mirror = kind in (WRIGHT, WRIGHT_AFFINE)
    levels = [[[None] * (k + 1) for _ in range(k + 1)] for k in range(m)]
    for ix, row in enumerate(rows):
        for iy, iz in enumerate(row):
            levels[max(ix, iy, iz, rows[iy][ix] if mirror else 0)][ix][iy] = iz
    members, values = array("Q"), []

    def extend(k, code):
        for v in range(4):
            values.append(v)
            if _first_violation(kind, t, values, levels[k]) is None:
                if k + 1 == m:
                    members.append(code + (v << 2 * k))
                else:
                    extend(k + 1, code + (v << 2 * k))
            values.pop()

    extend(0, 0)
    _CATALOGUES.store(key, members)
    return members


_CATALOGUES = _TableMemo(lambda: CATALOGUE_MEMO_ENTRIES, len)


# -- level sets and characteristic functions -------------------------------


def level_set(f: TableFn, c: ExtValue) -> GroundSet:
    """{x in D : f(x) <= c}; monotone in c."""
    members = [x for x, v in zip(f.domain.elements, f.values) if ext_le(v, c)]
    return finite_set(f.group, members)


def neg_char_fn(s: GroundSet, ambient: GroundSet) -> TableFn:
    """-1 on S, 0 off S (order-isomorphic to the negated characteristic
    function; preserves all max-inequalities)."""
    if not ambient.is_finite:
        raise FnError("ambient domain must be explicit finite")
    for x in s.elements:
        if x not in ambient:
            raise FnError("S must be a subset of the ambient domain")
    inside = set(s.elements)
    return table_fn(
        ambient,
        [Fraction(-1) if x in inside else Fraction(0) for x in ambient.elements],
    )


# -- convolutions ----------------------------------------------------------


def _conv(f: TableFn, g_fn: TableFn, combine):
    if f.group != g_fn.group:
        raise FnError("convolution needs functions on the same group")
    grp = f.group
    acc = {}
    for u, fu in zip(f.domain.elements, f.values):
        for v, gv in zip(g_fn.domain.elements, g_fn.values):
            z = grp.add(u, v)
            val = combine(fu, gv)
            acc[z] = val if z not in acc else ext_min(acc[z], val)
    domain = finite_set(grp, acc.keys())
    return table_fn(domain, [acc[z] for z in domain.elements])


def diamond_conv(f: TableFn, g_fn: TableFn) -> TableFn:
    """(f<>g)(x) = inf{max(f(u), g(v)) : u+v = x} on the sumset."""
    return _conv(f, g_fn, ext_max)


def inf_conv(f: TableFn, g_fn: TableFn) -> TableFn:
    """(f*g)(x) = inf{f(u)+g(v) : u+v = x}; -inf absorbs."""
    return _conv(f, g_fn, ext_add)


# -- transport -------------------------------------------------------------


def transport(f: TableFn, a: Endo, direction: str) -> TableFn:
    """Pullback f.A on A^{-1}(D), or pushforward with fiberwise infimum
    on A(D)."""
    grp = f.group
    if direction == "pullback":
        members = []
        if grp.family == CYCLIC:
            domain_set = set(f.domain.elements)
            members = [x for x in grp.elements() if a.apply(x) in domain_set]
        else:
            if linalg.det(a.matrix) == 0:
                raise FnError("pullback on infinite carriers needs invertible A")
            inv = linalg.mat_inv(a.matrix)
            for d in f.domain.elements:
                try:
                    z = grp.reduce(linalg.mat_vec(inv, d.coords))
                except GroupError:
                    continue
                members.append(z)
        if not members:
            raise FnError("empty pullback domain")
        domain = finite_set(grp, members)
        return table_fn(domain, [f(a.apply(x)) for x in domain.elements])
    if direction == "pushforward":
        acc = {}
        for u, fu in zip(f.domain.elements, f.values):
            z = a.apply(u)
            acc[z] = fu if z not in acc else ext_min(acc[z], fu)
        domain = finite_set(grp, acc.keys())
        return table_fn(domain, [acc[z] for z in domain.elements])
    raise FnError(f"unknown transport direction {direction!r}")


# -- quasiconvex envelope --------------------------------------------------


def qconv_envelope(f: TableFn, ts) -> TableFn:
    """Largest quasiconvex (w.r.t. every endo in ts) minorant of f.

    Monotone lowering to a fixed point; values stay in the original value
    lattice, so the iteration terminates.
    """
    combos = []  # (iz, ix, iy)
    for t in ts:
        rows = combo_table(f.domain, t)
        rep = _convexity_report(f.domain, t, rows)
        if not rep.verdict:
            raise FnError(f"domain not T-convex for {t}: {rep.witness}")
        combos.extend(
            (iz, ix, iy) for ix, row in enumerate(rows) for iy, iz in enumerate(row)
        )
    # only max and <= are taken, so values run as their ranks in the order
    levels = sorted(set(f.values), key=_ext_sort_key)
    rank = {v: i for i, v in enumerate(levels)}
    vals = [rank[v] for v in f.values]
    changed = True
    while changed:
        changed = False
        for iz, ix, iy in combos:
            cap = max(vals[ix], vals[iy])
            if vals[iz] > cap:
                vals[iz] = cap
                changed = True
    return table_fn(f.domain, [levels[r] for r in vals])


# -- parameter intervals ---------------------------------------------------


def convexity_interval(
    f, t_endo: Endo, mode: str = "convex", probes: int = 1000, seed: int = 0
) -> Interval:
    """The closed interval of t making f (T,t)-convex (or -affine),
    as the intersection of per-pair half-line constraints in t."""
    if mode not in ("convex", "affine"):
        raise FnError(f"unknown interval mode {mode!r}")
    f = _tabulated(f)
    if isinstance(f, TableFn):
        if any(v is NEG_INF for v in f.values):
            if all(v is NEG_INF for v in f.values):
                return Interval.full()
            raise FnError("mixed -inf/finite values make the interval ill defined")
        rows = combo_table(f.domain, t_endo)
        if any(None in row for row in rows):
            return Interval.none()
        # the bounds below are ratios of differences, so common scaling cancels
        _, v = _scaled(f.values)
        triples = (
            (v[ix], v[iy], v[iz])
            for ix, row in enumerate(rows)
            for iy, iz in enumerate(row)
        )
    else:
        conv, draws, den = _sampled_convexity(f.domain, t_endo, probes, seed)
        if not conv.verdict:
            return Interval.none()
        form = f.integer_form()  # one positive scale for every value
        triples = ((form(x, den), form(y, den), form(z, den)) for x, y, z, _ in draws)
    interval = Interval.full()
    for fx, fy, fz in triples:
        # fz <= t*fx + (1-t)*fy  <=>  t*(fx - fy) >= fz - fy
        if fx == fy:
            if fz > fy if mode == "convex" else fz != fy:
                return Interval.none()
            continue
        bound = Fraction(fz - fy, fx - fy)
        if mode == "affine":
            interval = interval.intersect_point(bound)
        elif fx > fy:
            interval = interval.intersect_lower(bound)
        else:
            interval = interval.intersect_upper(bound)
        if interval.empty:
            return interval
    return interval


# -- epigraph / graph lifts ------------------------------------------------


def lift_check(
    f: TableFn,
    pair: ConvexPair,
    mode: str = "epigraph",
    value_step: Fraction = Fraction(1),
    grid_layers: int = 4,
) -> Report:
    """Check (T,t)-convexity of the lifted set over a bounded value grid
    and cross-validate against the direct inequality check."""
    if not f.is_finite_valued():
        raise FnError("lift check needs finite values")
    value_step = Fraction(value_step)
    if value_step <= 0:
        raise FnError("value grid step must be positive")
    t = pair.t
    if mode == "epigraph":
        layers, direct_kind = grid_layers + 1, TTCONVEX
    elif mode == "graph":
        layers, direct_kind = 1, TT_AFFINE
    else:
        raise FnError(f"unknown lift mode {mode!r}")
    direct = check_inequality(direct_kind, f, pair)  # raises unless D is T-convex
    rows = combo_table(f.domain, pair.endo)
    elems = f.domain.elements
    points = [(ix, v + i * value_step) for ix, v in enumerate(f.values) for i in range(layers)]
    witness = None
    for ix, u in points:
        for iy, v in points:
            fz, zu = f.values[rows[ix][iy]], t * u + (1 - t) * v
            if not (ext_le(fz, zu) if mode == "epigraph" else fz == zu):
                witness = {
                    "lifted_x": [list(map(str, elems[ix].coords)), format_ext(u)],
                    "lifted_y": [list(map(str, elems[iy].coords)), format_ext(v)],
                    "combo_value": format_ext(zu),
                }
                break
        if witness:
            break
    agree = direct.verdict == (witness is None)
    return Report(
        f"lift:{mode}",
        witness is None,
        EXHAUSTIVE,
        witness=witness,
        details={"direct_verdict": direct.verdict, "equivalence_agrees": agree},
    )


# -- pointwise combinators -------------------------------------------------


def pointwise(op: str, fns, scalar=None) -> TableFn:
    if not fns:
        raise FnError("need at least one function")
    domain = fns[0].domain
    for fn in fns[1:]:
        if fn.domain.elements != domain.elements:
            raise FnError("pointwise operations need a common domain")
    cols = list(zip(*(fn.values for fn in fns)))
    if op == "sup":
        vals = [max(col, key=_ext_sort_key) for col in cols]
    elif op == "inf":
        vals = [min(col, key=_ext_sort_key) for col in cols]
    elif op == "limit":
        vals = list(fns[-1].values)
    elif op == "add":
        vals = [_ext_sum(col) for col in cols]
    elif op == "scale":
        if scalar is None or Fraction(scalar) < 0:
            raise FnError("scale needs a nonnegative scalar")
        vals = [ext_scale(Fraction(scalar), v) for v in fns[0].values]
    elif op == "shift":
        if scalar is None:
            raise FnError("shift needs a scalar")
        vals = [ext_add(v, Fraction(scalar)) for v in fns[0].values]
    else:
        raise FnError(f"unknown pointwise op {op!r}")
    return table_fn(domain, vals)


def _ext_sort_key(v):
    return (0, 0) if v is NEG_INF else (1, v)


def _ext_sum(col):
    acc = Fraction(0)
    for v in col:
        acc = ext_add(acc, v)
    return acc


# -- serialization ---------------------------------------------------------


def serialize_fn(f) -> dict:
    from .rationals import format_rational
    from .sets import serialize_ground_set

    if isinstance(f, TableFn):
        return {
            "kind": "table",
            "domain": serialize_ground_set(f.domain),
            "values": [format_ext(v) for v in f.values],
        }
    return {
        "kind": "quadratic",
        "domain": serialize_ground_set(f.domain),
        "Q": [[format_rational(e) for e in row] for row in f.q],
        "b": [format_rational(e) for e in f.b],
        "c": format_rational(f.c),
    }


def deserialize_fn(g: GroupSpec, data: dict):
    from .rationals import parse_rational
    from .sets import deserialize_ground_set

    domain = deserialize_ground_set(g, data["domain"])
    if data["kind"] == "table":
        return table_fn(domain, [parse_ext(v) for v in data["values"]])
    if data["kind"] == "quadratic":
        return QuadraticFn(
            domain,
            tuple(tuple(parse_rational(e) for e in row) for row in data["Q"]),
            tuple(parse_rational(e) for e in data["b"]),
            parse_rational(data["c"]),
        )
    raise FnError(f"unknown function kind {data['kind']!r}")
