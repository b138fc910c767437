"""T-convexity and n-convexity of sets, the convexity semigroup of a set,
Radstrom cancellation with hypothesis audit, and T-internality."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le, mul

from .endos import (
    Endo, EndoError, binary_map, complement, compose, identity_endo, validate_endo, zero_endo,
)
from .groups import CYCLIC, NADIC, GroupSpec, Element, GroupError, mu_d
from .rationals import format_rational, parse_rational
from .report import EXHAUSTIVE, FAILED, SAMPLED, VERIFIED, Report

FINITE = "finite"
BOX = "box"

DEFAULT_PAIR_BUDGET = 1000
# box draws lie on the base^-SAMPLE_EXP grid
SAMPLE_EXP = 6
DEFAULT_FIXPOINT_BUDGET = 10**4
DEFAULT_ENDO_CAP = 10**4
SUMSET_CAP = 10**5
# pair entries held by the combo_table memo, summed over its tables
COMBO_MEMO_ENTRIES = 1 << 16


class SetError(ValueError):
    pass


@dataclass(frozen=True)
class GroundSet:
    group: GroupSpec = field(repr=False)
    kind: str
    elements: tuple = ()  # finite representation, deduplicated + sorted
    lower: tuple = ()  # box corners (nadic only)
    upper: tuple = ()
    # finite sets: coords -> position in elements, built once
    index: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == FINITE:
            elems = tuple(sorted(set(self.elements), key=lambda e: e.coords))
            object.__setattr__(self, "elements", elems)
            object.__setattr__(self, "index", {e.coords: i for i, e in enumerate(elems)})
        elif self.kind == BOX:
            if self.group.family != NADIC:
                raise SetError("box sets are supported on N-adic modules only")
            lo = tuple(Fraction(c) for c in self.lower)
            hi = tuple(Fraction(c) for c in self.upper)
            if len(lo) != self.group.rank or len(hi) != self.group.rank:
                raise SetError("box corners must match the group rank")
            if any(a > b for a, b in zip(lo, hi)):
                raise SetError("box lower corner must not exceed the upper corner")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        else:
            raise SetError(f"unknown ground-set kind {self.kind!r}")

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def __contains__(self, x: Element) -> bool:
        if x.group != self.group:
            return False
        if self.kind == FINITE:
            return x.coords in self.index
        return all(a <= c <= b for a, c, b in zip(self.lower, x.coords, self.upper))


def finite_set(group: GroupSpec, elements) -> GroundSet:
    return GroundSet(group, FINITE, elements=tuple(elements))


def box_set(group: GroupSpec, lower, upper) -> GroundSet:
    return GroundSet(group, BOX, lower=tuple(lower), upper=tuple(upper))


def whole_group_set(group: GroupSpec) -> GroundSet:
    return finite_set(group, group.elements())


@dataclass
class EndoSet:
    members: list
    provenance: dict = field(default_factory=dict)  # key -> derivation string
    truncated: bool = False

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def keys(self):
        return {t.key() for t in self.members}


# -- convexity checks ------------------------------------------------------


def combo_table(d: GroundSet, t: Endo) -> tuple:
    """Row ix, column iy: the index in D of T(x) + (I-T)(y) for the ix-th
    and iy-th elements of D, or None when that point leaves D.

    T and I-T are applied once per element; the pair sums are reduced on
    plain coordinate tuples and looked up in the domain's index.  Tables
    are shared through a memo keyed by the group, the coordinates of D in
    order and the endo's matrix, so rows are tuples.
    """
    if not d.is_finite:
        raise SetError("combination tables need an explicit finite domain")
    g = d.group
    key = (g, tuple(d.index), t.matrix)
    rows = _COMBO_MEMO.tables.get(key)
    if rows is not None and t.group == g:  # an endo of another group fails below
        return rows
    it = complement(t)
    images = [t.apply(x).coords for x in d.elements]
    columns = list(zip(*(it.apply(y).coords for y in d.elements)))
    mods = g.moduli if g.family == CYCLIC else (None,) * g.rank
    get = d.index.get
    rows = []
    for u in images:
        sums = [[(a + b) % m for b in col] if m else [a + b for b in col]
                for a, m, col in zip(u, mods, columns)]
        rows.append(tuple(map(get, zip(*sums))))
    rows = tuple(rows)
    _COMBO_MEMO.store(key, rows)
    return rows


class _TableMemo:
    """Tables by key, oldest first, holding at most limit() entries in total,
    where a table holds size(table) of them; a larger table is not stored,
    an older one is evicted.  The defaults count the pair entries of
    combination tables against COMBO_MEMO_ENTRIES."""

    def __init__(self, limit=lambda: COMBO_MEMO_ENTRIES, size=lambda rows: len(rows) ** 2):
        self.tables = {}
        self.entries = 0
        self.limit, self.size = limit, size

    def store(self, key, rows):
        size, limit = self.size(rows), self.limit()
        if size > limit:
            return
        while self.entries + size > limit:
            self.entries -= self.size(self.tables.pop(next(iter(self.tables))))
        self.tables[key] = rows
        self.entries += size


_COMBO_MEMO = _TableMemo()


def _convexity_report(d: GroundSet, t: Endo, rows) -> Report:
    """The exhaustive is_T_convex report read off a combination table."""
    for ix, row in enumerate(rows):
        if None in row:
            x, y = d.elements[ix], d.elements[row.index(None)]
            z = d.group.add(t.apply(x), complement(t).apply(y))
            return Report("is_T_convex", False, EXHAUSTIVE, witness=_pair_witness(x, y, z))
    return Report("is_T_convex", True, EXHAUSTIVE)


def is_T_convex(
    d: GroundSet, t: Endo, probes: int = DEFAULT_PAIR_BUDGET, seed: int = 0
) -> Report:
    """T(x) + (I-T)(y) stays in D for all pairs; exhaustive on finite D,
    sampled on boxes."""
    if d.is_finite:
        return _convexity_report(d, t, combo_table(d, t))
    return _sampled_convexity(d, t, probes, seed)[0]


def _sampled_convexity(d: GroundSet, t: Endo, probes: int, seed: int):
    """is_T_convex(d, t, probes, seed) on a box, the pairs drawn from
    Random(seed) up to the first z = Tx + (I-T)y outside D as integer
    numerator tuples (x, y, z, w), w = (I-T)x + Ty, and their common
    denominator.

    Each coordinate draws an exponent e in [0, SAMPLE_EXP], then a multiple
    of base^-e in the box; with T = Tn/tden the denominator is
    base^SAMPLE_EXP * tden, z = y + Tn(x - y)/tden exactly, and membership
    is an integer compare.  A box with no multiple of base^-e in some
    coordinate interval, for some e, raises SetError before the first draw."""
    if probes < 1:
        raise SetError("a sampled verdict needs at least one probe")
    rng = random.Random(seed)
    g = d.group
    if t.group != g:
        raise EndoError("element belongs to a different group")
    for row in t.matrix:
        g.reduce(row)  # an entry outside Z[1/N] raises GroupError here
    tden = math.lcm(*(e.denominator for row in t.matrix for e in row))
    tn = [[(e * tden).numerator for e in row] for row in t.matrix]
    den = g.base**SAMPLE_EXP * tden
    lower = [(c * den).__ceil__() for c in d.lower]
    upper = [(c * den).__floor__() for c in d.upper]
    # per coordinate and exponent e: the range of k with k/base^e in the box
    # and the factor taking k to a numerator over den
    grids = [[((lo * g.base**e).__ceil__(), (hi * g.base**e).__floor__(), den // g.base**e)
              for e in range(SAMPLE_EXP + 1)] for lo, hi in zip(d.lower, d.upper)]
    for i, grid in enumerate(grids):
        for e, (kmin, kmax, _) in enumerate(grid):
            if kmin > kmax:
                raise SetError(
                    f"box [{', '.join(map(format_rational, d.lower))}] to "
                    f"[{', '.join(map(format_rational, d.upper))}] holds no multiple "
                    f"of {g.base}^-e for e = {e} in coordinate {i}, so it cannot be sampled")
    randint, draws = rng.randint, []

    def point():
        out = []
        for grid in grids:
            kmin, kmax, step = grid[randint(0, SAMPLE_EXP)]
            out.append(randint(kmin, kmax) * step)
        return tuple(out)

    report = Report("is_T_convex", True, SAMPLED, details={"probes": probes})
    for i in range(probes):
        x, y = point(), point()
        diff = [a - b for a, b in zip(x, y)]
        z = tuple([b + sum(map(mul, row, diff)) // tden for b, row in zip(y, tn)])
        if not (all(map(le, lower, z)) and all(map(le, z, upper))):
            report = Report("is_T_convex", False, SAMPLED, details={"probes": i + 1},
                            witness=_pair_witness(*(_element(g, n, den) for n in (x, y, z))))
            break
        draws.append((x, y, z, tuple([a + b - c for a, b, c in zip(x, y, z)])))
    return report, draws, den


def _element(g: GroupSpec, nums, den: int) -> Element:
    """The element with coordinates nums / den."""
    return g.reduce([Fraction(n, den) for n in nums])


def _pair_witness(x, y, z):
    return {"x": list(map(str, x.coords)), "y": list(map(str, y.coords)),
            "z": list(map(str, z.coords))}


def is_n_convex(a: GroundSet, n: int, sumset_cap: int = SUMSET_CAP) -> Report:
    """{n*x : x in A} equals the n-fold sumset of A."""
    if n < 1:
        raise SetError("n must be positive")
    g = a.group
    if not a.is_finite:
        # boxes are n-convex for every n: both sides equal the scaled box
        return Report("is_n_convex", True, EXHAUSTIVE,
                      details={"route": "box closed form"})
    dil = {g.scalar_mul(n, x) for x in a.elements}
    sumset = {g.zero()}
    for _ in range(n):
        new = set()
        for s in sumset:
            for x in a.elements:
                new.add(g.add(s, x))
                if len(new) > sumset_cap:
                    raise SetError("sumset size cap exceeded")
        sumset = new
    if dil == sumset:
        return Report("is_n_convex", True, EXHAUSTIVE)
    diff = sumset - dil
    if diff:
        w = next(iter(diff))
        side = "sumset minus dilation"
    else:
        w = next(iter(dil - sumset))
        side = "dilation minus sumset"
    return Report("is_n_convex", False, EXHAUSTIVE,
                  witness={"element": list(map(str, w.coords)), "side": side})


def valid_endo_matrices(g: GroupSpec, cap: int = DEFAULT_ENDO_CAP):
    """All valid endo matrices of a cyclic product (entries reduced)."""
    if g.family != CYCLIC:
        raise SetError("endo enumeration needs a finite cyclic product")
    choices = []
    for i, m_i in enumerate(g.moduli):
        for j, m_j in enumerate(g.moduli):
            step = m_i // math.gcd(m_i, m_j)
            choices.append(range(0, m_i, step))
    count = 1
    for c in choices:
        count *= len(c)
        if count > cap:
            raise SetError(f"endo count exceeds cap {cap}")
    r = g.rank
    for flat in itertools.product(*choices):
        yield tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r))


def enumerate_TD(d: GroundSet, cap: int = DEFAULT_ENDO_CAP) -> EndoSet:
    """Exactly the valid endomorphisms T making D T-convex (exhaustive)."""
    g = d.group
    members = []
    prov = {}
    for matrix in valid_endo_matrices(g, cap):
        t = validate_endo(g, matrix)
        if is_T_convex(d, t).verdict:
            members.append(t)
            prov[t.key()] = "seed"
    return EndoSet(members, prov)


def closure_generate(g: GroupSpec, seed_endos, budget: int = 256) -> EndoSet:
    """Least set containing the seeds and {0, I} closed under composition,
    complement and (T,S) -> T.S + (I-T).(I-S), truncated at budget."""
    members = {}
    prov = {}

    def register(t: Endo, how: str) -> bool:
        k = t.key()
        if k in members:
            return False
        members[k] = t
        prov[k] = how
        return True

    register(zero_endo(g), "zero")
    register(identity_endo(g), "identity")
    for t in seed_endos:
        register(t, "seed")
    truncated = False
    frontier = True
    while frontier and not truncated:
        frontier = False
        snapshot = list(members.values())
        for t in snapshot:
            if register(complement(t), f"complement({prov[t.key()]})"):
                frontier = True
            if len(members) >= budget:
                truncated = True
                break
        if truncated:
            break
        for t in snapshot:
            for s in snapshot:
                if register(compose(t, s), f"compose({prov[t.key()]},{prov[s.key()]})"):
                    frontier = True
                if register(
                    binary_map(t, s), f"binmap({prov[t.key()]},{prov[s.key()]})"
                ):
                    frontier = True
                if len(members) >= budget:
                    truncated = True
                    break
            if truncated:
                break
    return EndoSet(list(members.values()), prov, truncated=truncated)


# -- Radstrom cancellation -------------------------------------------------


def radstrom_check(a: GroundSet, b: GroundSet, c: GroundSet, n0: int) -> Report:
    """Audit the cancellation hypotheses, test A+C <= B+C, and when both
    pass assert the conclusion A <= B (a violation is a theorem alarm)."""
    g = a.group
    if not a.is_finite or not c.is_finite or not c.elements:
        raise SetError("A and C must be explicit finite, C nonempty")
    audit = []
    try:
        mu = mu_d(g, n0, mode="exact" if g.metric.kind == "abs" else "enumerated")
        audit.append((f"mu_d({n0}) > 1", VERIFIED if mu > 1 else FAILED))
    except GroupError:
        audit.append((f"mu_d({n0}) > 1", FAILED))
        mu = None
    audit.append(("B closed", VERIFIED))  # both representations are closed
    nrep = is_n_convex(b, n0)
    audit.append((f"B {n0}-convex", VERIFIED if nrep.verdict else FAILED))
    audit.append(("C bounded nonempty", VERIFIED))
    rep = Report("radstrom_check", True, EXHAUSTIVE, audit=audit)
    if any(status == FAILED for _, status in audit):
        rep.verdict = False
        rep.details["conclusion_asserted"] = False
        return rep
    # A + C subset of B + C ?
    def in_b_plus_c(x):
        return any(g.sub(x, ce) in b for ce in c.elements)

    for ae in a.elements:
        for ce in c.elements:
            s = g.add(ae, ce)
            if not in_b_plus_c(s):
                rep.details["conclusion_asserted"] = False
                rep.details["premise"] = "A+C not contained in B+C"
                rep.witness = {"sum": list(map(str, s.coords))}
                return rep
    rep.details["conclusion_asserted"] = True
    for ae in a.elements:
        if ae not in b:
            rep.verdict = False
            rep.witness = {
                "alarm": "cancellation conclusion violated",
                "element": list(map(str, ae.coords)),
            }
            return rep
    return rep


# -- T-internality ---------------------------------------------------------


def internal_points(
    d: GroundSet, t: Endo, p: Element, budget: int = DEFAULT_FIXPOINT_BUDGET
):
    """Run the absorbing-set recursion from {p}; returns a verdict string
    plus the stabilized set when proper."""
    if p not in d:
        raise SetError("p must lie in D")
    if not d.is_finite:
        return "inconclusive", None
    e = {d.index[p.coords]}
    inserts = 0
    changed = True
    pairs = [
        (ix, iy, iz)
        for ix, row in enumerate(combo_table(d, t))
        for iy, iz in enumerate(row)
        if iz is not None
    ]
    while changed:
        changed = False
        for ix, iy, iz in pairs:
            if iz in e:
                for w in (ix, iy):
                    if w not in e:
                        e.add(w)
                        inserts += 1
                        changed = True
                        if inserts > budget:
                            return "inconclusive", None
    if len(e) == len(d.elements):
        return "internal", None
    return "not-internal", finite_set(d.group, [d.elements[i] for i in e])


# -- serialization ---------------------------------------------------------


def serialize_ground_set(s: GroundSet) -> dict:
    if s.is_finite:
        return {
            "kind": "finite",
            "elements": [[format_rational(Fraction(c)) for c in e.coords]
                         for e in s.elements],
        }
    return {
        "kind": "box",
        "lower": [format_rational(c) for c in s.lower],
        "upper": [format_rational(c) for c in s.upper],
    }


def deserialize_ground_set(g: GroupSpec, data: dict) -> GroundSet:
    if data["kind"] == "finite":
        elems = [g.reduce([parse_rational(c) for c in row]) for row in data["elements"]]
        return finite_set(g, elems)
    if data["kind"] == "box":
        return box_set(
            g,
            [parse_rational(c) for c in data["lower"]],
            [parse_rational(c) for c in data["upper"]],
        )
    raise SetError(f"unknown ground-set kind {data['kind']!r}")
