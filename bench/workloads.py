"""The three benchmark workloads: seeded inputs, one request at a time, and
the output check for each request.

Every workload is a closed loop with one client.  Its inputs are plain
data (integers, strings, JSON text) made by the benchmark's own
``random.Random`` from the workload seed; ``tconvex.generators`` is not
used.  Library objects that several requests share (carriers, domains,
endomorphisms) are built once in set-up; objects that belong to one
request (tables, subsets, JSON documents) are built inside the timed
request, so work the library does in its constructors is timed either
way.

A round is a fixed multiset of request classes whose random content
changes from round to round and seed to seed.  Runs execute whole
rounds, so every seed runs the same mix and costs stay comparable.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import oracle

KINDS = (
    oracle.QUASICONVEX,
    oracle.WRIGHT,
    oracle.TTCONVEX,
    oracle.WRIGHT_AFFINE,
    oracle.TT_AFFINE,
)


def round_rng(seed, workload, index):
    # string seeds are hashed with SHA-512, so they are stable across processes
    return random.Random(f"{workload}:{seed}:{index}")


class Strata:
    """Per-seed rotations of the golden-ratio sequences: the n-th point of
    a key's sequence is ((a + n*g1) mod 1, (b + n*g2) mod 1).  Any run of
    consecutive rounds covers [0, 1) evenly whatever the seed, so runs of
    different seeds do the same amount of work."""

    G1 = (5**0.5 - 1) / 2
    G2 = 2**0.5 - 1

    def __init__(self, rng):
        self.rng = rng
        self.offsets = {}

    def point(self, key, n):
        if key not in self.offsets:
            self.offsets[key] = (self.rng.random(), self.rng.random())
        a, b = self.offsets[key]
        return ((a + n * self.G1) % 1.0, (b + n * self.G2) % 1.0)


# ==========================================================================
# finite-checks
# ==========================================================================
#
# Slots of the (domain, endo) pool: (rank, |D|, endo shape, requests per
# round).  The counts give a skewed popularity; the small and medium
# domains are the popular ones.  The last two slots are the ROADMAP anchor
# shapes: a TT-convex check on all of Z_80 and a Wright check on Z_8 x Z_8,
# both passing (about 0.4 s each); their four requests straddle p90.
FINITE_SLOTS = (
    (1, 24, "proj", 6),
    (1, 36, "proj", 4),
    (2, 16, "proj", 4),
    (1, 20, "generic", 3),
    (1, 48, "proj", 3),
    (2, 32, "proj", 3),
    (1, 30, "proj", 2),
    (1, 40, "generic", 2),
    (2, 24, "generic", 2),
    (1, 56, "proj", 2),
    (1, 18, "proj", 2),
    (2, 36, "proj", 2),
    (1, 60, "generic", 1),
    (1, 72, "proj", 1),
    (1, 96, "proj", 1),
    (2, 48, "proj", 1),
    (1, 28, "generic", 1),
    (1, 45, "proj", 1),
    (1, 16, "generic", 1),
    (2, 64, "generic", 1),
    (1, 90, "generic", 1),
    (1, 44, "proj", 1),
    (1, 80, "anchor-tt", 2),
    (2, 64, "anchor-wright", 2),
)

# Request classes cycled over the requests of each slot, starting at the
# slot's index.  Checks are 40% of the cycle.  Every round has the same
# composition, so runs that stop after different numbers of rounds still
# run the same mix.
FINITE_CYCLE = ("check", "tconvex", "check", "envelope", "interval", "check",
                "internal", "check", "envelope", "tconvex")
ENVELOPE_MAX = 48  # larger domains get a check instead of an envelope

RANK2_CARRIERS = {
    16: ((4, 4, 1), (2, 8, 1), (8, 8, 2)),
    24: ((4, 6, 1), (2, 12, 1), (3, 8, 1)),
    32: ((4, 8, 1), (2, 16, 1)),
    36: ((6, 6, 1), (3, 12, 1)),
    48: ((4, 12, 1), (6, 8, 1)),
    64: ((8, 8, 1), (4, 16, 1)),
}

LEVEL_CHAINS = ((4, 2, 1), (6, 3, 1), (6, 2, 1), (8, 4, 2, 1), (9, 3, 1),
                (10, 5, 1), (12, 4, 1), (12, 6, 2, 1))


def _valid_entry_steps(moduli):
    return [[mi // math.gcd(mi, mj) for mj in moduli] for mi in moduli]


def _random_endo(rng, moduli):
    steps = _valid_entry_steps(moduli)
    r = len(moduli)
    while True:
        t = [[rng.randrange(0, moduli[i], steps[i][j]) for j in range(r)] for i in range(r)]
        ident = [[int(i == j) for j in range(r)] for i in range(r)]
        zero = [[0] * r for _ in range(r)]
        if t != ident and t != zero:
            return t


def _projection(rng, moduli, k, size):
    """A nontrivial idempotent endo that acts nontrivially on k*G."""
    if len(moduli) == 1:
        m = moduli[0]
        choices = [e for e in range(2, m) if e * e % m == e and e % size not in (0, 1)]
        return [[rng.choice(choices)]] if choices else None
    a, b = moduli
    if rng.random() < 0.5:
        u = rng.randrange(0, a, a // math.gcd(a, b))
        return [[1, u], [0, 0]]
    v = rng.randrange(0, b, b // math.gcd(a, b))
    return [[0, 0], [v, 1]]


def _finite_slot(rng, rank, size, shape):
    """Carrier moduli, coset domain c + kG (sorted coords) and endo matrix."""
    anchor = shape.startswith("anchor")
    while True:
        if rank == 1:
            k = 1 if anchor else rng.choice((1, 2, 3))
            moduli = (k * size,)
        else:
            a, b, k = (8, 8, 1) if anchor else rng.choice(RANK2_CARRIERS[size])
            moduli = (a, b)
        if shape == "generic":
            t = _random_endo(rng, moduli)
        else:
            t = _projection(rng, moduli, k, size)
            if t is None:
                continue
        c = tuple(rng.randrange(k) for _ in moduli)
        ranges = [range(m // k) for m in moduli]
        elems = sorted(
            tuple((ci + k * u) % m for ci, u, m in zip(c, us, moduli))
            for us in itertools.product(*ranges)
        )
        return {"moduli": moduli, "k": k, "coset": c, "elements": elems, "endo": t}


def _in_multiple(moduli, q, w):
    return all(wi % math.gcd(q, m) == 0 for wi, m in zip(w, moduli))


def _level_values(rng, slot):
    """Quasiconvex for every endo: levels are cosets of nested subgroups qG."""
    moduli, k, c = slot["moduli"], slot["k"], slot["coset"]
    chain = rng.choice(LEVEL_CHAINS)
    levels = sorted(rng.sample(range(0, 9), len(chain)))
    out = []
    for x in slot["elements"]:
        w = tuple((xi - ci) % m for xi, ci, m in zip(x, c, moduli))
        j = next(j for j, d in enumerate(chain) if _in_multiple(moduli, k * d, w))
        out.append(levels[j])
    return out


def _split_values(rng, slot, parts):
    """f = g(Tx) + h((I-T)x) over the parts requested ('T', 'I-T')."""
    moduli, t = slot["moduli"], slot["endo"]
    zero = (0,) * len(moduli)
    g, h = {}, {}
    out = []
    for x in slot["elements"]:
        v = 0
        if "T" in parts:  # Tx = Tx + (I-T)0
            v += g.setdefault(oracle.combine(moduli, t, x, zero), rng.randint(0, 4))
        if "I-T" in parts:
            v += h.setdefault(oracle.combine(moduli, t, zero, x), rng.randint(0, 4))
        out.append(v)
    return out


def _perturb(rng, values):
    """Break the inequality at one seeded point."""
    out = list(values)
    i = rng.randrange(len(out))
    out[i] = max(out) + 7
    return out


def _finite_check_request(rng, slot, kind, passing):
    t = Fraction(1, 2)
    if kind == oracle.QUASICONVEX:
        values = _level_values(rng, slot)
    elif kind in (oracle.WRIGHT, oracle.WRIGHT_AFFINE):
        values = _split_values(rng, slot, ("T", "I-T"))
    elif rng.random() < 0.5:
        values, t = _split_values(rng, slot, ("T",)), Fraction(1)
    else:
        values, t = _split_values(rng, slot, ("I-T",)), Fraction(0)
    if not passing:
        values = _perturb(rng, values)
    return {"op": "check", "kind": kind, "t": str(t), "values": values}


def _finite_request(rng, slot, shape, cls, serial, kinds):
    """The ``serial``-th request of its class in a round; its parity decides
    pass or fail.  Checks on projections take their kind from ``kinds``."""
    passing = serial % 2 == 0
    size = len(slot["elements"])
    if shape == "anchor-tt":
        return _finite_check_request(rng, slot, oracle.TTCONVEX, True)
    if shape == "anchor-wright":
        return _finite_check_request(rng, slot, oracle.WRIGHT, True)
    if cls == "envelope" and size > ENVELOPE_MAX:
        cls = "check"
    if cls == "check":
        kind = next(kinds) if shape == "proj" else oracle.QUASICONVEX
        return _finite_check_request(rng, slot, kind, passing)
    if cls == "interval":
        if shape == "proj":
            values = _split_values(rng, slot, ("T",))
            if not passing:
                values = _perturb(rng, values)
        else:
            values = _level_values(rng, slot)
        return {"op": "interval", "mode": "convex" if serial % 4 < 2 else "affine",
                "values": values}
    if cls == "envelope":
        extra = [_random_endo(rng, slot["moduli"])] if serial % 2 else []
        return {"op": "envelope", "extra": extra,
                "values": [rng.randint(0, 3) for _ in range(size)]}
    if cls == "tconvex":
        return {"op": "tconvex", "drop": None if passing else rng.randrange(size)}
    return {"op": "internal", "p": rng.randrange(size)}


class FiniteChecks:
    name = "finite-checks"

    def __init__(self, seed, rounds):
        rng = round_rng(seed, self.name, "pool")
        self.slots = [_finite_slot(rng, rank, size, shape)
                      for rank, size, shape, _ in FINITE_SLOTS]
        self.plan = []
        for r in range(rounds):
            rrng = round_rng(seed, self.name, r)
            batch = []
            serials = dict.fromkeys(FINITE_CYCLE, 0)
            kinds = itertools.cycle(KINDS)
            for s, (_, _, shape, count) in enumerate(FINITE_SLOTS):
                for j in range(count):
                    cls = FINITE_CYCLE[(s + j) % len(FINITE_CYCLE)]
                    req = _finite_request(rrng, self.slots[s], shape, cls, serials[cls],
                                          kinds)
                    serials[cls] += 1
                    req["slot"] = s
                    batch.append(req)
            rrng.shuffle(batch)
            self.plan.append(batch)
        self._kernels = {}

    def inputs(self):
        return {"slots": self.slots, "plan": self.plan}

    def bind(self, tc):
        """Build the shared library objects (set-up)."""
        self.tc = tc
        self.lib = []
        for slot in self.slots:
            g = tc.cyclic_group(*slot["moduli"])
            elems = [g.reduce(list(x)) for x in slot["elements"]]
            self.lib.append({
                "group": g,
                "elements": elems,
                "domain": tc.finite_set(g, elems),
                "endo": tc.validate_endo(g, slot["endo"]),
            })

    @staticmethod
    def label(req):
        return req["op"] if req["op"] != "check" else f"check:{req['kind']}"

    def ops(self, req, out):
        return 1

    def execute(self, req):
        tc = self.tc
        lib = self.lib[req["slot"]]
        op = req["op"]
        if op == "check":
            f = tc.table_fn(lib["domain"], req["values"])
            pair = tc.ConvexPair(lib["endo"], Fraction(req["t"]))
            return tc.check_inequality(req["kind"], f, pair)
        if op == "interval":
            f = tc.table_fn(lib["domain"], req["values"])
            return tc.convexity_interval(f, lib["endo"], mode=req["mode"])
        if op == "envelope":
            g = lib["group"]
            ts = [lib["endo"]] + [tc.validate_endo(g, m) for m in req["extra"]]
            return tc.qconv_envelope(tc.table_fn(lib["domain"], req["values"]), ts)
        if op == "tconvex":
            drop = req["drop"]
            elems = [e for i, e in enumerate(lib["elements"]) if i != drop]
            return tc.is_T_convex(tc.finite_set(lib["group"], elems), lib["endo"])
        return tc.internal_points(lib["domain"], lib["endo"], lib["elements"][req["p"]])

    def _kernel(self, s, endo=None):
        slot = self.slots[s]
        key = (s, json.dumps(endo))
        if key not in self._kernels:
            self._kernels[key] = oracle.PairKernel(
                slot["moduli"], slot["elements"], endo or slot["endo"])
        return self._kernels[key]

    def check(self, req, out):
        s = req["slot"]
        slot = self.slots[s]
        kern = self._kernel(s)
        op = req["op"]
        if op == "check":
            t = Fraction(req["t"])
            want = oracle.inequality_holds(kern, req["kind"], t, req["values"])
            if out.verdict != want:
                return f"verdict {out.verdict}, expected {want}"
            if out.mode != "exhaustive":
                return f"mode {out.mode} on a finite table"
            if not out.verdict:
                table = {x: Fraction(v) for x, v in zip(slot["elements"], req["values"])}
                return oracle.check_inequality_witness(
                    slot["moduli"], slot["endo"], req["kind"], t, table, out.witness)
            return None
        if op == "interval":
            want = oracle.interval(kern, req["values"], req["mode"])
            got = None if out.empty else (out.lower, out.upper)
            return None if got == want else f"interval {got}, expected {want}"
        if op == "envelope":
            kernels = [kern] + [self._kernel(s, m) for m in req["extra"]]
            want = [Fraction(v) for v in oracle.envelope(kernels, req["values"])]
            return None if list(out.values) == want else "envelope differs from the fixpoint"
        if op == "tconvex":
            drop = req["drop"]
            members = {e for i, e in enumerate(slot["elements"]) if i != drop}
            want = oracle.PairKernel(slot["moduli"], sorted(members), slot["endo"]).is_convex()
            if out.verdict != want:
                return f"verdict {out.verdict}, expected {want}"
            if not out.verdict:
                return oracle.check_pair_witness(slot["moduli"], slot["endo"], members,
                                                 out.witness)
            return None
        closure = oracle.internal_closure(kern, req["p"])
        verdict, rest = out
        if len(closure) == len(slot["elements"]):
            return None if (verdict, rest) == ("internal", None) else f"got {verdict}"
        if verdict != "not-internal":
            return f"got {verdict}, expected not-internal"
        got = {tuple(int(c) for c in e.coords) for e in rest.elements}
        return None if got == closure else "absorbing set differs"


# ==========================================================================
# campaign
# ==========================================================================

CAMPAIGN_CAP = 25
# Suites whose case count does not grow with the cap: the count they reach.
CAMPAIGN_FIXED = {"norm-axioms": 4, "mu-bounds": 12, "midpoint-convexity": 2,
                  "kuhn-chain": 8}
SUITES = (
    "norm-axioms", "mu-bounds", "ring-laws", "spectral-neumann",
    "midpoint-convexity", "semigroup-combination", "closure-generated",
    "compose-quasi", "compose-wright", "compose-convex", "compose-affine",
    "closure-quasi", "closure-wright", "closure-convex", "closure-affine",
    "prop-ls", "envelope-oracle", "wright-grid", "last-coefficients",
    "kuhn-chain", "twa-roundtrip", "rode-support", "radstrom", "hconv",
)


# Extra calls per round, each with a fresh suite seed.  The weights put each
# reported percentile inside a band of calls to one suite whose latency
# barely depends on the seed: six rode-support calls (about 13 ms) straddle
# p50 and five hconv calls (about 72 ms) straddle p90.  The cheap compose
# and closure-wright calls below p50 and the 40-50 ms suites between the
# bands balance the counts on either side.
CAMPAIGN_EXTRA = {
    "rode-support": 5, "hconv": 4,
    "compose-quasi": 2, "compose-wright": 2, "compose-affine": 2, "compose-convex": 2,
    "closure-wright": 1, "twa-roundtrip": 1, "last-coefficients": 1, "envelope-oracle": 1,
}


class Campaign:
    name = "campaign"

    def __init__(self, seed, rounds):
        self.plan = []
        for r in range(rounds):
            rng = round_rng(seed, self.name, r)
            batch = [{"op": "suite", "suite": s, "seed": rng.randrange(2**31),
                      "cases": CAMPAIGN_CAP}
                     for s in SUITES for _ in range(1 + CAMPAIGN_EXTRA.get(s, 0))]
            rng.shuffle(batch)
            self.plan.append(batch)

    def inputs(self):
        return {"plan": self.plan}

    def bind(self, tc):
        self.tc = tc

    @staticmethod
    def label(req):
        return req["suite"]

    def ops(self, req, out):
        if out is None:
            return CAMPAIGN_FIXED.get(req["suite"], req["cases"])
        return out.cases

    def execute(self, req):
        config = self.tc.SuiteConfig(req["suite"], seed=req["seed"],
                                     caps={"cases": req["cases"]})
        return self.tc.run_suite(config)

    def check(self, req, out):
        want = CAMPAIGN_FIXED.get(req["suite"], req["cases"])
        if out.cases < want:
            return f"{out.cases} cases, expected at least {want}"
        if out.alarms:
            return f"{len(out.alarms)} alarms"
        bad = sum(1 for r in out.results if not r["verdict"])
        return f"{bad} false verdicts" if bad else None


# ==========================================================================
# certify
# ==========================================================================

# Requests per round.  The mix puts each reported percentile inside a
# dense, tight group of requests instead of on a jump between two classes:
# about 60% of requests are CLI-bound (derive, nilpotent spectral, rank-1
# support, about 1 ms), so p50 falls inside that group; the six rank-2
# supports at the centre of the 7x7 window (about 330 ms) straddle p90,
# with the rank-3 centre support and the largest spectral entries above.
# Spectral entries are stratified over [10^10.5, 10^15].
CERTIFY_MIX = (
    ("support-r1", 16),
    ("support-r2", 3),
    ("support-r2-7x7", 6),
    ("support-r3", 2),
    ("spectral", 12),
    ("spectral-nilpotent", 2),
    ("derive-wright-ratio", 5),
    ("derive-last", 5),
    ("derive-kuhn", 5),
    ("decompose", 3),
    ("check-quadratic", 3),
)
SPECTRAL_EXP = (10.5, 15)
SMOOTH_T = {2: (2, 4, 8), 3: (3, 9), 6: (2, 3, 4, 6, 9, 12), 10: (2, 4, 5, 10)}


def _lat(rank):
    return {"family": "lattice", "rank": rank,
            "metric": {"kind": "abs", "weights": ["1"] * rank}}


def _nad(base, rank):
    return {"family": "nadic", "base": base, "rank": rank,
            "metric": {"kind": "abs", "weights": ["1"] * rank}}


def _is_smooth(n, base):
    n = abs(n)
    if n == 0:
        return False
    g = math.gcd(n, base)
    while g > 1:
        n //= g
        g = math.gcd(n, base)
    return n == 1


def _unit(q, base):
    return _is_smooth(q.numerator, base) and _is_smooth(q.denominator, base)


def _primes(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _psd(rng, rank):
    """Symmetric and diagonally dominant, hence positive semidefinite."""
    q = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        q[i][i] = rng.randint(max(1, rank - 1), 3)
        for j in range(i):
            q[i][j] = q[j][i] = rng.randint(-1, 1)
    return q


def _quad_table(rng, points, rank):
    q = _psd(rng, rank)
    b = [rng.randint(-3, 3) for _ in range(rank)]
    c = rng.randint(-5, 5)
    return [sum(x[i] * q[i][j] * x[j] for i in range(rank) for j in range(rank))
            + sum(bi * xi for bi, xi in zip(b, x)) + c for x in points]


def _window(half_widths):
    return [tuple(p) for p in itertools.product(*(range(-w, w + 1) for w in half_widths))]


def _table_doc(points, values):
    return {"kind": "table",
            "domain": {"kind": "finite", "elements": [[str(c) for c in p] for p in points]},
            "values": [str(v) for v in values]}


def _support(rng, half_widths, p):
    rank = len(half_widths)
    points = _window(half_widths)
    values = _quad_table(rng, points, rank)
    doc = {"group": _lat(rank), "fn": _table_doc(points, values),
           "p": [str(c) for c in p]}
    return {"argv": ["support", "--input", "-"], "doc": doc,
            "expect": {"points": points, "values": values, "p": list(p)}}


def _spectral(rng, stratum, strata, q):
    lo, hi = SPECTRAL_EXP
    u = lo + (hi - lo) * (stratum + q) / strata
    big = int(10 ** u) * rng.choice((1, -1))
    m = [[big, rng.randint(-9, 9)], [rng.randint(-9, 9), rng.randint(-9, 9)]]
    if rng.random() < 0.5:
        m = [[m[1][1], m[1][0]], [m[0][1], m[0][0]]]
    return m


def _nilpotent(rng):
    u, v = rng.randint(1, 10**6), rng.randint(1, 10**6) * rng.choice((1, -1))
    return [[u * v, u * u], [-v * v, -u * v]]


def _smooth_t(rng, base):
    q = rng.choice(SMOOTH_T[base])
    return Fraction(rng.randint(1, q - 1), q)


def _scaled(t, rank):
    return [[str(t) if i == j else "0" for j in range(rank)] for i in range(rank)]


def _pick(seq, q):
    return seq[int(q * len(seq))]


def _certify_request(rng, cls, j, q):
    """Request j of its class in a round.  ``q`` is a point of a per-seed
    low-discrepancy sequence in [0, 1)^2: the parameters that set a
    request's cost follow it, so every run covers their range evenly."""
    if cls == "support-r1":
        w = _pick((4, 5, 6, 7, 8), q[0])
        return _support(rng, (w,), (rng.randint(-w, w),))
    if cls == "support-r2":
        hw = _pick(((1, 1), (1, 2), (2, 1), (2, 2)), q[0])
        return _support(rng, hw, _pick(_window(hw), q[1]))
    if cls == "support-r2-7x7":
        return _support(rng, (3, 3), (0, 0))
    if cls == "support-r3":
        corners = list(itertools.product((-1, 1), repeat=3))
        return _support(rng, (1, 1, 1), (0, 0, 0) if j == 0 else _pick(corners, q[0]))
    if cls in ("spectral", "spectral-nilpotent"):
        m = _spectral(rng, j, 12, q[0]) if cls == "spectral" else _nilpotent(rng)
        doc = {"group": _lat(2), "endo": {"matrix": [[str(e) for e in r] for r in m]}}
        return {"argv": ["spectral", "--input", "-"], "doc": doc, "expect": {"matrix": m}}
    if cls == "derive-wright-ratio":
        while True:
            base, rank = rng.choice((2, 3, 6, 10)), rng.randint(1, 2)
            t = _smooth_t(rng, base)
            n, k = rng.randint(1, 3), rng.randint(1, 3)
            if _unit(n * t + k * (1 - t), base) and _is_smooth(n + k, base):
                break
        doc = {"group": _nad(base, rank), "endo": {"matrix": _scaled(t, rank)},
               "t": str(t), "n": n, "k": k}
        return {"argv": ["derive", "--rule", "wright-ratio", "--input", "-"], "doc": doc,
                "expect": {"matrix": _scaled(t, rank), "n": n, "k": k}}
    if cls == "derive-last":
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        ts = []
        for _ in range(n):
            q = rng.randint(2, 12)
            ts.append(Fraction(rng.randint(1, q - 1), q))
        s_vals = []
        for j in range(n + 1):
            v = Fraction(1)
            for idx in range(n):
                v *= ts[idx] if idx < j else 1 - ts[idx]
            s_vals.append(v)
        primes = {2}
        for q in ts + [1 - t for t in ts] + [sum(s_vals)]:
            primes |= _primes(q.numerator) | _primes(q.denominator)
        base = math.prod(primes)
        pairs = [(_scaled(t, 1), str(t)) for t in ts]
        doc = {"group": _nad(base, 1), "k": k,
               "pairs": [{"endo": {"matrix": m}, "t": t} for m, t in pairs]}
        return {"argv": ["derive", "--rule", "last", "--input", "-"], "doc": doc,
                "expect": {"pairs": pairs, "k": k}}
    if cls == "derive-kuhn":
        base = rng.choice((6, 10, 30))
        n = rng.choice([d for d in range(2, 13) if _is_smooth(d, base)])
        rank = rng.randint(1, 2)
        t = _smooth_t(rng, 6 if base == 30 else base)
        doc = {"group": _nad(base, rank), "endo": {"matrix": _scaled(t, rank)},
               "t": str(t), "n": n}
        return {"argv": ["derive", "--rule", "kuhn", "--input", "-"], "doc": doc,
                "expect": {"n": n, "rank": rank}}
    if cls == "decompose":
        rank = 1 if j < 2 else 2  # two rank-1 windows, then the 5x5 window
        hw = (_pick((3, 4, 5, 6), q[0]),) if rank == 1 else (2, 2)
        points = _window(hw)
        b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        b = [[b[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)]
        a = [rng.randint(-4, 4) for _ in range(rank)]
        c = rng.randint(-5, 5)
        values = [sum(x[i] * b[i][j] * x[j] for i in range(rank) for j in range(rank))
                  + sum(ai * xi for ai, xi in zip(a, x)) + c for x in points]
        doc = {"group": _lat(rank), "fn": _table_doc(points, values)}
        return {"argv": ["decompose", "--mode", "wright", "--input", "-"], "doc": doc,
                "expect": {"points": points, "values": values}}
    # check-quadratic: sampled check of a quadratic on an N-adic box
    base, rank = rng.choice((2, 3, 6)), 1 + j // 2
    t = _smooth_t(rng, base)
    convex = j % 2 == 0
    qm = _psd(rng, rank)
    if not convex:
        qm = [[-e for e in row] for row in qm]
    kind = rng.choice((oracle.TTCONVEX, oracle.WRIGHT, oracle.QUASICONVEX)) if convex \
        else oracle.TTCONVEX
    b = [rng.randint(-2, 2) for _ in range(rank)]
    c = rng.randint(-3, 3)
    hi = rng.randint(1, 2)
    fn = {"kind": "quadratic",
          "domain": {"kind": "box", "lower": ["0"] * rank, "upper": [str(hi)] * rank},
          "Q": [[str(e) for e in row] for row in qm], "b": [str(e) for e in b], "c": str(c)}
    doc = {"group": _nad(base, rank), "fn": fn, "endo": {"matrix": _scaled(t, rank)},
           "t": str(t)}
    argv = ["check", "--kind", kind, "--fn", "-", "--endo", "-",
            "--budget", str(100 + int(100 * q[0])), "--seed", str(rng.randrange(1000))]
    return {"argv": argv, "doc": doc,
            "expect": {"convex": convex, "kind": kind, "t": str(t), "q": qm, "b": b,
                       "c": c}}


class _ReplayStdin:
    """Stand-in for standard input that returns the whole payload on every
    read, so the two ``-`` paths of ``tconvex check`` see the same document."""

    def __init__(self, text):
        self.text = text

    def read(self, *_):
        return self.text


class Certify:
    name = "certify"

    def __init__(self, seed, rounds):
        self.plan = []
        strata = Strata(round_rng(seed, self.name, "strata"))
        for r in range(rounds):
            rng = round_rng(seed, self.name, r)
            batch = []
            for cls, count in CERTIFY_MIX:
                for j in range(count):
                    req = _certify_request(rng, cls, j, strata.point((cls, j), r))
                    req["cls"] = cls
                    req["stdin"] = json.dumps(req.pop("doc"))
                    batch.append(req)
            rng.shuffle(batch)
            self.plan.append(batch)

    def inputs(self):
        return {"plan": self.plan}

    def bind(self, tc):
        self.cli = tc.cli

    @staticmethod
    def label(req):
        return req["cls"]

    def ops(self, req, out):
        return 1

    def execute(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            saved, sys.stdin = sys.stdin, _ReplayStdin(req["stdin"])
            try:
                code = self.cli.cli_dispatch(req["argv"])
            finally:
                sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def check(self, req, out):
        code, text, err = out
        cls, exp = req["cls"], req["expect"]
        want_code = 1 if cls == "check-quadratic" and not exp["convex"] else 0
        if code != want_code:
            return f"exit {code}, expected {want_code}: {err.strip()[:200]}"
        doc = json.loads(text)
        if cls.startswith("support"):
            if doc.get("status") != "certificate":
                return "no certificate"
            return oracle.check_support(exp["points"], exp["values"], exp["p"], doc)
        if cls.startswith("spectral"):
            if cls == "spectral-nilpotent" and not doc["spectral"]["nilpotent"]:
                return "nilpotent matrix without a nilpotency certificate"
            return oracle.check_spectral(exp["matrix"], doc)
        if cls == "derive-wright-ratio":
            return oracle.check_wright_ratio(exp["matrix"], exp["n"], exp["k"],
                                             doc["derived"][0])
        if cls == "derive-last":
            return oracle.check_last(exp["pairs"], exp["k"], doc["derived"][0])
        if cls == "derive-kuhn":
            return oracle.check_kuhn(exp["n"], exp["rank"], doc["derived"])
        if cls == "decompose":
            return oracle.check_decomposition(exp["points"], exp["values"], doc)
        if exp["convex"]:
            return None if doc["verdict"] else "convex quadratic reported as violating"
        if doc["verdict"]:
            return "strictly concave quadratic passed a t-convexity check"
        q = [[Fraction(e) for e in row] for row in exp["q"]]
        b = [Fraction(e) for e in exp["b"]]
        return oracle.check_quadratic_witness(exp["kind"], q, b, Fraction(exp["c"]),
                                              Fraction(exp["t"]), doc["witness"])


WORKLOADS = {w.name: w for w in (FiniteChecks, Campaign, Certify)}
