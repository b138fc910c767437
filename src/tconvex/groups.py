"""Metric Abelian group families, element arithmetic and group scalars.

Supported carriers:

* ``cyclic``  -- Z_{m_1} x ... x Z_{m_r} with coordinates reduced to [0, m_i)
* ``lattice`` -- Z^r with plain integer coordinates
* ``nadic``   -- Z[1/N]^r, coordinates are rationals whose denominators
  divide a power of N

Each group carries a translation-invariant metric built coordinatewise
from a norm kind (lee / abs / discrete) and positive rational weights,
aggregated as a weighted sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import parse_rational

CYCLIC = "cyclic"
LATTICE = "lattice"
NADIC = "nadic"

LEE = "lee"
ABS = "abs"
DISCRETE = "discrete"


class GroupError(ValueError):
    pass


def is_smooth(n: int, base: int) -> bool:
    """True iff every prime factor of n divides base (n != 0)."""
    n = abs(n)
    if n == 0:
        return False
    g = math.gcd(n, base)
    while g > 1:
        n //= g
        g = math.gcd(n, base)
    return n == 1


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    weights: tuple

    def __post_init__(self):
        if self.kind not in (LEE, ABS, DISCRETE):
            raise GroupError(f"unknown metric kind {self.kind!r}")
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise GroupError("metric weights must be positive")
        object.__setattr__(self, "weights", ws)


@dataclass(frozen=True)
class GroupSpec:
    family: str
    metric: MetricSpec
    moduli: tuple = ()
    rank: int = 0
    base: int = 0

    def __post_init__(self):
        if self.family == CYCLIC:
            mods = tuple(int(m) for m in self.moduli)
            if not mods or any(m < 2 for m in mods):
                raise GroupError("cyclic moduli must all be >= 2")
            object.__setattr__(self, "moduli", mods)
            object.__setattr__(self, "rank", len(mods))
            if self.metric.kind == ABS:
                raise GroupError("abs metric is not defined on cyclic groups")
        elif self.family == LATTICE:
            if self.rank < 1:
                raise GroupError("lattice rank must be >= 1")
            if self.metric.kind == LEE:
                raise GroupError("lee metric requires a cyclic group")
        elif self.family == NADIC:
            if self.rank < 1 or self.base < 2:
                raise GroupError("nadic group needs rank >= 1 and base >= 2")
            if self.metric.kind == LEE:
                raise GroupError("lee metric requires a cyclic group")
        else:
            raise GroupError(f"unknown family {self.family!r}")
        if len(self.metric.weights) != self.rank:
            raise GroupError("metric weight count must equal the rank")

    # -- carrier ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.family == CYCLIC

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise GroupError("infinite carrier has no order")
        return math.prod(self.moduli)

    @property
    def exponent(self) -> int:
        if not self.is_finite:
            raise GroupError("infinite carrier has no exponent")
        return math.lcm(*self.moduli)

    def elements(self):
        """Iterate the full carrier (finite families only)."""
        if not self.is_finite:
            raise GroupError("cannot enumerate an infinite carrier")
        for coords in itertools.product(*(range(m) for m in self.moduli)):
            yield Element(self, coords)

    def zero(self) -> "Element":
        return self.reduce([0] * self.rank)

    def generators(self):
        zero = [Fraction(0)] * self.rank
        out = []
        for i in range(self.rank):
            raw = list(zero)
            raw[i] = Fraction(1)
            out.append(self.reduce(raw))
        return out

    # -- element construction and arithmetic ------------------------------

    def reduce(self, raw) -> "Element":
        """Canonicalize a raw scalar vector into an Element."""
        raw = list(raw)
        if len(raw) != self.rank:
            raise GroupError(f"expected {self.rank} coordinates, got {len(raw)}")
        if self.family == CYCLIC:
            coords = []
            for c, m in zip(raw, self.moduli):
                c = Fraction(c)
                if c.denominator != 1:
                    raise GroupError("cyclic coordinates must be integers")
                coords.append(int(c) % m)
            return Element(self, tuple(coords))
        if self.family == LATTICE:
            coords = []
            for c in raw:
                c = Fraction(c)
                if c.denominator != 1:
                    raise GroupError("lattice coordinates must be integers")
                coords.append(int(c))
            return Element(self, tuple(coords))
        coords = []
        for c in raw:
            c = Fraction(c)
            if not is_smooth(c.denominator, self.base) and c.denominator != 1:
                raise GroupError(
                    f"denominator {c.denominator} is not a power-of-{self.base} divisor"
                )
            coords.append(c)
        return Element(self, tuple(coords))

    def contains_scalar(self, c: Fraction) -> bool:
        """Whether a rational is a valid coordinate of this group's scalar ring."""
        if self.family == CYCLIC or self.family == LATTICE:
            return c.denominator == 1
        return c.denominator == 1 or is_smooth(c.denominator, self.base)

    def add(self, x: "Element", y: "Element") -> "Element":
        self._check(x)
        self._check(y)
        return self.reduce([a + b for a, b in zip(x.coords, y.coords)])

    def neg(self, x: "Element") -> "Element":
        self._check(x)
        return self.reduce([-a for a in x.coords])

    def sub(self, x: "Element", y: "Element") -> "Element":
        return self.add(x, self.neg(y))

    def scalar_mul(self, k: int, x: "Element") -> "Element":
        """k-fold sum for k >= 1, zero for k = 0, negation-composed for k < 0."""
        self._check(x)
        return self.reduce([k * a for a in x.coords])

    def _check(self, x: "Element"):
        if x.group != self:
            raise GroupError("element belongs to a different group")

    # -- metric ------------------------------------------------------------

    def dnorm(self, x: "Element") -> Fraction:
        self._check(x)
        total = Fraction(0)
        for i, (c, w) in enumerate(zip(x.coords, self.metric.weights)):
            if self.metric.kind == LEE:
                m = self.moduli[i]
                total += w * min(c, m - c)
            elif self.metric.kind == ABS:
                total += w * abs(c)
            else:
                total += w * (0 if c == 0 else 1)
        return total


@dataclass(frozen=True)
class Element:
    group: GroupSpec = field(repr=False)
    coords: tuple

    def __repr__(self):
        return f"El{self.coords}"


# -- group scalars ---------------------------------------------------------


def mu_d(g: GroupSpec, n: int, mode: str = "exact") -> Fraction:
    """Measure of injectivity of x -> n*x: largest mu with
    mu*|x| <= |n*x| for all x; zero when the map is not injective."""
    return _dilation_ratio(g, n, mode, want_min=True)


def n_norm(g: GroupSpec, n: int, mode: str = "exact") -> Fraction:
    """Smallest c with |n*x| <= c*|x| for all x."""
    return _dilation_ratio(g, n, mode, want_min=False)


def _dilation_ratio(g: GroupSpec, n: int, mode: str, want_min: bool) -> Fraction:
    """The least (or greatest) |n*x| / |x| over x != 0: n itself for abs
    metrics in exact mode, otherwise enumerated over a finite carrier."""
    if n < 1:
        raise GroupError("n must be a positive integer")
    if mode == "exact":
        if g.metric.kind == ABS:
            return Fraction(n)
        if not g.is_finite:
            raise GroupError("no exact formula for this family/metric combination")
    elif mode != "enumerated":
        raise GroupError(f"unknown mode {mode!r}")
    elif not g.is_finite:
        raise GroupError("enumerated mode requires a finite carrier")
    best = None
    for x in g.elements():
        nx_ = g.dnorm(x)
        if nx_ == 0:
            continue
        ratio = g.dnorm(g.scalar_mul(n, x)) / nx_
        if best is None or (ratio < best if want_min else ratio > best):
            best = ratio
    if best is None:
        # trivial group; the map is bijective with unit constants
        return Fraction(1)
    return best


def divisible_by(g: GroupSpec, n: int):
    """Whether multiplication by n is a bijection; returns (flag, witness).

    The witness describes the inverse map: per-coordinate multipliers on
    cyclic products, the rational 1/n on N-adic modules, None otherwise.
    """
    if n < 1:
        raise GroupError("n must be a positive integer")
    if n == 1:
        return True, "identity"
    if g.family == CYCLIC:
        if any(math.gcd(n, m) != 1 for m in g.moduli):
            return False, None
        return True, [pow(n, -1, m) for m in g.moduli]
    if g.family == LATTICE:
        return False, None
    if is_smooth(n, g.base):
        return True, Fraction(1, n)
    return False, None


def serialize_group(g: GroupSpec) -> dict:
    from .rationals import format_rational

    metric = {
        "kind": g.metric.kind,
        "weights": [format_rational(w) for w in g.metric.weights],
    }
    if g.family == CYCLIC:
        return {"family": "cyclic", "moduli": list(g.moduli), "metric": metric}
    if g.family == LATTICE:
        return {"family": "lattice", "rank": g.rank, "metric": metric}
    return {"family": "nadic", "base": g.base, "rank": g.rank, "metric": metric}


def _json_int(data: dict, name: str) -> int:
    """A field that must be a JSON integer: floats, bools and strings are
    rejected rather than truncated."""
    value = data[name]
    if type(value) is not int:
        raise GroupError(f"{name} must be an integer, got {value!r}")
    return value


def deserialize_group(data: dict) -> GroupSpec:
    metric = MetricSpec(
        kind=data["metric"]["kind"],
        weights=tuple(parse_rational(w) for w in data["metric"]["weights"]),
    )
    family = data["family"]
    if family == "cyclic":
        moduli = data["moduli"]
        if not isinstance(moduli, list) or any(type(m) is not int for m in moduli):
            raise GroupError(f"moduli must be a list of integers, got {moduli!r}")
        return GroupSpec(family=CYCLIC, metric=metric, moduli=tuple(moduli))
    if family == "lattice":
        return GroupSpec(family=LATTICE, metric=metric, rank=_json_int(data, "rank"))
    if family == "nadic":
        return GroupSpec(
            family=NADIC, metric=metric, base=_json_int(data, "base"),
            rank=_json_int(data, "rank"),
        )
    raise GroupError(f"unknown family {family!r}")


def cyclic_group(*moduli, kind=LEE, weights=None) -> GroupSpec:
    weights = weights or [Fraction(1)] * len(moduli)
    return GroupSpec(
        family=CYCLIC, metric=MetricSpec(kind, tuple(weights)), moduli=tuple(moduli)
    )


def lattice_group(rank: int, kind=ABS, weights=None) -> GroupSpec:
    weights = weights or [Fraction(1)] * rank
    return GroupSpec(family=LATTICE, metric=MetricSpec(kind, tuple(weights)), rank=rank)


def nadic_group(base: int, rank: int = 1, kind=ABS, weights=None) -> GroupSpec:
    weights = weights or [Fraction(1)] * rank
    return GroupSpec(
        family=NADIC, metric=MetricSpec(kind, tuple(weights)), base=base, rank=rank
    )
