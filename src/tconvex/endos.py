"""Endomorphisms of the supported groups as exact scalar matrices.

Provides the ring operations, the d-operator norm, the certified
spectral-radius bound, Neumann inversion, exact full inverses, partial
right inverses and the midpoint recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .groups import CYCLIC, LATTICE, NADIC, ABS, GroupSpec, Element, GroupError, is_smooth
from .rationals import format_rational


class EndoError(ValueError):
    pass


class IllFormed(EndoError):
    def __init__(self, row, col, message):
        super().__init__(message)
        self.row = row
        self.col = col


class NotInvertible(EndoError):
    pass


class NotCertified(EndoError):
    pass


@dataclass(frozen=True)
class Endo:
    group: GroupSpec = field(repr=False)
    matrix: tuple

    def __repr__(self):
        return f"Endo{[[format_rational(e) for e in row] for row in self.matrix]}"

    def apply(self, x: Element) -> Element:
        if x.group != self.group:
            raise EndoError("element belongs to a different group")
        return self.group.reduce(linalg.mat_vec(self.matrix, x.coords))

    def key(self):
        """Canonical hashable form: integer entries reduced modulo the moduli, others kept."""
        if self.group.family == CYCLIC:
            return tuple(
                tuple(int(e) % m if e.denominator == 1 else e for e in row)
                for row, m in zip(self.matrix, self.group.moduli)
            )
        return self.matrix


def validate_endo(g: GroupSpec, matrix) -> Endo:
    """Check the matrix defines a homomorphism on representatives."""
    rows = tuple(tuple(Fraction(e) for e in row) for row in matrix)
    if len(rows) != g.rank or any(len(r) != g.rank for r in rows):
        raise EndoError(f"matrix must be {g.rank}x{g.rank}")
    if g.family == CYCLIC:
        for i, m_i in enumerate(g.moduli):
            for j, m_j in enumerate(g.moduli):
                a = rows[i][j]
                if a.denominator != 1:
                    raise IllFormed(i, j, "cyclic entries must be integers")
                if (int(a) * m_j) % m_i != 0:
                    raise IllFormed(
                        i, j, f"{a}*{m_j} is not 0 mod {m_i}: map ill defined"
                    )
    elif g.family == LATTICE:
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                if a.denominator != 1:
                    raise IllFormed(i, j, "lattice entries must be integers")
    else:
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                if not g.contains_scalar(a):
                    raise IllFormed(
                        i, j, f"entry {a} is not a base-{g.base} adic rational"
                    )
    return Endo(g, rows)


def identity_endo(g: GroupSpec) -> Endo:
    return Endo(g, linalg.identity(g.rank))


def zero_endo(g: GroupSpec) -> Endo:
    return Endo(g, linalg.zeros(g.rank))


def scaled_identity(g: GroupSpec, t) -> Endo:
    return validate_endo(g, linalg.mat_scale(Fraction(t), linalg.identity(g.rank)))


def multiplication_endo(g: GroupSpec, n: int) -> Endo:
    return Endo(g, linalg.mat_scale(n, linalg.identity(g.rank)))


def compose(t: Endo, s: Endo) -> Endo:
    _same_group(t, s)
    return Endo(t.group, linalg.mat_mul(t.matrix, s.matrix))


def add(t: Endo, s: Endo) -> Endo:
    _same_group(t, s)
    return Endo(t.group, linalg.mat_add(t.matrix, s.matrix))


def sub(t: Endo, s: Endo) -> Endo:
    _same_group(t, s)
    return Endo(t.group, linalg.mat_sub(t.matrix, s.matrix))


def complement(t: Endo) -> Endo:
    """The map T -> I - T."""
    return Endo(t.group, linalg.mat_sub(linalg.identity(t.group.rank), t.matrix))


def scale(k, t: Endo) -> Endo:
    """k*T for an integer (or ring-scalar) k."""
    out = Endo(t.group, linalg.mat_scale(k, t.matrix))
    return validate_endo(t.group, out.matrix)


def power(t: Endo, k: int) -> Endo:
    if k < 0:
        raise EndoError("power requires k >= 0")
    result = identity_endo(t.group)
    base = t
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def binary_map(t: Endo, s: Endo) -> Endo:
    """(T, S) -> T.S + (I-T).(I-S), the closure map on convexity semigroups."""
    return add(compose(t, s), compose(complement(t), complement(s)))


def _same_group(t: Endo, s: Endo):
    if t.group != s.group:
        raise EndoError("endomorphisms live on different groups")


# -- operator norm and spectral radius ------------------------------------


def operator_norm(t: Endo) -> Fraction:
    """Smallest c with |T(x)| <= c|x|: exhaustive on finite carriers,
    weighted-column-sum closed form for abs metrics."""
    g = t.group
    if g.family == CYCLIC:
        best = Fraction(0)
        for x in g.elements():
            nx_ = g.dnorm(x)
            if nx_ == 0:
                continue
            best = max(best, g.dnorm(t.apply(x)) / nx_)
        return best
    if g.metric.kind == ABS:
        w = g.metric.weights
        best = Fraction(0)
        for j in range(g.rank):
            col = sum(
                (w[i] * abs(t.matrix[i][j]) for i in range(g.rank)), Fraction(0)
            )
            best = max(best, col / w[j])
        return best
    raise EndoError("operator norm unsupported for this family/metric")


@dataclass(frozen=True)
class SpectralBound:
    upper: Fraction
    certificate: str  # "nilpotent" | "bound"
    index: int  # nilpotency index, or the m_max that was probed

    @property
    def is_nilpotent(self) -> bool:
        return self.certificate == "nilpotent"


_ROOT_SCALE = 10**6


def spectral_radius(t: Endo, m_max: int = 8) -> SpectralBound:
    """Certified upper bound on the d-spectral radius.

    A zero power yields an exact Nilpotent certificate; otherwise the
    minimum over m <= m_max of a rational upper bound on the m-th root of
    |T^m| is returned with a Bound certificate (sound but inconclusive
    for strict hypotheses).
    """
    g = t.group
    best = None
    p = identity_endo(g)
    for m in range(1, m_max + 1):
        p = compose(p, t)
        if linalg.is_zero(p.matrix):
            return SpectralBound(Fraction(0), "nilpotent", m)
        norm = operator_norm(p)
        # rational r >= norm**(1/m): integer m-th root on a scaled value
        scaled = norm.numerator * _ROOT_SCALE**m
        r = linalg.iroot_ceil(-(-scaled // norm.denominator), m)
        bound = Fraction(r, _ROOT_SCALE)
        if best is None or bound < best:
            best = bound
    return SpectralBound(best, "bound", m_max)


def certified_strictly_below(t: Endo, threshold: Fraction, m_max: int = 8) -> bool:
    """True only when rho_d(t) < threshold is certain (nilpotent or
    a root bound below the threshold)."""
    sb = spectral_radius(t, m_max)
    if sb.is_nilpotent:
        return threshold > 0
    return sb.upper < threshold


# -- inversion -------------------------------------------------------------


def neumann_inverse(t: Endo, m_max: int = 16) -> Endo:
    """(I-T)^{-1} via the terminating series or exact ring inversion."""
    g = t.group
    sb = spectral_radius(t, m_max)
    if sb.is_nilpotent:
        acc = identity_endo(g)
        p = identity_endo(g)
        for _ in range(sb.index - 1):
            p = compose(p, t)
            acc = add(acc, p)
        _verify_inverse(complement(t), acc)
        return acc
    if g.family in (LATTICE, NADIC):
        inv = try_inverse(complement(t))
        return inv
    raise NotCertified(
        "no nilpotency certificate and no exact ring inversion route available"
    )


def try_inverse(s: Endo) -> Endo:
    """Exact full inverse of S within the endomorphism ring, or raise."""
    g = s.group
    if g.family == LATTICE:
        d = linalg.det(s.matrix)
        if abs(d) != 1:
            raise NotInvertible(f"lattice matrix determinant {d} is not a unit")
        inv = Endo(g, linalg.mat_inv(s.matrix))
        _verify_inverse(s, inv)
        return inv
    if g.family == NADIC:
        d = linalg.det(s.matrix)
        if d == 0 or not (
            is_smooth(d.numerator, g.base) and is_smooth(d.denominator, g.base)
        ):
            raise NotInvertible(f"determinant {d} is not a unit of Z[1/{g.base}]")
        inv = validate_endo(g, linalg.mat_inv(s.matrix))
        _verify_inverse(s, inv)
        return inv
    # cyclic: construct the inverse from preimages of the generators
    order = g.order
    if order > 10**5:
        raise NotInvertible("carrier too large for exhaustive inversion")
    images = {}
    for x in g.elements():
        y = s.apply(x)
        if y in images:
            raise NotInvertible(f"not injective: {images[y]} and {x} collide")
        images[y] = x
    cols = []
    for gen in g.generators():
        pre = images.get(gen)
        if pre is None:
            raise NotInvertible(f"generator {gen} has no preimage")
        cols.append(pre.coords)
    matrix = tuple(
        tuple(Fraction(cols[j][i]) for j in range(g.rank)) for i in range(g.rank)
    )
    inv = validate_endo(g, matrix)
    _verify_inverse(s, inv)
    return inv


def _verify_inverse(s: Endo, r: Endo):
    g = s.group
    left = compose(s, r)
    right = compose(r, s)
    ident = identity_endo(g)
    if g.family == CYCLIC:
        ok = left.key() == ident.key() and right.key() == ident.key()
    else:
        ok = left.matrix == ident.matrix and right.matrix == ident.matrix
    if not ok:
        raise NotInvertible("inverse verification failed")


@dataclass(frozen=True)
class PartialEndo:
    """A homomorphism defined on the subgroup generated by `generators`.

    Represented by a rational matrix whose entries need not lie in the
    scalar ring; only its action on that subgroup is meaningful.
    """

    group: GroupSpec = field(repr=False)
    matrix: tuple
    generators: tuple

    def apply(self, x: Element) -> Element:
        return self.group.reduce(linalg.mat_vec(self.matrix, x.coords))


class NoSolution(EndoError):
    def __init__(self, generator):
        super().__init__(f"{generator} is not in the image")
        self.generator = generator


def right_inverse_on(s: Endo, generators) -> PartialEndo:
    """A homomorphism S* with S(S*(u)) = u for each supplied generator."""
    g = s.group
    preimages = []
    for u in generators:
        z = _solve_apply(s, u)
        if z is None:
            raise NoSolution(u)
        preimages.append(z)
    # matrix R with R u_i = z_i: unknown entries r_{ab}, rank^2 of them
    r = g.rank
    rows, rhs = [], []
    for u, z in zip(generators, preimages):
        for a in range(r):
            coeffs = [Fraction(0)] * (r * r)
            for b in range(r):
                coeffs[a * r + b] = Fraction(u.coords[b])
            rows.append(coeffs)
            rhs.append(Fraction(z.coords[a]))
    sol = linalg.solve(rows, rhs) if rows else tuple()
    if sol is None:
        raise NoSolution(generators[0])
    matrix = tuple(tuple(sol[a * r + b] for b in range(r)) for a in range(r))
    part = PartialEndo(g, matrix, tuple(generators))
    for u in generators:
        if s.apply(part.apply(u)) != u:
            raise NoSolution(u)
    return part


def _solve_apply(s: Endo, u: Element):
    """One z with S(z) = u, or None."""
    g = s.group
    if g.family == CYCLIC:
        if g.order > 10**5:
            raise EndoError("carrier too large for exhaustive solving")
        for x in g.elements():
            if s.apply(x) == u:
                return x
        return None
    sol = linalg.solve(s.matrix, tuple(Fraction(c) for c in u.coords))
    if sol is None:
        return None
    try:
        return g.reduce(sol)
    except GroupError:
        return None


def midpoint_recursion(t: Endo, n: int) -> Endo:
    """T_1 = T, T_{n+1} = T_n^2 + (I - T_n)^2."""
    if n < 1:
        raise EndoError("n must be positive")
    cur = t
    for _ in range(n - 1):
        cur = add(compose(cur, cur), compose(complement(cur), complement(cur)))
    return cur


def serialize_endo(t: Endo) -> dict:
    return {"matrix": [[format_rational(e) for e in row] for row in t.matrix]}


def deserialize_endo(g: GroupSpec, data: dict) -> Endo:
    from .rationals import parse_rational

    return validate_endo(
        g, [[parse_rational(e) for e in row] for row in data["matrix"]]
    )
