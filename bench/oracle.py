"""Independent re-derivation of every output the benchmark checks.

Nothing here imports tconvex.  Finite carriers are handled with plain
integer coordinates and integer value tables; certificates are rechecked
with ``fractions.Fraction`` and, for spectral bounds only, a float
estimate.  Every check returns ``None`` when the output is right and a
short reason string when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

QUASICONVEX = "quasiconvex"
WRIGHT = "wright"
TTCONVEX = "ttconvex"
WRIGHT_AFFINE = "wright_affine"
TT_AFFINE = "tt_affine"


# -- finite carriers ---------------------------------------------------------


def combine(moduli, t, x, y):
    """T(x) + (I - T)(y) on Z_{m_1} x ... x Z_{m_r}, T an integer matrix."""
    r = len(moduli)
    return tuple(
        sum(t[i][j] * x[j] + ((i == j) - t[i][j]) * y[j] for j in range(r)) % moduli[i]
        for i in range(r)
    )


class PairKernel:
    """Integer pair table of one (domain, endo): for every (x, y) in D x D
    the index of z1 = Tx + (I-T)y and z2 = (I-T)x + Ty, or -1 outside D."""

    def __init__(self, moduli, elements, t):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.z1 = [[0] * n for _ in range(n)]
        self.z2 = [[0] * n for _ in range(n)]
        for ix, x in enumerate(self.elements):
            for iy, y in enumerate(self.elements):
                self.z1[ix][iy] = self.index.get(combine(moduli, t, x, y), -1)
                self.z2[ix][iy] = self.index.get(combine(moduli, t, y, x), -1)

    def is_convex(self):
        return all(z >= 0 for row in self.z1 for z in row)


def violates(kind, t, fx, fy, fz1, fz2):
    """Whether one pair violates the inequality (values are Fractions)."""
    if kind == QUASICONVEX:
        return fz1 > max(fx, fy)
    if kind == WRIGHT:
        return fz1 + fz2 > fx + fy
    if kind == WRIGHT_AFFINE:
        return fz1 + fz2 != fx + fy
    if kind == TTCONVEX:
        return fz1 > t * fx + (1 - t) * fy
    if kind == TT_AFFINE:
        return fz1 != t * fx + (1 - t) * fy
    raise ValueError(f"unknown kind {kind!r}")


def scaled_violation(kind, p, q):
    """Integer form of ``violates`` for t = p/q, values scaled by q."""
    if kind == QUASICONVEX:
        return lambda fx, fy, z1, z2: z1 > (fx if fx > fy else fy)
    if kind == WRIGHT:
        return lambda fx, fy, z1, z2: z1 + z2 > fx + fy
    if kind == WRIGHT_AFFINE:
        return lambda fx, fy, z1, z2: z1 + z2 != fx + fy
    if kind == TTCONVEX:
        return lambda fx, fy, z1, z2: q * z1 > p * fx + (q - p) * fy
    if kind == TT_AFFINE:
        return lambda fx, fy, z1, z2: q * z1 != p * fx + (q - p) * fy
    raise ValueError(f"unknown kind {kind!r}")


def inequality_holds(kernel, kind, t, values):
    """Verdict of one inequality over all of D x D (integer values)."""
    bad = scaled_violation(kind, t.numerator, t.denominator)
    v = values
    for ix, row1 in enumerate(kernel.z1):
        fx = v[ix]
        row2 = kernel.z2[ix]
        for iy, iz in enumerate(row1):
            if bad(fx, v[iy], v[iz], v[row2[iy]]):
                return False
    return True


def envelope(kernels, values):
    """Largest minorant quasiconvex for every kernel: the integer fixpoint of
    v[z] <- min(v[z], max(v[x], v[y]))."""
    v = list(values)
    changed = True
    while changed:
        changed = False
        for k in kernels:
            for ix, row in enumerate(k.z1):
                vx = v[ix]
                for iy, iz in enumerate(row):
                    cap = vx if vx > v[iy] else v[iy]
                    if v[iz] > cap:
                        v[iz] = cap
                        changed = True
    return v


def interval(kernel, values, mode):
    """Closed set of t in [0, 1] keeping f (T, t)-convex (or affine);
    None when empty, else (lower, upper)."""
    lo, hi = Fraction(0), Fraction(1)
    v = values
    for ix, row in enumerate(kernel.z1):
        fx = v[ix]
        for iy, iz in enumerate(row):
            fy, fz = v[iy], v[iz]
            if fx == fy:
                if (fz > fy) if mode == "convex" else (fz != fy):
                    return None
                continue
            bound = Fraction(fz - fy, fx - fy)
            if mode == "affine":
                lo, hi = max(lo, bound), min(hi, bound)
            elif fx > fy:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
            if lo > hi:
                return None
    return lo, hi


def internal_closure(kernel, ip):
    """Least set containing p with x, y in it whenever Tx + (I-T)y is."""
    n = len(kernel.elements)
    inside = [False] * n
    inside[ip] = True
    changed = True
    while changed:
        changed = False
        for ix, row in enumerate(kernel.z1):
            for iy, iz in enumerate(row):
                if inside[iz] and not (inside[ix] and inside[iy]):
                    inside[ix] = inside[iy] = True
                    changed = True
    return {kernel.elements[i] for i in range(n) if inside[i]}


# -- witnesses -----------------------------------------------------------------


def parse_q(s):
    return Fraction(str(s))


def check_pair_witness(moduli, t, members, witness):
    """A failed T-convexity verdict: x, y in the set and z = Tx+(I-T)y outside."""
    x = tuple(int(c) for c in witness["x"])
    y = tuple(int(c) for c in witness["y"])
    z = tuple(int(c) for c in witness["z"])
    if x not in members or y not in members:
        return "witness x or y outside the set"
    if combine(moduli, t, x, y) != z:
        return "witness z is not Tx + (I-T)y"
    if z in members:
        return "witness z lies inside the set"
    return None


def check_inequality_witness(moduli, t_mat, kind, t, table, witness):
    """A failed inequality verdict: the witness pair must really violate it."""
    x = tuple(int(c) for c in witness["x"])
    y = tuple(int(c) for c in witness["y"])
    if x not in table or y not in table:
        return "witness x or y outside the domain"
    z1 = combine(moduli, t_mat, x, y)
    z2 = combine(moduli, t_mat, y, x)
    if tuple(int(c) for c in witness["z"]) != z1:
        return "witness z is not Tx + (I-T)y"
    fz2 = table.get(z2, Fraction(0))
    if not violates(kind, t, table[x], table[y], table[z1], fz2):
        return "witness pair does not violate the inequality"
    return None


# -- certificates ----------------------------------------------------------------


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_lin(ca, a, cb, b):
    return [[ca * x + cb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def parse_matrix(rows):
    return [[parse_q(e) for e in row] for row in rows]


def check_support(points, values, p, cert):
    """Affine support A.x + c: touches f at p and stays below f on the window."""
    a = [parse_q(w) for w in cert["A"]]
    c = parse_q(cert["c"])
    if [parse_q(v) for v in cert["p"]] != list(p):
        return "certificate is for another point"
    table = dict(zip(points, values))
    if sum(w * x for w, x in zip(a, p)) + c != table[tuple(p)]:
        return "certificate does not touch f at p"
    for x, fx in table.items():
        if sum(w * xi for w, xi in zip(a, x)) + c > fx:
            return f"certificate exceeds f at {x}"
    return None


def float_spectral_radius(m):
    """Largest eigenvalue modulus of a real 2x2 matrix."""
    a, b, c, d = (float(m[0][0]), float(m[0][1]), float(m[1][0]), float(m[1][1]))
    tr, det = a + d, a * d - b * c
    disc = tr * tr / 4 - det
    if disc >= 0:
        r = math.sqrt(disc)
        return max(abs(tr / 2 + r), abs(tr / 2 - r))
    return math.sqrt(det)


def check_spectral(matrix, out):
    """Operator norm is the weighted column sum; a nilpotent certificate
    holds by integer powers; a bound is not below the float radius."""
    m = [[int(e) for e in row] for row in matrix]
    n = len(m)
    norm = max(sum(abs(m[i][j]) for i in range(n)) for j in range(n))
    if parse_q(out["operator_norm"]) != norm:
        return "operator norm is not the column-sum norm"
    spec = out["spectral"]
    if spec["nilpotent"]:
        k = int(spec["index"])
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for step in range(1, k + 1):
            power = mat_mul(power, m)
            zero = all(e == 0 for row in power for e in row)
            if zero != (step == k):
                return f"T^{step} is {'' if zero else 'not '}zero for index {k}"
        if parse_q(spec["upper"]) != 0:
            return "nilpotent certificate with a nonzero bound"
        return None
    rho = float_spectral_radius(m)
    upper = parse_q(spec["upper"])
    if float(upper) < rho * (1 - 1e-9):
        return f"bound {float(upper)} is below the float radius {rho}"
    if all(e == 0 for row in mat_mul(m, m) for e in row):
        return "bound certificate for a nilpotent matrix"
    return None


def check_wright_ratio(t_matrix, n, k, derived):
    """(S^{-1} . nT, n/(n+k)) with S = nT + k(I-T): S.R = n.T."""
    t = parse_matrix(t_matrix)
    r = parse_matrix(derived["endo"])
    dim = len(t)
    s = mat_lin(n, t, k, mat_lin(1, identity(dim), -1, t))
    if parse_q(derived["t"]) != Fraction(n, n + k):
        return "ratio parameter is not n/(n+k)"
    if mat_mul(s, r) != mat_lin(n, t, 0, t):
        return "S.R differs from n.T"
    return None


def check_last(pairs, k, derived):
    """Telescoping rule: (sum S_j) . R = sum_{j>=k} S_j and the parameter is
    the matching share of the coefficients s_j."""
    endos = [parse_matrix(m) for m, _ in pairs]
    ts = [parse_q(t) for _, t in pairs]
    n = len(pairs)
    dim = len(endos[0])
    s_list, sc_list = [], []
    for j in range(n + 1):
        acc, val = identity(dim), Fraction(1)
        for idx in range(n):
            if idx < j:
                acc, val = mat_mul(acc, endos[idx]), val * ts[idx]
            else:
                comp = mat_lin(1, identity(dim), -1, endos[idx])
                acc, val = mat_mul(acc, comp), val * (1 - ts[idx])
        s_list.append(acc)
        sc_list.append(val)
    total = s_list[0]
    for e in s_list[1:]:
        total = mat_lin(1, total, 1, e)
    tail = s_list[k]
    for e in s_list[k + 1:]:
        tail = mat_lin(1, tail, 1, e)
    r = parse_matrix(derived["endo"])
    if mat_mul(total, r) != tail:
        return "S.R differs from the tail sum"
    if parse_q(derived["t"]) != sum(sc_list[k:]) / sum(sc_list):
        return "parameter is not the tail share of the coefficients"
    return None


def check_kuhn(n, dim, derived):
    """Division family: n.R_k = k.I with parameter k/n for k = 1..n."""
    if len(derived) != n:
        return f"expected {n} derived pairs, got {len(derived)}"
    for k, d in enumerate(derived, start=1):
        r = parse_matrix(d["endo"])
        if mat_lin(n, r, 0, r) != mat_lin(k, identity(dim), 0, r):
            return f"n.R_{k} differs from {k}.I"
        if parse_q(d["t"]) != Fraction(k, n):
            return f"parameter of pair {k} is not {k}/{n}"
    return None


def check_decomposition(points, values, out):
    """Reconstruct f(x) = x^T B x + a.x + c from B, c and the generators."""
    if not out["ok"]:
        return "decomposable table reported as not decomposable"
    b = parse_matrix(out["B"])
    c = parse_q(out["c"])
    table = dict(zip(points, values))
    dim = len(b)

    def quad(x):
        return sum(x[i] * b[i][j] * x[j] for i in range(dim) for j in range(dim))

    a = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        a.append(table[e] - quad(e) - c)
    for x, fx in table.items():
        if quad(x) + sum(ai * xi for ai, xi in zip(a, x)) + c != fx:
            return f"reconstruction differs at {x}"
    return None


def check_quadratic_witness(kind, q, b, c, t, witness):
    """A failed sampled check on t*I: the witness pair violates the inequality."""
    x = [parse_q(v) for v in witness["x"]]
    y = [parse_q(v) for v in witness["y"]]
    z = [t * xi + (1 - t) * yi for xi, yi in zip(x, y)]
    z2 = [(1 - t) * xi + t * yi for xi, yi in zip(x, y)]
    if [parse_q(v) for v in witness["z"]] != z:
        return "witness z is not tx + (1-t)y"

    def f(v):
        return (
            sum(v[i] * q[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
            + sum(bi * vi for bi, vi in zip(b, v))
            + c
        )

    if not violates(kind, t, f(x), f(y), f(z), f(z2)):
        return "witness pair does not violate the inequality"
    return None
