"""Exact rational matrix algebra and linear feasibility.

Matrices are tuples of tuples of Fractions.  Everything here is exact.
The feasibility solver is integer Fourier-Motzkin elimination that drops
dominated parallel rows; it returns either a feasible point or Farkas
multipliers that prove the system infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def zeros(n):
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(k, a):
    k = Fraction(k)
    return tuple(tuple(k * x for x in row) for row in a)


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a)


def transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def det(a):
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def mat_inv(a):
    """Inverse over Q; raises ValueError when singular."""
    n = len(a)
    m = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def _eliminate(m, cols):
    """Gauss-Jordan elimination in place on the first cols columns of the
    row lists m; returns the pivot columns in row order."""
    rows = len(m)
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return pivots


def solve(a, b):
    """One solution of A x = b over Q, or None when inconsistent.

    A may be rectangular or singular; free variables are set to zero.
    """
    cols = len(a[0]) if a else 0
    m = [list(ra) + [bv] for ra, bv in zip(a, b)]
    pivots = _eliminate(m, cols)
    for i in range(len(pivots), len(m)):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = m[i][cols]
    return tuple(x)


def nullspace(a):
    """Basis of the right nullspace of A over Q."""
    cols = len(a[0]) if a else 0
    m = [list(row) for row in a]
    pivots = _eliminate(m, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


# -- Fourier-Motzkin -------------------------------------------------------


def _primitive(cs):
    """Divide an integer row by the gcd of its entries; returns (row, gcd),
    with gcd 1 for an all-zero row."""
    g = gcd(*cs)
    if g > 1:
        return tuple(c // g for c in cs), g
    return tuple(cs), 1


def _farkas(how, m):
    """Expand a row derivation into multipliers over the m input rows."""
    y = [Fraction(0)] * m
    stack = [(how, Fraction(1))]
    while stack:
        how, w = stack.pop()
        if len(how) == 2:  # row = scale * input row i
            i, scale = how
            y[i] += w * scale
        else:  # row = (a * lower + b * upper) / g
            lower, upper, a, b, g = how
            stack.append((lower, w * a / g))
            stack.append((upper, w * b / g))
    return tuple(y)


def fm_feasible(constraints, nvars):
    """Decide feasibility of a system of constraints coeffs . x <= rhs.

    constraints: list of (coeffs tuple, rhs) with int or Fraction entries.
    Returns ("feasible", point) or ("infeasible", y), where y >= 0 holds
    one multiplier per input constraint with y.A = 0 and y.b < 0.

    Exact integer Fourier-Motzkin: each row is scaled to a primitive
    integer coefficient tuple (the rhs stays a Fraction), and of parallel
    rows only the one with the smallest rhs is kept, since it implies the
    others (Dantzig & Eaves 1973).  Each stage's polyhedron is therefore
    unchanged, and so is every fibre interval of the back-substitution,
    which takes the midpoint of the interval or its finite end.  The last
    variable needs no pairs: its rows reduce to one lower and one upper
    bound.  Each row carries its derivation, from which an infeasible
    system's Farkas multipliers are expanded.
    """
    rows = {}  # primitive coeffs -> (rhs, derivation)
    for i, (cs, rhs) in enumerate(constraints):
        den = lcm(*(c.denominator for c in cs))
        key, g = _primitive([c.numerator * (den // c.denominator) for c in cs])
        scale = Fraction(den, g)
        rhs = scale * Fraction(rhs)
        kept = rows.get(key)
        if kept is None or rhs < kept[0]:
            rows[key] = (rhs, (i, scale))
    layers = []  # per eliminated variable: the rows bounding it
    for var in range(nvars):
        lower, upper, rest = [], [], {}
        for key, (rhs, how) in rows.items():
            if key[var] > 0:
                upper.append((key, rhs, how))
            elif key[var] < 0:
                lower.append((key, rhs, how))
            else:
                rest[key] = (rhs, how)
        layers.append((var, lower, upper))
        rows = rest
        if var == nvars - 1:
            # both lists hold at most the one primitive row -x or x
            if lower and upper and lower[0][1] + upper[0][1] < 0:
                return "infeasible", _farkas(
                    (lower[0][2], upper[0][2], 1, 1, 1), len(constraints))
            break
        for lkey, lrhs, lhow in lower:
            lc = -lkey[var]
            for ukey, urhs, uhow in upper:
                uc = ukey[var]
                key, g = _primitive([uc * a + lc * b for a, b in zip(lkey, ukey)])
                rhs = uc * lrhs + lc * urhs
                if g != 1:
                    rhs /= g
                kept = rows.get(key)
                if kept is None or rhs < kept[0]:
                    rows[key] = (rhs, (lhow, uhow, uc, lc, g))
    zero = rows.get((0,) * nvars)
    if zero is not None and zero[0] < 0:
        return "infeasible", _farkas(zero[1], len(constraints))
    # back-substitute from the last eliminated variable to the first
    point = [Fraction(0)] * nvars
    for var, lower, upper in reversed(layers):
        lo, hi = None, None
        for key, rhs, _ in lower:
            bound = (rhs - sum(key[i] * point[i] for i in range(var + 1, nvars))) / key[var]
            lo = bound if lo is None else max(lo, bound)
        for key, rhs, _ in upper:
            bound = (rhs - sum(key[i] * point[i] for i in range(var + 1, nvars))) / key[var]
            hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            point[var] = Fraction(0)
        elif lo is None:
            point[var] = hi
        elif hi is None:
            point[var] = lo
        else:
            point[var] = (lo + hi) / 2
    return "feasible", tuple(point)


def iroot_ceil(k: int, m: int) -> int:
    """Smallest integer r with r**m >= k (k >= 0, m >= 1)."""
    if k <= 0:
        return 0
    if m == 1:
        return k
    # integer Newton from 2**ceil(bits/m), which is above the root; the
    # iterates fall strictly until they reach floor(k**(1/m))
    r = 1 << -(-k.bit_length() // m)
    while True:
        s = ((m - 1) * r + k // r ** (m - 1)) // m
        if s >= r:
            break
        r = s
    return r if r**m == k else r + 1
