"""Exact rational matrix algebra and linear feasibility.

Matrices are tuples of tuples of Fractions.  Everything here is exact;
the Fourier-Motzkin eliminator returns either a feasible point or the
contradictory constant constraint it derived.
"""

from __future__ import annotations

from fractions import Fraction


def mat(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


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


def fm_feasible(constraints, nvars):
    """Decide feasibility of a system of constraints coeffs . x <= rhs.

    constraints: list of (coeffs tuple, rhs Fraction).
    Returns ("feasible", point) or ("infeasible", contradiction) where the
    contradiction is a derived constraint 0 <= rhs with rhs < 0.
    """
    layers = []  # per eliminated variable: constraints mentioning it
    current = [(tuple(Fraction(c) for c in cs), Fraction(r)) for cs, r in constraints]
    for var in range(nvars):
        lower, upper, rest = [], [], []
        for cs, rhs in current:
            if cs[var] > 0:
                upper.append((cs, rhs))
            elif cs[var] < 0:
                lower.append((cs, rhs))
            else:
                rest.append((cs, rhs))
        layers.append((var, lower, upper))
        new = list(rest)
        for lcs, lrhs in lower:
            for ucs, urhs in upper:
                # eliminate var: scale so coefficients cancel
                lc, uc = -lcs[var], ucs[var]
                cs = tuple(uc * a + lc * b for a, b in zip(lcs, ucs))
                new.append((cs, uc * lrhs + lc * urhs))
        current = new
    for cs, rhs in current:
        if rhs < 0:
            return "infeasible", (cs, rhs)
    # back-substitute from the last eliminated variable to the first
    point = [Fraction(0)] * nvars
    for var, lower, upper in reversed(layers):
        lo, hi = None, None
        for cs, rhs in lower:
            bound = (rhs - sum(c * point[i] for i, c in enumerate(cs) if i != var)) / cs[var]
            lo = bound if lo is None else max(lo, bound)
        for cs, rhs in upper:
            bound = (rhs - sum(c * point[i] for i, c in enumerate(cs) if i != var)) / cs[var]
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
