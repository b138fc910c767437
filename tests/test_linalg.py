"""The integer Fourier-Motzkin eliminator against plain Fourier-Motzkin
without pruning, on seeded random systems: equal verdicts, equal points,
and a Farkas vector that proves every infeasible verdict."""

import random
from fractions import Fraction

from tconvex.linalg import fm_feasible


def reference_fm_feasible(constraints, nvars):
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


def _rational(rng, span):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 4)))


def _random_system(rng):
    nvars = rng.randint(0, 3)
    rows = []
    # unpruned elimination of three variables from 14 rows forms ~10^5 rows
    for _ in range(rng.randint(0, 10 if nvars == 3 else 14)):
        if rows and rng.random() < 0.2:
            # a positive multiple of an earlier row, so pruning has work to do
            cs, rhs = rng.choice(rows)
            k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            rows.append((tuple(k * c for c in cs), k * rhs + rng.randint(-2, 2)))
            continue
        cs = tuple(_rational(rng, 3) if rng.random() < 0.8 else Fraction(0)
                   for _ in range(nvars))
        rows.append((cs, _rational(rng, 6)))
    return rows, nvars


def _check_farkas(constraints, nvars, y):
    assert len(y) == len(constraints)
    assert all(isinstance(w, Fraction) and w >= 0 for w in y)
    for j in range(nvars):
        assert sum((w * Fraction(cs[j]) for w, (cs, _) in zip(y, constraints)),
                   Fraction(0)) == 0
    assert sum((w * Fraction(r) for w, (_, r) in zip(y, constraints)), Fraction(0)) < 0


def test_fm_feasible_matches_unpruned_reference():
    rng = random.Random(20240611)
    counts = {"feasible": 0, "infeasible": 0}
    for _ in range(2000):
        constraints, nvars = _random_system(rng)
        status, payload = fm_feasible(constraints, nvars)
        ref_status, ref_payload = reference_fm_feasible(constraints, nvars)
        assert status == ref_status, (constraints, nvars)
        counts[status] += 1
        if status == "feasible":
            assert payload == ref_payload
            assert all(isinstance(v, Fraction) for v in payload)
            for cs, rhs in constraints:
                assert sum((Fraction(c) * v for c, v in zip(cs, payload)),
                           Fraction(0)) <= rhs
        else:
            _check_farkas(constraints, nvars, payload)
    assert min(counts.values()) >= 500, counts


def test_fm_feasible_small_cases():
    half = Fraction(1, 2)
    # x in [3, 5]: the midpoint, as for the hand tangent of criterion 09
    assert fm_feasible([((-1,), -3), ((1,), 5)], 1) == ("feasible", (Fraction(4),))
    # one-sided bounds take their finite end; an unbounded variable is 0
    assert fm_feasible([((2,), 3)], 1) == ("feasible", (Fraction(3, 2),))
    assert fm_feasible([((0, -1), half)], 2) == ("feasible", (Fraction(0), -half))
    assert fm_feasible([], 0) == ("feasible", ())
    # x >= 1 and 2x <= 1: y = (1, 1/2) gives 0 <= -1/2
    assert fm_feasible([((-1,), -1), ((2,), 1)], 1) == ("infeasible", (1, half))
    # a constant row alone
    assert fm_feasible([((0, 0), 1), ((0, 0), -half)], 2) == (
        "infeasible", (Fraction(0), Fraction(1)))
