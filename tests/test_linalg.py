"""Exact elimination over Q(i) against the plain scan-based reference."""

import random
from fractions import Fraction

from poissonkit import GaussRational
from poissonkit.linalg import dense_rank, nullspace, rank, rref

_ZERO = GaussRational.zero()
_ONE = GaussRational.one()


def _reference_rref(rows, ncols):
    """Gauss-Jordan that scans every open row for each column and every
    row for each pivot; the pivot is the first open row holding it."""
    work = [{c: v for c, v in r.items() if not v.is_zero()} for r in rows]
    work = [r for r in work if r]
    pivots = []
    done = []
    col = 0
    while col < ncols and work:
        hit = None
        for idx, row in enumerate(work):
            if col in row:
                hit = idx
                break
        if hit is None:
            col += 1
            continue
        pivot_row = work.pop(hit)
        inv = _ONE / pivot_row[col]
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        for target in (work, done):
            for idx, row in enumerate(target):
                if col in row:
                    factor = row[col]
                    new = dict(row)
                    for c, v in pivot_row.items():
                        acc = new.get(c, _ZERO) - factor * v
                        if acc.is_zero():
                            new.pop(c, None)
                        else:
                            new[c] = acc
                    target[idx] = new
        work = [r for r in work if r]
        done.append(pivot_row)
        pivots.append(col)
        col += 1
    return done, pivots


def _reference_nullspace(rows, ncols):
    """The dense kernel basis: one list per free column, 1 in the free
    slot and -row[f] in the pivot slot of each reduced row holding f."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for row, p in zip(reduced, pivots):
            if f in row:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def _scalar(rng):
    return GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.choice((0, 0, rng.randint(-3, 3))),
                                  rng.randint(1, 3)))


def _combine(rng, rows):
    """A random Q(i) combination of some rows, so the rank drops."""
    out = {}
    for row in rng.sample(rows, min(len(rows), rng.randint(2, 3))):
        factor = _scalar(rng)
        for c, v in row.items():
            out[c] = out.get(c, _ZERO) + factor * v
    return out


def _random_rows(rng, ncols):
    rows = []
    for _ in range(rng.randint(1, 12)):
        fill = rng.random() * 0.6
        rows.append({c: _scalar(rng) for c in range(ncols)
                     if rng.random() < fill})
    rows.append({})
    rows.append({rng.randrange(ncols): _ZERO})
    rows.append(dict(rng.choice(rows)))
    for _ in range(rng.randint(1, 3)):
        rows.append(_combine(rng, rows))
    rng.shuffle(rows)
    return rows


def test_rref_matches_the_scan_reference():
    rng = random.Random("linalg-rref")
    deficient = 0
    for _ in range(300):
        ncols = rng.randint(1, 10)
        rows = _random_rows(rng, ncols)
        reduced, pivots = rref(rows, ncols)
        assert (reduced, pivots) == _reference_rref(rows, ncols)
        deficient += len(pivots) < sum(1 for r in rows if r)
    assert deficient > 250


def test_rref_leaves_its_input_alone():
    rows = [{0: GaussRational(2), 1: GaussRational(4)},
            {0: GaussRational(1), 2: GaussRational(0, 1)}]
    before = [dict(r) for r in rows]
    assert rref(rows, 3) == ([{0: _ONE, 2: GaussRational(0, 1)},
                              {1: _ONE, 2: GaussRational(0, Fraction(-1, 2))}],
                             [0, 1])
    assert rows == before


def test_nullspace_rank_and_dense_rank():
    rng = random.Random("linalg-kernel")
    for _ in range(100):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, ncols)
        basis = nullspace(rows, ncols)
        assert rank(rows, ncols) + len(basis) == ncols
        assert basis == [{c: v for c, v in enumerate(dense) if not v.is_zero()}
                         for dense in _reference_nullspace(rows, ncols)]
        for vec in basis:
            for row in rows:
                acc = _ZERO
                for c, v in row.items():
                    acc = acc + v * vec.get(c, _ZERO)
                assert acc.is_zero()
        dense = [[row.get(c, _ZERO) for c in range(ncols)] for row in rows]
        assert dense_rank(dense) == rank(rows, ncols)
