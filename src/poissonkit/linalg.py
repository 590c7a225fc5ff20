"""Exact linear algebra over Gaussian rationals.

Rows are sparse mappings column -> scalar; elimination is plain
Gauss-Jordan over the field with a deterministic pivot rule (first row
with a nonzero entry in the leftmost open column), so reduced forms and
nullspace bases are reproducible.
"""

from __future__ import annotations

from .scalars import GaussRational

_ZERO = GaussRational.zero()
_ONE = GaussRational.one()


def _clean(row: dict) -> dict:
    return {c: v for c, v in row.items() if not v.is_zero()}


def rref(rows: list, ncols: int) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column list).

    A column -> rows index keeps each step to the rows that hold the
    pivot column: the pivot is the lowest-indexed unused row holding it.
    """
    work = [_clean(r) for r in rows]
    holders = {}
    for idx, row in enumerate(work):
        for c in row:
            holders.setdefault(c, set()).add(idx)
    open_rows = {idx for idx, row in enumerate(work) if row}
    pivots = []
    done = []
    for col in range(ncols):
        if not open_rows:
            break
        here = holders.get(col, set())
        candidates = here & open_rows
        if not candidates:
            continue
        hit = min(candidates)
        open_rows.discard(hit)
        inv = _ONE / work[hit][col]
        pivot_row = {c: v * inv for c, v in work[hit].items()}
        work[hit] = pivot_row
        for idx in here - {hit}:
            row = work[idx]
            factor = row[col]
            for c, v in pivot_row.items():
                acc = row.get(c, _ZERO) - factor * v
                if not acc.is_zero():
                    if c not in row:
                        holders.setdefault(c, set()).add(idx)
                    row[c] = acc
                elif row.pop(c, None) is not None:
                    holders[c].discard(idx)
            if not row:
                open_rows.discard(idx)
        done.append(pivot_row)
        pivots.append(col)
    return done, pivots


def rank(rows: list, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right kernel as sparse {column: scalar} vectors.

    One basis vector per free column, with a 1 in the free slot and
    -row[f] in the pivot slot of each reduced row holding f; the
    deterministic rref makes the basis canonical.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = {f: _ONE}
        for row, p in zip(reduced, pivots):
            if f in row:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def dense_rank(matrix: list) -> int:
    """Rank of a dense matrix given as a list of GaussRational rows."""
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rows = [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in matrix]
    return rank(rows, ncols)
