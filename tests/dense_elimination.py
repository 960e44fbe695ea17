"""Dense Gauss-Jordan elimination over Gaussian rationals: the oracle of
the solver's sparse elimination.

``dense_gauss_solve(columns, rows)`` takes ``rows`` as a dict from a row key
to ``(dict column -> coefficient, rhs)``, sorts the rows by the ``repr`` of
their keys, expands each into a full vector and eliminates every column in
order, scaling and subtracting whole vectors.  It returns (status, values,
rank, free_cols) as the solver's elimination does.
"""

from qcontract.scalars import GaussianRational


def dense_gauss_solve(columns: list, rows: dict):
    col_index = {c: k for k, c in enumerate(columns)}
    mat = []
    for _, (entries, rhs) in sorted(rows.items(), key=lambda kv: repr(kv[0])):
        vec = [GaussianRational(0)] * len(columns)
        for c, v in entries.items():
            vec[col_index[c]] = vec[col_index[c]] + v
        mat.append((vec, rhs))
    pivots = {}
    rank = 0
    for col in range(len(columns)):
        pivot_row = None
        for r in range(rank, len(mat)):
            if not mat[r][0][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        vec, rhs = mat[rank]
        inv = GaussianRational(1) / vec[col]
        vec = [v * inv for v in vec]
        rhs = rhs * inv
        mat[rank] = (vec, rhs)
        for r in range(len(mat)):
            if r == rank or mat[r][0][col].is_zero:
                continue
            factor = mat[r][0][col]
            rvec, rrhs = mat[r]
            rvec = [a - factor * b for a, b in zip(rvec, vec)]
            mat[r] = (rvec, rrhs - factor * rhs)
        pivots[col] = rank
        rank += 1
    for r in range(rank, len(mat)):
        if not mat[r][1].is_zero:
            return "inconsistent", None, rank, []
    free_cols = [columns[c] for c in range(len(columns)) if c not in pivots]
    if free_cols:
        return "underdetermined", None, rank, free_cols
    values = {}
    for col, r in pivots.items():
        values[columns[col]] = mat[r][1]
    return "unique", values, rank, []
