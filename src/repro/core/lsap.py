"""Linear assignment without SciPy, for the exact and routing bounds."""

from __future__ import annotations

import math

import numpy as np


def linear_sum_assignment(cost_matrix) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment(cost_matrix)``, same rows and
    columns: a line-for-line port of SciPy's ``rectangular_lsap.cpp``
    (shortest augmenting paths, D. F. Crouse, IEEE TAES 52(4), 2016).

    Tied optima are common (the routing matrices are symmetric), so
    every detail that picks among them is SciPy's: the free columns are
    scanned from a ``remaining`` list filled in reverse and shrunk by
    swapping in its last entry, and a column whose path cost ties the
    lowest wins if it is unassigned. A tall matrix is solved transposed;
    NaN or ``-inf`` entries and a matrix without a finite assignment raise
    SciPy's ``ValueError`` messages.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.ndim != 2:
        raise ValueError(
            f"expected a matrix (2-D array), got a {cost.ndim} array"
        )
    nr, nc = cost.shape
    transpose = nc < nr
    if transpose:
        cost = cost.T
        nr, nc = nc, nr
    flat = cost.ravel().tolist()
    if any(c != c or c == -math.inf for c in flat):
        raise ValueError("matrix contains invalid numeric entries")

    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row (augmenting_path()).
        min_val = 0.0
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        sr = [False] * nr
        sc = [False] * nc
        shortest = [math.inf] * nc
        sink = -1
        i = cur_row
        while sink == -1:
            index = -1
            lowest = math.inf
            sr[i] = True
            row = i * nc
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + flat[row + j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (
                    shortest[j] == lowest and row4col[j] == -1
                ):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        # Update the dual variables.
        u[cur_row] += min_val
        for i in range(nr):
            if sr[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - shortest[j]

        # Augment the previous solution along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    cols = np.array(col4row, dtype=np.int64)
    if transpose:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr, dtype=np.int64), cols
