"""The transportation simplex as it stood before its basis was held as a
maintained spanning tree, kept as an independent oracle: each pivot
rebuilds the tree from the basis cell list, once by a DFS for the duals
and once by a BFS for the cycle.  Its start is the package's least-cost
basis, written out here as repeated `argmin` over the open cells rather
than one sorted pass.  `transport.wasserstein_exact` must return the
same bits on every field."""

import numpy as np

from monotone_ergo.transport import (EXACT_SUPPORT_LIMIT, CostMatrix,
                                     Degenerate, TooLarge, TransportError,
                                     TransportResult)


def _least_cost_basis(a, b, cost):
    """Least-cost starting plan plus a spanning basis of m+n-1 cells.

    Repeatedly the cheapest cell of the open rows and columns, the first
    in row-major order among equals, takes the smaller remainder of its
    row and column; then its row closes if that row is not the last open
    one and either its remainder is at most the column's or its column is
    the last open one, else its column closes.  The cell that meets the
    last open row and column takes the larger remainder."""
    m, n = len(a), len(b)
    plan = np.zeros((m, n))
    basis = []
    ra, rb = a.copy(), b.copy()
    open_cost = np.array(cost, dtype=float)
    rows, cols = m, n
    while True:
        i, j = np.unravel_index(np.argmin(open_cost), open_cost.shape)
        basis.append((int(i), int(j)))
        if rows == cols == 1:
            plan[i, j] = max(ra[i], rb[j])
            return plan, basis
        q = min(ra[i], rb[j])
        plan[i, j] = q
        ra[i] -= q
        rb[j] -= q
        if rows > 1 and (ra[i] <= rb[j] or cols == 1):
            open_cost[i, :] = np.inf
            rows -= 1
        else:
            open_cost[:, j] = np.inf
            cols -= 1


def _duals(cost, basis, m, n):
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    by_row = [[] for _ in range(m)]
    by_col = [[] for _ in range(n)]
    for (i, j) in basis:
        by_row[i].append(j)
        by_col[j].append(i)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in by_row[k]:
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in by_col[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append(("r", i))
    return u, v


def _find_cycle(basis, enter):
    """Alternating cycle created by adding `enter` to the basis tree."""
    i0, j0 = enter
    by_row, by_col = {}, {}
    for (i, j) in basis:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    # path from column j0 back to row i0 through basis edges
    prev = {("c", j0): None}
    stack = [("c", j0)]
    while stack:
        node = stack.pop()
        kind, k = node
        if kind == "c":
            for i in by_col.get(k, []):
                nxt = ("r", i)
                if nxt not in prev:
                    prev[nxt] = node
                    if i == i0:
                        stack = []
                        break
                    stack.append(nxt)
        else:
            for j in by_row.get(k, []):
                nxt = ("c", j)
                if nxt not in prev:
                    prev[nxt] = node
                    stack.append(nxt)
    node = ("r", i0)
    path = []
    while node is not None:
        path.append(node)
        node = prev[node]
    # path alternates row, col, row, ... from i0 to j0
    cells = [enter]
    for a, b in zip(path, path[1:]):
        (ka, xa), (kb, xb) = a, b
        cells.append((xa, xb) if ka == "r" else (xb, xa))
    return cells  # even positions gain mass, odd positions lose


def reference_exact(mu, nu, cost: CostMatrix,
                    tol: float = 1e-12) -> TransportResult:
    """Optimal transport value and plan by the transportation simplex."""
    a = np.asarray(getattr(mu, "p", mu), dtype=float)
    b = np.asarray(getattr(nu, "p", nu), dtype=float)
    c = cost.c
    if a.sum() <= 0 or b.sum() <= 0:
        raise Degenerate("zero total mass")
    if len(a) > EXACT_SUPPORT_LIMIT or len(b) > EXACT_SUPPORT_LIMIT:
        raise TooLarge(f"support sizes {len(a)}x{len(b)}")
    if c.shape != (len(a), len(b)):
        raise TransportError("cost shape mismatch")

    rows = np.nonzero(a > 0)[0]
    cols = np.nonzero(b > 0)[0]
    ar, bc = a[rows], b[cols]
    cr = c[np.ix_(rows, cols)]
    m, n = len(rows), len(cols)

    plan, basis = _least_cost_basis(ar, bc, cr)
    max_iter = 50 * (m + n) + 1000
    it = 0
    while True:
        it += 1
        u, v = _duals(cr, basis, m, n)
        red = cr - u[:, None] - v[None, :]
        in_basis = np.zeros((m, n), dtype=bool)
        bi, bj = zip(*basis)
        in_basis[list(bi), list(bj)] = True
        red_masked = np.where(in_basis, 0.0, red)
        kmin = np.unravel_index(np.argmin(red_masked), red_masked.shape)
        converged = bool(red_masked[kmin] >= -tol)
        if converged or it > max_iter:
            break
        if it > max_iter // 2:
            # Bland-style anti-cycling: first improving cell instead
            cand = np.argwhere(red_masked < -tol)
            kmin = tuple(cand[0])
        cycle = _find_cycle(basis, (int(kmin[0]), int(kmin[1])))
        losers = cycle[1::2]
        theta_idx = min(range(len(losers)),
                        key=lambda k: (plan[losers[k]], losers[k]))
        leave = losers[theta_idx]
        theta = plan[leave]
        for k, cell in enumerate(cycle):
            plan[cell] += theta if k % 2 == 0 else -theta
        plan[leave] = 0.0
        basis.remove(leave)
        basis.append((int(kmin[0]), int(kmin[1])))

    full_plan = np.zeros_like(c)
    full_plan[np.ix_(rows, cols)] = plan
    value = float((plan * cr).sum())
    du = np.full(len(a), np.nan)
    dv = np.full(len(b), np.nan)
    du[rows], dv[cols] = u, v
    gap = float(-min(0.0, red_masked.min()))
    return TransportResult(value=value, plan=full_plan, method="exact",
                           iterations=it, gap=gap, dual_u=du, dual_v=dv,
                           converged=converged)
