"""Max-flow feasibility test for transport plans restricted to a relation.

The graph is source -> left node i (capacity mu_i), left i -> right j when
allowed[i, j] (infinite capacity), right j -> sink (capacity nu_j).  The
marginals are couplable along the relation iff the max flow equals the
total mass.  A greedy pre-flow along the arcs in index order, then
Edmonds-Karp (shortest augmenting paths) to finish the flow, on dense
float capacities; the sizes here are small (n <= a few dozen).  Every maximum flow leaves the same nodes reachable from the
source in its residual graph, so the min-cut certificate does not depend
on the pre-flow; only a feasible plan does.
"""

from __future__ import annotations

from collections import deque

import numpy as np

_EPS = 1e-13


def max_flow_bipartite(mu, nu, allowed):
    """Returns (flow_matrix, flow_value, source_side_left_nodes).

    source_side_left_nodes is the set of left indices reachable from the
    source in the final residual graph (min-cut certificate material).
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    allowed = np.asarray(allowed, dtype=bool)
    n, m = allowed.shape
    # node ids: 0 = source, 1..n = left, n+1..n+m = right, n+m+1 = sink
    src, snk = 0, n + m + 1
    size = n + m + 2
    cap = np.zeros((size, size))
    cap[src, 1:n + 1] = mu
    big = mu.sum() + 1.0
    for i in range(n):
        cap[1 + i, n + 1 + np.nonzero(allowed[i])[0]] = big
    cap[n + 1:n + m + 1, snk] = nu

    # greedy pre-flow: each left node in turn sends what it still can to
    # each allowed right node in turn; the augmenting paths below finish
    # the flow from there
    for i in range(n):
        for j in (n + 1 + np.flatnonzero(allowed[i])).tolist():
            q = min(cap[src, 1 + i], cap[j, snk])
            if q > _EPS:
                for v, w in ((src, 1 + i), (1 + i, j), (j, snk)):
                    cap[v, w] -= q
                    cap[w, v] += q

    while True:
        # BFS for an augmenting path
        parent = np.full(size, -1, dtype=int)
        parent[src] = src
        queue = deque([src])
        while queue and parent[snk] < 0:
            v = queue.popleft()
            for w in np.nonzero(cap[v] > _EPS)[0]:
                if parent[w] < 0:
                    parent[w] = v
                    queue.append(w)
        if parent[snk] < 0:
            break
        # bottleneck and augment
        path = []
        w = snk
        while w != src:
            path.append((parent[w], w))
            w = parent[w]
        bottleneck = min(cap[v, w] for v, w in path)
        for v, w in path:
            cap[v, w] -= bottleneck
            cap[w, v] += bottleneck

    flow = np.zeros((n, m))
    for i in range(n):
        js = np.nonzero(allowed[i])[0]
        flow[i, js] = cap[n + 1 + js, 1 + i]  # reverse capacity = flow sent
    value = float(flow.sum())

    # the last search missed the sink, so it marked every node the
    # source reaches in the final residual graph
    source_side = frozenset(np.nonzero(parent[1:n + 1] >= 0)[0].tolist())
    return flow, value, source_side
