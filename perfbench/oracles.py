"""Independent answers to check the program against.

Nothing here calls the solver: the optimum of a small instance comes from
enumerating every assignment, that of a grown instance from a MILP model
solved by HiGHS through ``scipy.optimize.milp``, and a lower bound for the
torus from isolating cuts computed with scipy's maximum flow. Returned
labels are re-scored here too, on the graph as generated.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import maximum_flow


class OracleError(RuntimeError):
    """An oracle could not produce a trustworthy answer."""


def score(n: int, edges, terminals, labels) -> tuple[int | None, str | None]:
    """(cut value, None) of a feasible assignment, else (None, reason)."""
    k = len(terminals)
    if len(labels) != n:
        return None, f"{len(labels)} labels for {n} vertices"
    for v, b in enumerate(labels):
        if not isinstance(b, (int, np.integer)) or not 0 <= b < k:
            return None, f"vertex {v} has label {b!r} outside [0,{k})"
    for i, t in enumerate(terminals):
        if labels[t] != i:
            return None, f"terminal {t} labelled {labels[t]}, not {i}"
    return sum(w for u, v, w in edges if labels[u] != labels[v]), None


def brute_force(n: int, edges, terminals) -> int:
    """Minimum multiterminal cut by enumerating all assignments."""
    k = len(terminals)
    term_set = set(terminals)
    free = [v for v in range(n) if v not in term_set]
    count = k ** len(free)
    labs = np.zeros((count, n), dtype=np.int8)
    for i, t in enumerate(terminals):
        labs[:, t] = i
    idx = np.arange(count)
    for j, v in enumerate(free):
        labs[:, v] = (idx // (k ** j)) % k
    totals = np.zeros(count, dtype=np.int64)
    for u, v, w in edges:
        totals += w * (labs[:, u] != labs[:, v])
    return int(totals.min())


def milp_optimum(vertices, edges, fixed: dict[int, int], k: int) -> int:
    """Minimum multiterminal cut of a graph whose terminals are ``fixed``.

    One binary per (vertex, block), one continuous cut indicator per edge
    with ``y_e >= |x_ub - x_vb|`` for every block b. The optimal labels are
    re-scored before the value is trusted.
    """
    vertices = sorted(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    nv, ne = len(vertices), len(edges)
    nx = nv * k
    rows, cols, vals = [], [], []
    lb, ub = [], []
    r = 0
    for v in vertices:
        for b in range(k):
            rows.append(r)
            cols.append(pos[v] * k + b)
            vals.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        r += 1
    for e, (u, v, _) in enumerate(edges):
        for b in range(k):
            for a, c in ((u, v), (v, u)):
                rows += [r, r, r]
                cols += [nx + e, pos[a] * k + b, pos[c] * k + b]
                vals += [1.0, -1.0, 1.0]
                lb.append(0.0)
                ub.append(np.inf)
                r += 1
    a_mat = coo_matrix((vals, (rows, cols)), shape=(r, nx + ne)).tocsr()
    cost = np.concatenate([np.zeros(nx), np.array([w for _, _, w in edges], dtype=float)])
    lower = np.zeros(nx + ne)
    upper = np.ones(nx + ne)
    for v, b in fixed.items():
        for c in range(k):
            lower[pos[v] * k + c] = upper[pos[v] * k + c] = 1.0 if c == b else 0.0
    integrality = np.concatenate([np.ones(nx), np.zeros(ne)])
    res = milp(cost, constraints=LinearConstraint(a_mat, lb, ub),
               integrality=integrality, bounds=(lower, upper),
               options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise OracleError(f"MILP not solved: {res.message}")
    x = res.x[:nx].reshape(nv, k)
    label = {v: int(np.argmax(x[pos[v]])) for v in vertices}
    value = sum(w for u, v, w in edges if label[u] != label[v])
    if value != round(res.fun):
        raise OracleError(f"MILP labels cut {value}, objective {res.fun}")
    return value


def isolating_lower_bound(vertices, edges, terminal_roots) -> int:
    """ceil(sum of minimum isolating cuts / 2), a lower bound on the optimum."""
    vertices = sorted(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    sink = n
    src = np.array([pos[u] for u, _, _ in edges] + [pos[v] for _, v, _ in edges])
    dst = np.array([pos[v] for _, v, _ in edges] + [pos[u] for u, _, _ in edges])
    cap = np.array([w for _, _, w in edges] * 2, dtype=np.int64)
    big = int(cap.sum()) + 1
    if big >= 2**31:
        raise OracleError("capacities overflow int32")
    total = 0
    roots = [pos[t] for t in terminal_roots]
    for s in roots:
        others = np.array([t for t in roots if t != s])
        rows = np.concatenate([src, others])
        cols = np.concatenate([dst, np.full(len(others), sink)])
        data = np.concatenate([cap, np.full(len(others), big)]).astype(np.int32)
        graph = csr_matrix((data, (rows, cols)), shape=(n + 1, n + 1))
        total += int(maximum_flow(graph, s, sink).flow_value)
    return (total + 1) // 2
