"""Independent brute-force ground truth.

Nothing here shares logic with the constructive machinery: the
Hamilton search is plain exhaustive backtracking, and the corpus
sampler only uses the public checkers as rejection filters.  Tests lean on this module whenever a
derived expectation needs a second, dumber opinion.
"""

from __future__ import annotations

import random

from .conditions import check_star, is_claw_free
from .errors import InputError, SamplingExhausted
from .graphcore import Cycle, FiniteGraph

DEFAULT_ORACLE_BOUND = 22


def hamilton_oracle(G: FiniteGraph, bound: int = DEFAULT_ORACLE_BOUND) -> Cycle | None:
    """Exhaustive backtracking search for a Hamilton cycle.

    Returns a cycle or a certified ``None``.  The only prunes are sound
    necessary conditions (connectivity of the unvisited region, degree
    availability), so the search remains complete.
    """
    n = len(G.vertices)
    if n > bound:
        raise InputError(f"oracle size bound exceeded: {n} > {bound}")
    if n < 3:
        return None
    index = {v: i for i, v in enumerate(G.vertices)}
    adj_mask = [0] * n
    for v in G.vertices:
        m = 0
        for w in G.adj[v]:
            m |= 1 << index[w]
        adj_mask[index[v]] = m
    full = (1 << n) - 1

    def feasible(visited: int, cur: int) -> bool:
        # Every unvisited vertex (backtrack leaves at least one) must be
        # reachable from cur through unvisited vertices, and must keep
        # two usable cycle slots.
        remaining = full & ~visited
        reach = adj_mask[cur] & remaining
        frontier = reach
        while frontier:
            nxt = 0
            r = frontier
            while r:
                b = r & -r
                r ^= b
                nxt |= adj_mask[b.bit_length() - 1]
            nxt &= remaining & ~reach
            if not nxt:
                break
            reach |= nxt
            frontier = nxt
        if reach != remaining:
            return False
        allowed = remaining | (1 << cur) | 1
        r = remaining
        while r:
            b = r & -r
            r ^= b
            if bin(adj_mask[b.bit_length() - 1] & allowed).count("1") < 2:
                return False
        return True

    path = [0]

    def backtrack(visited: int, cur: int) -> bool:
        if visited == full:
            return bool(adj_mask[cur] & 1)
        if not feasible(visited, cur):
            return False
        candidates = adj_mask[cur] & ~visited
        while candidates:
            b = candidates & -candidates
            candidates ^= b
            w = b.bit_length() - 1
            path.append(w)
            if backtrack(visited | b, w):
                return True
            path.pop()
        return False

    if backtrack(1, 0):
        return Cycle(tuple(G.vertices[i] for i in path))
    return None


def random_star_clawfree(
    seed: int, bound: int = 14, attempts: int = 20000
) -> FiniteGraph:
    """Rejection-sample a connected claw-free graph satisfying the
    degree condition; deterministic per seed."""
    if bound > 14:
        raise InputError("random_star_clawfree bound must be <= 14")
    if bound < 4:
        raise InputError("random_star_clawfree bound must be >= 4")
    rng = random.Random(seed)
    for _ in range(attempts):
        n = rng.randint(4, bound)
        p = rng.uniform(0.55, 0.95)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        G = FiniteGraph.from_edges(range(n), edges)
        if not G.is_connected():
            continue
        if not is_claw_free(G).claw_free:
            continue
        if not check_star(G).holds:
            continue
        return G
    raise SamplingExhausted(
        f"no claw-free graph meeting the degree condition in {attempts} attempts "
        f"(seed {seed}, bound {bound})",
        attempts,
    )
