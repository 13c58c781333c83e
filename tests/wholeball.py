"""Whole-graph and whole-ball reference searches.

The package reads distances and balls off a growing region; tests
compare what it hands out with these plain breadth-first searches.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from hamext.errors import InputError, InvariantViolation
from hamext.graphcore import FiniteGraph


def distances_from(G: FiniteGraph, sources: Iterable[int]) -> dict[int, int]:
    """BFS distances from a source set within a finite graph."""
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        if not G.has_vertex(s):
            raise InputError(f"unknown source vertex {s}")
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for w in G.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_ball(G, center, radius):
    """A whole-ball search, as ball() ran before the region: the ball
    and the distances from the center inside it."""
    cset = sorted(set(center))
    dist = {v: 0 for v in cset}
    ring = list(cset)
    for d in range(1, radius + 1):
        nxt = []
        for u in ring:
            for w in G.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        ring = sorted(nxt)
    members = frozenset(dist)
    adj = {
        v: tuple(w for w in G.neighbors(v) if w in members) for v in sorted(members)
    }
    for v, nbrs in adj.items():
        if dist[v] >= radius:
            continue
        for w in nbrs:
            if dist[w] < radius and v not in adj[w]:
                raise InvariantViolation(
                    f"neighbor oracle is asymmetric on pair ({v}, {w})"
                )
    frontier = frozenset(v for v in members if dist[v] == radius)
    B = FiniteGraph(vertices=tuple(sorted(members)), adj=adj, frontier=frontier)
    return B, dist
