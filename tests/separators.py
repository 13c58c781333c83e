"""Minimal separators of small finite graphs, for the tests.

``minimal_separators`` enumerates them by brute force over vertex
subsets; the two verdict functions check the claw-free separator facts
the infinite construction relies on (two components, complete
attachment) on whatever separator they are given.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from hamext.conditions import is_claw_free
from hamext.errors import InputError
from hamext.graphcore import FiniteGraph, _components_within


def components(
    G: FiniteGraph, removed: Iterable[int] = ()
) -> list[frozenset[int]]:
    """Connected components of ``G - removed``, ordered by smallest member."""
    rset = frozenset(removed)
    missing = rset - G.vertex_set
    if missing:
        raise InputError(f"cannot remove unknown vertices: {sorted(missing)}")
    return _components_within(G.adj, G.vertex_set - rset)


def minimal_separators(G: FiniteGraph, max_size: int | None = None) -> list[frozenset[int]]:
    """All inclusion-minimal vertex separators, by subset enumeration.

    A subset S is inclusion-minimal separating iff G - S is
    disconnected and every s in S has a neighbour in every component of
    G - S (otherwise removing s from S would still separate).  Intended
    for corpus-scale graphs; the loop is exponential by design.
    """
    n = len(G.vertices)
    if n > 16:
        raise InputError(f"separator enumeration limited to 16 vertices, got {n}")
    index = {v: i for i, v in enumerate(G.vertices)}
    adj_mask = [0] * n
    for v in G.vertices:
        m = 0
        for w in G.adj[v]:
            m |= 1 << index[w]
        adj_mask[index[v]] = m
    full = (1 << n) - 1
    limit = n - 2 if max_size is None else min(max_size, n - 2)

    def component_masks(alive: int) -> list[int]:
        comps = []
        rest = alive
        while rest:
            seed = rest & -rest
            comp = seed
            frontier = seed
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= adj_mask[b.bit_length() - 1]
                nxt &= alive & ~comp
                comp |= nxt
                frontier = nxt
            comps.append(comp)
            rest &= ~comp
        return comps

    out = []
    for subset in range(1, full):
        if bin(subset).count("1") > limit:
            continue
        alive = full & ~subset
        comps = component_masks(alive)
        if len(comps) < 2:
            continue
        s = subset
        minimal = True
        while s:
            b = s & -s
            s ^= b
            sees_all = all(adj_mask[b.bit_length() - 1] & c for c in comps)
            if not sees_all:
                minimal = False
                break
        if minimal:
            out.append(
                frozenset(G.vertices[i] for i in range(n) if subset >> i & 1)
            )
    out.sort(key=sorted)
    return out


@dataclass(frozen=True)
class TwoComponentsVerdict:
    ok: bool
    component_count: int
    components: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class AttachmentVerdict:
    ok: bool
    witness: tuple[int, int, int] | None = None  # (s, a, b) non-adjacent pair


def _require_minimal_separator(G: FiniteGraph, S: frozenset[int]) -> list[frozenset[int]]:
    if not S:
        raise InputError("separator must be non-empty")
    missing = S - G.vertex_set
    if missing:
        raise InputError(f"separator vertices not in graph: {sorted(missing)}")
    if not G.is_connected():
        raise InputError("graph is not connected")
    claw = is_claw_free(G)
    if not claw.claw_free:
        raise InputError(f"graph has a claw at {claw.witness[0]}")
    comps = components(G, removed=S)
    if len(comps) < 2:
        raise InputError("set does not separate the graph")
    for s in sorted(S):
        if len(components(G, removed=S - {s})) >= 2:
            raise InputError(f"separator is not inclusion-minimal: {s} is removable")
    return comps


def verify_two_components(G: FiniteGraph, S) -> TwoComponentsVerdict:
    """Removing a minimal separator from a connected claw-free graph
    leaves exactly two components; report what actually happened."""
    comps = _require_minimal_separator(G, frozenset(S))
    return TwoComponentsVerdict(
        ok=len(comps) == 2,
        component_count=len(comps),
        components=tuple(comps),
    )


def verify_complete_attachment(G: FiniteGraph, S) -> AttachmentVerdict:
    """Each separator vertex must see each component in a clique."""
    S = frozenset(S)
    comps = _require_minimal_separator(G, S)
    for s in sorted(S):
        for comp in comps:
            attach = sorted(set(G.neighbors(s)) & comp)
            for i, a in enumerate(attach):
                for b in attach[i + 1 :]:
                    if not G.adjacent(a, b):
                        return AttachmentVerdict(ok=False, witness=(s, a, b))
    return AttachmentVerdict(ok=True)
