"""Ray blockers, minimal separators, and the two-sided decomposition.

Around a finite cycle of an infinite locally finite graph sits a
finite set of vertices every escaping ray must cross.  Shrinking that
set to inclusion-minimality and splitting it along the components it
faces yields the separator structure the infinite construction climbs:
one finite component holding the cycle, and one minimal separator per
infinite component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conditions import claw_free_on_ball, is_claw_free
from .errors import InputError, InvariantViolation
from .graphcore import (
    Cycle,
    FiniteGraph,
    LazyGraph,
    _ball_radius_cap,
    ball,
    components,
)


def require_claw_free(
    B: FiniteGraph, centers, certified: set[int] | None = None
) -> None:
    """Raise InputError at the first claw centred in ``centers`` (see
    :func:`claw_free_on_ball`)."""
    verdict = claw_free_on_ball(B, centers, certified)
    if not verdict.claw_free:
        center, leaves = verdict.witness
        raise InputError(f"graph has a claw at {center} with leaves {leaves}")


def minimal_ray_blocker(G: LazyGraph, C: Cycle) -> frozenset[int]:
    """Inclusion-minimal subset of N(C) meeting every ray leaving C.

    The full neighbourhood N(C) always blocks: a ray starting on the
    cycle first leaves V(C) at a vertex adjacent to the cycle.  One
    greedy pass in ascending id order then removes whatever is not
    needed; monotonicity of blocking makes the single pass sufficient.
    """
    if not G.escapes(frozenset(), G.root):
        raise InputError("graph not infinite")
    for u in C.order:
        if not G.adjacent(u, C.succ(u)):
            raise InputError(f"cycle edge ({u}, {C.succ(u)}) missing in graph")
    on = C.vertex_set
    candidates = sorted(
        {w for u in C.order for w in G.neighbors(u)} - on
    )
    # the cycle is connected and disjoint from every candidate set, so
    # all its vertices share one escape verdict; testing one suffices
    probe = C.order[0]
    blocker = set(candidates)
    if G.escapes(frozenset(blocker), probe):
        raise InvariantViolation(
            "N(C) fails to block; the escape oracle is inconsistent",
            cycle=C.order,
        )
    for s in candidates:
        trial = frozenset(blocker - {s})
        if not G.escapes(trial, probe):
            blocker.discard(s)
    return frozenset(blocker)


def component_membership(G: LazyGraph, blocker, home, foreign):
    """Membership test for the component of G - blocker that meets
    ``home``, given vertices ``foreign`` known to lie outside it.

    A query outside the known sets walks toward them and answers from
    the first one it reaches.  The walk is capped at
    ``HAMEXT_BALL_RADIUS_MAX`` rings, read once here, so a query far
    from both sets fails fast instead of looping.
    """
    blocker = frozenset(blocker)
    home = frozenset(home)
    foreign = frozenset(foreign)
    cap = _ball_radius_cap()

    def member(v: int) -> bool:
        if v in blocker:
            return False
        if v in home:
            return True
        if v in foreign:
            return False
        seen = {v}
        ring = [v]
        for _ in range(cap):
            nxt = []
            for u in ring:
                for w in G.neighbors(u):
                    if w in blocker or w in seen:
                        continue
                    if w in home:
                        return True
                    if w in foreign:
                        return False
                    seen.add(w)
                    nxt.append(w)
            if not nxt:
                return False
            ring = sorted(nxt)
        raise InputError(
            f"component membership query for {v} exceeded the search cap {cap}"
        )

    return member


class ComponentHandle:
    """One infinite component of G - blocker, seen through a ball.

    ``piece`` is the part inside the working ball; membership outside
    it is decided by :func:`component_membership`.
    """

    def __init__(self, G: LazyGraph, blocker, piece, ball_vertices) -> None:
        if not piece:
            raise InputError("component handle needs a non-empty piece")
        self.piece = frozenset(piece)
        self.representative = min(self.piece)
        self._member = component_membership(
            G, blocker, self.piece, frozenset(ball_vertices) - self.piece
        )

    def __contains__(self, v: int) -> bool:
        return self._member(v)

    def __repr__(self) -> str:
        return f"ComponentHandle(rep={self.representative}, |piece|={len(self.piece)})"


@dataclass(frozen=True)
class SeparatorDecomposition:
    """Separator structure around a seed set X.

    parts[j] is the minimal separator facing infinite_components[j];
    the parts partition script_S.  finite_component is the unique
    finite component of G - script_S and contains X.  ball is the
    working ball every later computation stays inside.
    """

    script_S: frozenset[int]
    k: int
    parts: tuple[frozenset[int], ...]
    infinite_components: tuple[ComponentHandle, ...]
    finite_component: frozenset[int]
    ball: FiniteGraph

    def to_json_obj(self) -> dict:
        return {
            "script_S": sorted(self.script_S),
            "k": self.k,
            "parts": [sorted(p) for p in self.parts],
            "finite_component": sorted(self.finite_component),
            "infinite_pieces": [sorted(h.piece) for h in self.infinite_components],
        }


def _connected_within(B: FiniteGraph, X: frozenset[int]) -> bool:
    """Whether X induces a connected subgraph of B."""
    start = min(X)
    seen = {start}
    stack = [start]
    adj = B.adj
    while stack:
        for w in adj[stack.pop()]:
            if w in X and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(X)


# how far past the deepest separator vertex decompose's first ball
# reaches; the degree-condition check of hamilton_sequence relies on it
BALL_MARGIN = 6


def decompose(
    G: LazyGraph,
    X,
    script_S,
    *,
    certified: set[int] | None = None,
) -> SeparatorDecomposition:
    """Split G along a minimal ray blocker of X.

    Works on a ball around X that starts ``BALL_MARGIN`` past the
    deepest separator vertex and grows while any ball component that
    touches the frontier fails to certify as escaping; a component
    fully inside the ball is a true component of G - script_S.  Ball
    components are identified with components of G - script_S, which
    holds once the ball is grown past every finite bridge between
    pieces; the invariant checks below catch violations in practice.

    A claw centred in the ball's interior is refused with InputError;
    ``certified`` is passed on to :func:`claw_free_on_ball`, which
    skips the centres in it and adds those that pass.
    """
    X = frozenset(X)
    script_S = frozenset(script_S)
    if not X or not script_S:
        raise InputError("decompose needs non-empty X and blocker")
    if X & script_S:
        raise InputError(f"blocker overlaps X: {sorted(X & script_S)}")

    probe = min(X)
    if G.escapes(script_S, probe):
        raise InputError("blocker is not ray-blocking for X")
    for s in sorted(script_S):
        if not G.escapes(script_S - {s}, probe):
            raise InputError(f"blocker is not inclusion-minimal: {s} is removable")

    seen = set(X)
    ring = sorted(X)
    depth = 0
    while script_S - seen:
        depth += 1
        if depth > _ball_radius_cap():
            raise InvariantViolation(
                "blocker vertex unreachable from X",
                missing=sorted(script_S - seen),
            )
        nxt = []
        for u in ring:
            for w in G.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        ring = sorted(nxt)
    radius = max(depth, 1) + BALL_MARGIN
    # first ball big enough to see all of script_S plus slack
    while True:
        B = ball(G, X, radius)
        missing = script_S - B.vertex_set
        if missing:
            raise InvariantViolation(
                "blocker vertex unreachable from X", missing=sorted(missing)
            )
        if not _connected_within(B, X):
            raise InputError("X does not induce a connected subgraph")
        pieces = components(B, removed=script_S)
        finite_pieces = []
        infinite_pieces = []
        ambiguous = False
        for piece in pieces:
            if not piece & B.frontier:
                finite_pieces.append(piece)
            elif G.escapes(script_S, min(piece)):
                infinite_pieces.append(piece)
            else:
                ambiguous = True
        k0_candidates = [p for p in finite_pieces if X <= p]
        if not ambiguous and k0_candidates:
            break
        if not ambiguous and not k0_candidates:
            # X's own piece still leaks through the frontier
            ambiguous = True
        radius += 2
        if radius > _ball_radius_cap():
            raise InputError(
                f"decomposition ball exceeded radius cap {_ball_radius_cap()}"
            )

    require_claw_free(B, B.vertex_set - B.frontier, certified)

    K0 = k0_candidates[0]
    stray = [p for p in finite_pieces if p is not K0]
    if stray:
        raise InvariantViolation(
            "more than one finite component beside the blocker",
            extra=[sorted(p) for p in stray],
        )
    if not infinite_pieces:
        raise InvariantViolation("no infinite component faces the blocker")

    infinite_pieces.sort(key=min)
    parts = []
    assigned: dict[int, int] = {}
    for j, piece in enumerate(infinite_pieces):
        part = frozenset(
            s for s in script_S if any(w in piece for w in B.neighbors(s))
        )
        for s in part:
            if s in assigned:
                raise InvariantViolation(
                    f"separator vertex {s} touches two infinite components",
                    parts=(assigned[s], j),
                )
            assigned[s] = j
        parts.append(part)
    unassigned = script_S - set(assigned)
    if unassigned:
        raise InvariantViolation(
            "separator vertices facing no infinite component",
            vertices=sorted(unassigned),
        )
    for s in sorted(script_S):
        if not any(w in K0 for w in B.neighbors(s)):
            raise InvariantViolation(
                f"separator vertex {s} has no neighbour in the finite component"
            )

    handles = tuple(
        ComponentHandle(G, script_S, piece, B.vertex_set)
        for piece in infinite_pieces
    )
    return SeparatorDecomposition(
        script_S=script_S,
        k=len(infinite_pieces),
        parts=tuple(parts),
        infinite_components=handles,
        finite_component=K0,
        ball=B,
    )


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
