"""Ray blockers, minimal separators, and the two-sided decomposition.

Around a finite cycle of an infinite locally finite graph sits a
finite set of vertices every escaping ray must cross.  Shrinking that
set to inclusion-minimality and splitting it along the components it
faces yields the separator structure the infinite construction climbs:
one finite component holding the cycle, and one minimal separator per
infinite component.
"""

from __future__ import annotations

from .conditions import claw_free_on_ball
from .errors import InputError, InvariantViolation
from .graphcore import (
    BALL_RADIUS_MAX,
    Cycle,
    FiniteGraph,
    LazyGraph,
    Record,
    Region,
    _components_within,
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


def _require_cycle_edges(
    G: LazyGraph, C: Cycle, region: Region, walked=None
) -> None:
    """Raise InputError at the first edge of C, in cycle order, missing
    in G.  Edges the region has already seen checked are skipped, so a
    run checks each edge of each cycle once: when it first appears.
    ``walked``, when given, holds the pairs C walks whose edges the
    region's last checked cycle lacks, in C's order; otherwise they are
    found from both cycles' edge lists.  The region's X must be V(C):
    once every edge is found, C spans it (Region.spanned_by)."""
    order, last = C.order, region.checked_cycle
    if last is None:
        walked = zip(order, order[1:] + order[:1])
    elif walked is None:
        gained = set(C.edges()).difference(last.edges())
        # each pair as C walks it, in C's order
        walked = sorted(
            ((u, v) if C.succ(u) == v else (v, u) for u, v in gained),
            key=lambda pair: C.index(pair[0]),
        )
    for u, v in walked:
        if not G.adjacent(u, v):
            raise InputError(f"cycle edge ({u}, {v}) missing in graph")
    region.spanned_by(C)


def minimal_ray_blocker(
    G: LazyGraph, C: Cycle, region: Region | None = None, walked=None
) -> frozenset[int]:
    """Inclusion-minimal subset of N(C) meeting every ray leaving C.

    The full neighbourhood N(C) always blocks: a ray starting on the
    cycle first leaves V(C) at a vertex adjacent to the cycle.  One
    greedy pass in ascending id order then removes whatever is not
    needed; monotonicity of blocking makes the single pass sufficient.

    N(C) is layer 1 of ``region``, whose X must be V(C); without one, a
    fresh region is grown from V(C).  ``walked`` is passed on to
    _require_cycle_edges.
    """
    if not G.escapes(frozenset(), G.root):
        raise InputError("graph not infinite")
    if region is None:
        region = Region(G, C.order)
    _require_cycle_edges(G, C, region, walked)
    region.extend(1)
    candidates = sorted(region.layers[1])
    # the cycle is connected and disjoint from every candidate set, so
    # all its vertices share one escape verdict; testing one suffices:
    # the least, which decompose probes too, so its queries are cached
    probe = region.least
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


class SeparatorDecomposition(Record):
    """Separator structure around a seed set X.

    parts[j] is the minimal separator facing infinite_components[j],
    a component's piece in the ball; the parts partition script_S.
    finite_component is the unique finite component of G - script_S
    and contains X.  ball is the working ball every later step stays in.
    """

    __slots__ = _fields = (
        "script_S", "k", "parts", "infinite_components", "finite_component", "ball"
    )

    def __init__(
        self,
        script_S: frozenset[int],
        k: int,
        parts: tuple[frozenset[int], ...],
        infinite_components: tuple[frozenset[int], ...],
        finite_component: frozenset[int],
        ball: FiniteGraph,
    ) -> None:
        self.script_S = script_S
        self.k = k
        self.parts = parts
        self.infinite_components = infinite_components
        self.finite_component = finite_component
        self.ball = ball

    def to_json_obj(self) -> dict:
        return {
            "script_S": sorted(self.script_S),
            "k": self.k,
            "parts": [sorted(p) for p in self.parts],
            "finite_component": sorted(self.finite_component),
            "infinite_pieces": [sorted(p) for p in self.infinite_components],
        }


def _pieces(
    B: FiniteGraph, region: Region, script_S: frozenset[int]
) -> tuple[frozenset[int], list[tuple[int, frozenset[int]]]]:
    """X's piece, and every component of B - script_S with its smallest
    member, in ascending order of it, for B the region's last ball and a
    connected X.  Only the ball outside X is split, once; the components
    there that meet N(X) join X, and as they come in ascending order, X's
    piece has X's smallest member or the first one's.
    """
    X, near = region.layers[0], region.layers[1]
    rest = set().union(*region.layers[1 : region.radius + 1])
    rest -= script_S
    joined, pieces = [], []
    for comp in _components_within(B.adj, rest):
        if comp.isdisjoint(near):
            pieces.append((min(comp), comp))
        else:
            joined.append(comp)
    own = frozenset().union(X, *joined)
    least = min(region.least, min(joined[0])) if joined else region.least
    return own, sorted([*pieces, (least, own)])


# how far past the deepest separator vertex decompose's first ball
# reaches; the degree-condition check and the Steiner trees rely on it
BALL_MARGIN = 6


def decompose(
    G: LazyGraph,
    X,
    script_S,
    *,
    certified: set[int] | None = None,
    region: Region | None = None,
    claw_free: bool = False,
) -> SeparatorDecomposition:
    """Split G along a minimal ray blocker of X.

    Works on a ball around X that starts ``BALL_MARGIN`` past the
    deepest separator vertex and grows while any ball component that
    touches the frontier fails to certify as escaping; a component
    fully inside the ball is a true component of G - script_S.  Ball
    components are identified with components of G - script_S, which
    holds once the ball is grown past every finite bridge between
    pieces; the invariant checks below catch violations in practice.

    Each infinite component comes out as its piece, its part in the
    ball, in ascending order of smallest member.  The ball reaches
    ``BALL_MARGIN`` past every separator vertex, so a piece answers for
    its component within distance BALL_MARGIN - 1 of script_S.

    A claw centred in the ball's interior is refused with InputError;
    ``certified`` is passed on to :func:`claw_free_on_ball`, which
    skips the centres in it and adds those that pass.  It must hold the
    vertices of X the region had before its last grow (as in a run,
    where each iteration's scan certified its whole interior), so only
    ``region.grown`` and the layers short of the frontier are handed to
    the scan.  With ``claw_free``, G is known to be claw-free and the
    scan is skipped.

    The balls come from ``region``, whose X must be X; without one, a
    fresh region is grown from X.  X must induce a connected subgraph,
    which is searched only over what the region gained since a cycle
    spanning X was found edge by edge in G (Region.spanned_by).  In a
    run, minimal_ray_blocker has just done that for C with V(C) = X, so
    nothing is searched; on a fresh region all of X is.
    """
    script_S = frozenset(script_S)
    if region is None:
        region = Region(G, X)
    # X as the region keeps it, not copied
    X = region.layers[0]
    if not X or not script_S:
        raise InputError("decompose needs non-empty X and blocker")
    if X & script_S:
        raise InputError(f"blocker overlaps X: {sorted(X & script_S)}")
    probe = region.least
    if G.escapes(script_S, probe):
        raise InputError("blocker is not ray-blocking for X")
    for s in sorted(script_S):
        if not G.escapes(script_S - {s}, probe):
            raise InputError(f"blocker is not inclusion-minimal: {s} is removable")

    dist = region.dist
    cap = BALL_RADIUS_MAX
    while True:
        missing = [s for s in script_S if dist.get(s, cap + 1) > cap]
        if not missing:
            break
        if region.reach >= cap:
            raise InvariantViolation(
                "blocker vertex unreachable from X", missing=sorted(missing)
            )
        region.extend(region.reach + 1)
    depth = max(dist[s] for s in script_S)
    radius = max(depth, 1) + BALL_MARGIN
    # first ball big enough to see all of script_S plus slack
    while True:
        B = region.ball(radius)
        missing = script_S - B.vertex_set
        if missing:
            raise InvariantViolation(
                "blocker vertex unreachable from X", missing=sorted(missing)
            )
        region.require_connected()
        own, pieces = _pieces(B, region, script_S)
        finite_pieces = []
        infinite_pieces = []
        ambiguous = False
        for least, piece in pieces:
            if not piece & B.frontier:
                finite_pieces.append(piece)
            elif G.escapes(script_S, least):
                infinite_pieces.append(piece)
            else:
                ambiguous = True
        # X lies in its own piece only, as the pieces are disjoint; while
        # that piece still leaks through the frontier, the ball grows
        if not ambiguous and any(p is own for p in finite_pieces):
            break
        radius += 2
        if radius > BALL_RADIUS_MAX:
            raise InputError(
                f"decomposition ball exceeded radius cap {BALL_RADIUS_MAX}"
            )

    if not claw_free:
        # the interior is X and the layers short of the frontier; with
        # ``certified``, of X only what the region grew by last can be left
        interior = set().union(*region.layers[1:radius])
        interior |= X if certified is None else region.grown.difference(certified)
        require_claw_free(B, interior, certified)

    stray = [p for p in finite_pieces if p is not own]
    if stray:
        raise InvariantViolation(
            "more than one finite component beside the blocker",
            extra=[sorted(p) for p in stray],
        )
    if not infinite_pieces:
        raise InvariantViolation("no infinite component faces the blocker")

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
        if not any(w in own for w in B.neighbors(s)):
            raise InvariantViolation(
                f"separator vertex {s} has no neighbour in the finite component"
            )

    return SeparatorDecomposition(
        script_S=script_S,
        k=len(infinite_pieces),
        parts=tuple(parts),
        infinite_components=tuple(infinite_pieces),
        finite_component=own,
        ball=B,
    )
