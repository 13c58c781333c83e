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


def _require_cycle_edges(G: LazyGraph, C: Cycle, gained=None) -> None:
    """Raise InputError at the first edge of C missing in G: of every
    pair of C, in cycle order, or, given ``gained``, of those canonical
    pairs only, in ascending order.  A run passes the pairs its live
    cycle gained since the cycle whose edges were checked before, so it
    checks each edge of each cycle once: when it first appears."""
    order = C.order
    pairs = zip(order, order[1:] + order[:1]) if gained is None else sorted(gained)
    for u, v in pairs:
        if not G.adjacent(u, v):
            raise InputError(f"cycle edge ({u}, {v}) missing in graph")


def minimal_ray_blocker(
    G: LazyGraph, C: Cycle, region: Region, gained=None
) -> frozenset[int]:
    """Inclusion-minimal subset of N(C) meeting every ray leaving C.

    The full neighbourhood N(C) always blocks: a ray starting on the
    cycle first leaves V(C) at a vertex adjacent to the cycle.  One
    greedy pass in ascending id order then removes whatever is not
    needed; monotonicity of blocking makes the single pass sufficient.

    N(C) is layer 1 of ``region``, whose X must be V(C).  ``gained`` is
    passed on to _require_cycle_edges.
    """
    if not G.escapes(frozenset(), G.root):
        raise InputError("graph not infinite")
    _require_cycle_edges(G, C, gained)
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
    """Separator structure around a cycle C.

    script_S is the minimal ray blocker of C, and parts[j] the minimal
    separator facing infinite_components[j], a component's piece in the
    ball; the parts partition script_S.  finite_component is the unique
    finite component of G - script_S and contains V(C).  ball is the
    working ball every later step stays in.
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


# how far past the blocker, which lies in N(C), decompose's first ball
# reaches; the degree-condition check and the Steiner trees rely on it
BALL_MARGIN = 6


def decompose(
    G: LazyGraph,
    C: Cycle,
    region: Region,
    certified: set[int],
    gained=None,
) -> SeparatorDecomposition:
    """Split G along the minimal ray blocker of C.

    The blocker is minimal_ray_blocker(G, C, region, gained), handed
    out as ``script_S``.  It is checked for inclusion-minimality once
    more, and refused when empty: the escape oracle is input, and one
    that is not monotone, or that disagrees across a connected set,
    can break either.  C's edges, all found in G, make V(C) connected.

    Works on a ball around V(C) of radius 1 + BALL_MARGIN that grows
    while any ball component that touches the frontier fails to certify
    as escaping; a component fully inside the ball is a true component
    of G - script_S.  Ball components are identified with components of
    G - script_S, which holds once the ball is grown past every finite
    bridge between pieces; the invariant checks below catch violations
    in practice.

    Each infinite component comes out as its piece, its part in the
    ball, in ascending order of smallest member.  The blocker lies in
    N(C), so the ball reaches ``BALL_MARGIN`` past every separator
    vertex, and a piece answers for its component within distance
    BALL_MARGIN - 1 of script_S.

    The balls come from ``region``, whose X must be V(C).  Unless the
    region is ``decided`` (G is then known to be claw-free), a claw
    centred in the ball's interior is refused with InputError;
    ``certified`` is passed on to :func:`claw_free_on_ball`, which
    skips the centres in it and adds those that pass.  It must hold the
    vertices of X the region had before its last grow (as in a run,
    where each iteration's scan certified its whole interior, or as for
    a fresh region, whose first grow is all of X), so only
    ``region.grown`` and the layers short of the frontier are handed to
    the scan.
    """
    script_S = minimal_ray_blocker(G, C, region, gained)
    if not script_S:
        raise InputError("decompose needs a non-empty blocker")
    probe = region.least
    for s in sorted(script_S):
        if not G.escapes(script_S - {s}, probe):
            raise InputError(f"blocker is not inclusion-minimal: {s} is removable")

    # script_S lies in N(C), the region's layer 1
    radius = 1 + BALL_MARGIN
    while True:
        B = region.ball(radius)
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

    if not region.decided:
        # the interior is X and the layers short of the frontier; of X
        # only what the region grew by last can be left uncertified
        interior = set().union(*region.layers[1:radius])
        interior |= region.grown.difference(certified)
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
