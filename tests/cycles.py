"""Whole-cycle reads and rewirings that only the tests need: the edge
set of a cycle, the first pair of cycles whose shared edge a later
cycle lacks, read off whole edge sets, the pairs of one cycle whose
edges another lacks (both take anything with an ``order``, a Cycle or
a live cycle), a live cycle to hand a construction stage in place of
a frozen one, an extension applied by slicing a frozen cycle's order,
and the frozen cycle surgery the construction's cold branches once ran
on (an arc replaced, a vertex shortcut, and a live cycle reset to the
result by a whole-cycle edge diff), kept as references for the live
cycle's own operations."""

from itertools import compress, repeat
from operator import not_, sub

from hamext.errors import InputError
from hamext.extension import Extension, LiveCycle, _check_rewiring
from hamext.graphcore import Cycle, Edge
from hamext.infinite import _RunCycle


def edge_set(C) -> frozenset[Edge]:
    """The cycle's edges as canonical pairs."""
    order = C.order
    return frozenset(
        (u, v) if u <= v else (v, u) for u, v in zip(order, order[1:] + order[:1])
    )


def first_persistence_failure(
    edge_sets,
) -> tuple[int, int, list[Edge]] | None:
    """First pair i < j of cycles sharing an edge that cycle j+1 lacks.

    Pairs are ordered by j, then i, and the lost edges come sorted.
    One pass keeps the union E_0 | ... | E_{j-1}: an edge of E_j seen
    earlier must survive into E_{j+1}.  Only a failing j is searched
    for its smallest i.
    """
    earlier: set[Edge] = set()
    for j in range(len(edge_sets) - 1):
        if not (earlier & edge_sets[j]) <= edge_sets[j + 1]:
            for i in range(j):
                lost = (edge_sets[i] & edge_sets[j]) - edge_sets[j + 1]
                if lost:
                    return i, j, sorted(lost)
        earlier |= edge_sets[j]
    return None


def edges_outside(C, other) -> list[Edge]:
    """The pairs (v, succ(v)) of C whose edge is not an edge of
    ``other``, in C's order.

    Two vertices are consecutive on ``other`` when their positions on
    it differ by 1 or by its length less 1, so the pairs are found from
    those differences, without a Python step per vertex.
    """
    order, n = C.order, len(other.order)
    index = dict(zip(other.order, range(n)))
    # a vertex off ``other`` is placed too far from any other to pass
    pos = list(map(index.get, order, repeat(-2 * n - 5, len(order))))
    steps = map(sub, pos[1:] + pos[:1], pos)
    adjacent = {1, -1, n - 1, 1 - n}.__contains__
    picked = compress(range(len(order)), map(not_, map(adjacent, steps)))
    return [(order[i], order[i + 1 - len(order)]) for i in picked]


def live_following(builder, C) -> _RunCycle:
    """A live cycle equal to the frozen cycle C, whose ledger starts at
    the builder's start cycle, as the stages after stage A take it."""
    live = _RunCycle(builder.C)
    reset(live, C)
    return live


def rewired(order: tuple[int, ...], e: Extension) -> tuple[int, ...]:
    """The order LiveCycle.apply leaves when it rewires a cycle whose
    order from its head was ``order``: what walking the successor map
    from the head gives, cut and pasted from slices instead."""
    i = order.index(e.u) + 1
    if e.kind == "I":
        return order[:i] + (e.target,) + order[i:]
    if e.kind == "II":
        return order[:i] + (e.target, e.x) + order[i:]
    # the walk starts at the target: v, y back to u+, then y+ on to u
    rot = order[i:] + order[:i]
    k = rot.index(e.y)
    return (e.target,) + rot[k::-1] + rot[k + 1 :]


def rewire(C: Cycle, e: Extension) -> Cycle:
    """The cycle LiveCycle.apply leaves after rewiring C according to
    e, after the same structural checks, cut and pasted from C's order."""
    _check_rewiring(e, C, C.succ)
    return Cycle(rewired(C.order, e))


def replace_arc(C: Cycle, arc: tuple[int, ...], new_arc: tuple[int, ...]) -> Cycle:
    """Replace a consecutive arc of C (either direction) by a new path
    with the same endpoints whose interior avoids the cycle outside the
    arc's own interior."""
    if len(arc) < 2 or len(new_arc) < 2:
        raise InputError("arcs need at least two vertices")
    if arc[0] != new_arc[0] or arc[-1] != new_arc[-1]:
        raise InputError("replacement arc must keep its endpoints")
    order = C.order
    n = len(order)
    i = order.index(arc[0]) if arc[0] in C else -1
    if i < 0:
        raise InputError(f"{arc[0]} is not on the cycle")
    forward = tuple(order[(i + t) % n] for t in range(len(arc)))
    if forward != arc:
        backward = tuple(order[(i - t) % n] for t in range(len(arc)))
        if backward != arc:
            raise InputError("arc is not consecutive on the cycle")
        order = tuple(reversed(order))
        i = order.index(arc[0])
    rotated = order[i:] + order[:i]
    interior = set(new_arc[1:-1])
    if any(v in C and v not in arc[1:-1] for v in interior):
        raise InputError("replacement interior collides with the cycle")
    if len(interior) != len(new_arc) - 2:
        raise InputError("replacement interior repeats a vertex")
    return Cycle(tuple(new_arc) + rotated[len(arc):])


def remove_cycle_vertex(C: Cycle, h: int) -> Cycle:
    """Shortcut h out of the cycle, joining its two neighbours."""
    if h not in C:
        raise InputError(f"{h} is not on the cycle")
    if len(C) < 4:
        raise InputError("cannot shorten a triangle")
    return Cycle(tuple(v for v in C.order if v != h))


def reset(live: _RunCycle, C: Cycle) -> None:
    """Make the live cycle C, built from it frozen; the ledger and
    ``step`` take in the change from a whole-cycle diff."""
    before, after = set(live.freeze().edges()), set(C.edges())
    live._record(before - after, after - before)
    LiveCycle.__init__(live, C)
    order = C.order
    live._pred = dict(zip(order, order[-1:] + order[:-1]))
    live.kept = False
