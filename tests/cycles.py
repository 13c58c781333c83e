"""Whole-cycle reads that only the tests need: the edge set of a cycle,
the pairs of one cycle whose edges another lacks (both take anything
with an ``order``, a Cycle or a live cycle), and a live cycle to hand a
construction stage in place of a frozen one."""

from itertools import compress, repeat
from operator import not_, sub

from hamext.graphcore import Edge
from hamext.infinite import _RunCycle


def edge_set(C) -> frozenset[Edge]:
    """The cycle's edges as canonical pairs."""
    order = C.order
    return frozenset(
        (u, v) if u <= v else (v, u) for u, v in zip(order, order[1:] + order[:1])
    )


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
    live.reset(C)
    return live
