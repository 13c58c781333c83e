"""The run's live cycle against the Cycle functions.

Random cycles are rewired in place by random valid sequences of
extensions (kinds I, II and III), arc replacements walked forwards or
backwards (``reroute``), vertex removals (``drop``, of the newest
vertex too, which brings back an edge the ledger lost), two of these
joined into one step (``join``) and new ledger starts.  The references
are the frozen rewiring and cycle surgery of ``tests/cycles.py``.
After every step the live cycle's order, whether spliced from its base
or walked, and its predecessors equal the Cycle the references build,
its step equals edges_outside taken both ways against the cycle before,
and its ledger equals edges_outside taken both ways against the base.
Arc replacements and removals that do not fit raise the references'
InputErrors; a new path may run back through the arc's own interior.  No shipped family reaches the arc replacements or the
removals (the cold branches of the construction), so the golden
digests do not cover them.
"""

import pytest
from hypothesis import example, given, strategies as st

from cycles import edges_outside, remove_cycle_vertex, replace_arc, rewire
from hamext.errors import InputError
from hamext.extension import Extension
from hamext.graphcore import Cycle
from hamext.infinite import _RunCycle

BASIC = ("I", "II", "III", "arc", "backward arc", "remove", "remove newest")
STEPS = BASIC + ("joined", "start")


@st.composite
def rewirings(draw):
    order = draw(st.permutations(range(draw(st.integers(3, 12)))))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(STEPS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.integers(0, 3),
            ),
            max_size=14,
        )
    )
    return tuple(order), steps


def walk(live):
    out = [live.head]
    while live.succ(out[-1]) != live.head:
        out.append(live.succ(out[-1]))
    return tuple(out)


def step(C, kind, a, b, width, fresh):
    """The Cycle after one step of ``kind`` on C, built by the
    references, and the same step as a function that rewires a live
    cycle in place and returns its ``step``, or None when the step does
    not fit C.  Fresh vertices are taken from ``fresh`` on, at most
    eight."""
    n = len(C)
    u = C.order[a % n]
    if kind == "I":
        e = Extension("I", fresh, u)
    elif kind == "II":
        e = Extension("II", fresh, u, x=fresh + 1)
    elif kind == "III":
        ys = [y for y in C.order if y not in (u, C.succ(u)) and C.succ(y) != u]
        if not ys:
            return None
        e = Extension("III", fresh, u, y=ys[b % len(ys)])
    elif kind in ("remove", "remove newest"):
        if n < 4:
            return None
        # removing the newest vertex undoes the last kind I step, so
        # the edge it lost comes back
        h = u if kind == "remove" else max(C.order)
        return remove_cycle_vertex(C, h), lambda live: live.drop(h)
    elif kind == "joined":
        first = step(C, BASIC[a % len(BASIC)], a // 7, b, width, fresh)
        if first is None:
            return None
        second = step(first[0], BASIC[b % len(BASIC)], b // 7, a, width, fresh + 4)
        if second is None:
            return None
        return second[0], lambda live: live.join(first[1](live), second[1](live))
    else:
        # an arc of 2 .. 4 vertices, replaced by a path through
        # 1 .. 3 fresh vertices, with at least three vertices left
        length = 2 + b % min(3, n - 1)
        i = C.index(u)
        arc = tuple(C.order[(i + t) % n] for t in range(length))
        if kind == "backward arc":
            arc = arc[::-1]
        new_arc = (arc[0], *range(fresh, fresh + 1 + width % 3), arc[-1])
        return replace_arc(C, arc, new_arc), lambda live: live.reroute(arc, new_arc)
    return rewire(C, e), lambda live: live.apply(e)


@given(rewirings())
# every kind of step in turn, each of which fits, whatever is generated
@example(((0, 1, 2, 3, 4, 5, 6), [(kind, 1, 2, 1) for kind in STEPS]))
def test_live_cycle_follows_the_cycle_functions(case):
    order, steps = case
    C = base = Cycle(order)
    live = _RunCycle(C)
    fresh = 100
    for kind, a, b, width in steps:
        if kind == "start":
            base = live.freeze()
            assert base == C
            live.start(base)
        else:
            done = step(C, kind, a, b, width, fresh)
            if done is None:
                continue
            fresh += 8
            prev, (C, rewire) = C, done
            rewire(live)
            # the step's diff, as canonical pairs, is what separates the cycles
            removed, added = live.step
            assert set(removed) == {tuple(sorted(p)) for p in edges_outside(prev, C)}
            assert set(added) == {tuple(sorted(p)) for p in edges_outside(C, prev)}
        assert live.order == C.order == walk(live)
        assert len(live) == len(C)
        assert all(live.pred(v) == C.pred(v) for v in C.order)
        assert live.lost.keys() == {tuple(sorted(p)) for p in edges_outside(base, C)}
        # the pairs a run's edge check reads, kept or not: every pair the
        # cycle walks and base does not, as a canonical pair
        assert live.gained == {tuple(sorted(p)) for p in edges_outside(C, base)}
        # while kept, each lost pair as base walks it
        if live.kept:
            assert all(base.succ(a) == b for a, b in live.lost.values())
        assert live.new_vertices() == set(C.order) - set(base.order)
    assert live.freeze() == C


@st.composite
def surgeries(draw):
    """A cycle, and an arc replacement or a removal that may not fit
    it: ends off the cycle or changed, arcs not consecutive, interiors
    on the cycle or repeated, too few vertices left.  An arc has at
    most as many vertices as the cycle."""
    n = draw(st.integers(3, 7))
    order = draw(st.permutations(range(n)))
    pool = st.integers(0, n + 2)
    if draw(st.booleans()):
        return tuple(order), ("drop", draw(pool))
    arc = tuple(draw(st.lists(pool, max_size=n)))
    new_arc = tuple(draw(st.lists(pool, max_size=5)))
    if draw(st.booleans()) and len(arc) >= 2 and len(new_arc) >= 2:
        new_arc = (arc[0], *new_arc[1:-1], arc[-1])
    return tuple(order), ("arc", arc, new_arc)


def _outcome(run):
    try:
        return run().order
    except InputError as exc:
        return str(exc)


@given(surgeries())
def test_surgery_refuses_what_the_cycle_functions_refuse(case):
    order, (kind, *args) = case
    live = _RunCycle(Cycle(order))
    if kind == "drop":
        want = _outcome(lambda: remove_cycle_vertex(Cycle(order), *args))
        rewire = live.drop
    else:
        want = _outcome(lambda: replace_arc(Cycle(order), *args))
        rewire = live.reroute
    got = _outcome(lambda: (rewire(*args), live)[1])
    assert got == want


@pytest.mark.parametrize(
    "arc, new_arc, message",
    [
        ((0,), (0, 5), "arcs need at least two vertices"),
        ((0, 1), (0, 5, 2), "replacement arc must keep its endpoints"),
        ((7, 1), (7, 5, 1), "7 is not on the cycle"),
        ((0, 2), (0, 5, 2), "arc is not consecutive on the cycle"),
        ((0, 1), (0, 3, 1), "replacement interior collides with the cycle"),
        ((0, 1), (0, 5, 5, 1), "replacement interior repeats a vertex"),
        ((0, 1, 2), (0, 2), "a cycle needs at least three vertices"),
    ],
)
def test_arc_replacement_refusals(arc, new_arc, message):
    live = _RunCycle(Cycle((0, 1, 2)) if len(arc) == 3 else Cycle((0, 1, 2, 3)))
    with pytest.raises(InputError, match=message):
        live.reroute(arc, new_arc)
    with pytest.raises(InputError, match=message):
        replace_arc(Cycle(live.order), arc, new_arc)


def test_join_cancels_what_a_later_step_undoes():
    # kind I puts 9 between 0 and 1 and drop takes it out again; drop
    # takes 1 out and reroute puts it back: each pair of steps removes
    # and adds edges, and their net change is nothing
    live = _RunCycle(Cycle((0, 1, 2, 3)))
    live.join(live.apply(Extension("I", 9, 0)), live.drop(9))
    assert live.step == (set(), set())
    live.join(live.drop(1), live.reroute((0, 2), (0, 1, 2)))
    assert live.step == (set(), set())
    assert live.order == (0, 1, 2, 3) and not live.gained and not live.lost


@pytest.mark.parametrize(
    "arc, new_arc",
    [((0, 1, 2, 3), (0, 2, 1, 9, 3)), ((3, 2, 1, 0), (3, 1, 2, 9, 0))],
)
def test_arc_replacement_may_reuse_the_arc_interior(arc, new_arc):
    # the arc's interior leaves the cycle in the same rewiring, so the
    # new path may run back through it; the edge 1-2, which both walk,
    # is removed and added again by the step, and the ledger nets it out
    C = Cycle((0, 1, 2, 3, 4, 5))
    D = replace_arc(C, arc, new_arc)
    live = _RunCycle(C)
    removed, added = live.reroute(arc, new_arc)
    assert live.order == D.order == walk(live)
    assert all(live.pred(v) == D.pred(v) for v in D.order)
    assert live.lost.keys() == set(removed) - set(added) == {
        tuple(sorted(p)) for p in edges_outside(C, D)
    }
    assert live.gained == set(added) - set(removed) == {
        tuple(sorted(p)) for p in edges_outside(D, C)
    }
    assert set(removed) & set(added) == {(1, 2)}
