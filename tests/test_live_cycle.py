"""The run's live cycle against the Cycle functions.

Random cycles are rewired by random valid sequences of extensions
(kinds I, II and III), arc replacements walked forwards or backwards,
vertex removals (of the newest vertex too, which brings back an edge
the ledger lost) and new ledger starts.  After every step the live
cycle's order, whether spliced from its base or walked, and its
predecessors equal the Cycle the Cycle functions build, and its ledger
equals edges_outside taken both ways against the base.  No shipped
family reaches the arc replacements or the removals (the cold branches
of the construction), so the golden digests do not cover them.
"""

from hypothesis import given, strategies as st

from cycles import edges_outside
from hamext.extension import Extension, apply_extension
from hamext.graphcore import Cycle
from hamext.infinite import _RunCycle, remove_cycle_vertex, replace_arc

STEPS = (
    "I", "II", "III", "arc", "backward arc", "remove", "remove newest", "start"
)


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
    """The Cycle after one step of ``kind`` on C, and the extension it
    applies (None for an arc replacement or a removal), or None when
    the step does not fit C."""
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
    elif kind == "remove":
        return (remove_cycle_vertex(C, u), None) if n > 3 else None
    elif kind == "remove newest":
        # undoes the last kind I step, so the edge it lost comes back
        return (remove_cycle_vertex(C, max(C.order)), None) if n > 3 else None
    else:
        # an arc of 2 .. 4 vertices, replaced by a path through
        # 1 .. 3 fresh vertices, with at least three vertices left
        length = 2 + b % min(3, n - 1)
        i = C.index(u)
        arc = tuple(C.order[(i + t) % n] for t in range(length))
        if kind == "backward arc":
            arc = arc[::-1]
        new_arc = (arc[0], *range(fresh, fresh + 1 + width % 3), arc[-1])
        return replace_arc(C, arc, new_arc), None
    return apply_extension(C, e), e


@given(rewirings())
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
            fresh += 4
            prev, (C, e) = C, done
            if e is None:
                live.reset(step(live.freeze(), kind, a, b, width, fresh - 4)[0])
            else:
                live.apply(e)
            # the step's diff, as canonical pairs, is what separates the cycles
            removed, added = live.step
            assert set(removed) == {tuple(sorted(p)) for p in edges_outside(prev, C)}
            assert set(added) == {tuple(sorted(p)) for p in edges_outside(C, prev)}
        assert live.order == C.order == walk(live)
        assert len(live) == len(C)
        assert all(live.pred(v) == C.pred(v) for v in C.order)
        assert live.lost.keys() == {tuple(sorted(p)) for p in edges_outside(base, C)}
        assert live.gained == {tuple(sorted(p)) for p in edges_outside(C, base)}
        # while kept, the gained pairs as the cycle walks them, in its
        # order, and each lost pair as base walks it
        if live.kept:
            pairs = zip(C.order, C.order[1:] + C.order[:1])
            assert live.walked == [p for p in pairs if tuple(sorted(p)) in live.gained]
            assert all(base.succ(a) == b for a, b in live.lost.values())
        assert live.new_vertices() == set(C.order) - set(base.order)
    assert live.freeze() == C
