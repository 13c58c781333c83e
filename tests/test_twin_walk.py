"""component_walk's one search per closed-twin class against the walk
it replaced.

The reference below is component_walk as it stood before it kept one
answer per closed neighbourhood: a search of G - blocker from every
vertex it is asked about.  Seeded random blow-ups, each vertex of a
small graph replaced by a clique of closed twins, with rows in
ascending, descending or random order, must give both the same answers
and cap errors for vertices in none of the known sets, asking for the
same rows in the same order behind a row cache.  The verifier must
then walk the same way on a wide family: its searches past the first
ring must not grow with the fiber width, and mutations of a GZ6 trace,
whose fibers are classes of six closed twins, must give the frozen
verifier's verdicts and oracle queries."""

import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import hamext.verify as verify
from hamext.errors import InputError
from hamext.families import gen_G_inf
from hamext.graphcore import BALL_RADIUS_MAX
from hamext.infinite import hamilton_sequence
from hamext.trace import SequenceTrace
from hamext.verify import component_walk, verify_hc_extract
from test_verify_reference import _mutate, _same_outcome


def reference_walk(G, blocker, home, foreign, cap):
    neighbors = G.neighbors

    def walk(v: int) -> bool:
        # the blocker is never entered, so it starts as seen
        seen = set(blocker)
        seen.add(v)
        ring = [v]
        for _ in range(cap):
            nxt = []
            for u in ring:
                for w in neighbors(u):
                    if w in seen:
                        continue
                    if w in home:
                        return True
                    for out in foreign:
                        if w in out:
                            return False
                    seen.add(w)
                    nxt.append(w)
            if not nxt:
                return False
            ring = sorted(nxt)
        raise InputError(
            f"component membership query for {v} exceeded the search cap "
            f"{cap}"
        )

    return walk


class _Rows:
    """A neighbour oracle over fixed rows behind a row cache, as
    LazyGraph holds one: ``asked`` lists the rows fetched, in order,
    and ``reads`` counts every row read, cached or not."""

    def __init__(self, rows):
        self.rows, self.cache, self.asked, self.reads = rows, {}, [], 0

    def neighbors(self, u):
        self.reads += 1
        if u not in self.cache:
            self.asked.append(u)
            self.cache[u] = self.rows[u]
        return self.cache[u]


def _blow_up(rng):
    """Rows of a random graph on 2-7 vertices with each vertex replaced
    by a clique of 1-3 closed twins, under a random relabelling: all in
    ascending order, all in descending order, or each in its own random
    order."""
    m = rng.randint(2, 7)
    sizes = [rng.randint(1, 3) for _ in range(m)]
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    classes, start = [], 0
    for size in sizes:
        classes.append(ids[start : start + size])
        start += size
    adj = {v: set() for v in ids}
    for a in range(m):
        for b in range(a, m):
            if a == b or rng.random() < 0.4:
                for x in classes[a]:
                    adj[x].update(y for y in classes[b] if y != x)
                    for y in classes[b]:
                        if y != x:
                            adj[y].add(x)
    order = rng.choice(("ascending", "descending", "shuffled"))
    rows = {v: sorted(ws, reverse=order == "descending") for v, ws in adj.items()}
    if order == "shuffled":
        for row in rows.values():
            rng.shuffle(row)
    return {v: tuple(row) for v, row in rows.items()}


def _known_sets(rng, vertices):
    """Random blocker, home and 0-2 foreign sets, small enough that most
    walks search past their first ring."""

    def some():
        return frozenset(rng.sample(vertices, rng.randint(0, len(vertices) // 4)))

    return some(), some(), [some() for _ in range(rng.randint(0, 2))]


def _answers(walk, queries):
    out = []
    for v in queries:
        try:
            out.append(walk(v))
        except InputError as exc:
            out.append(str(exc))
    return out


def test_twin_walk_matches_reference_on_blow_ups(monkeypatch):
    rng = random.Random(30)
    seen = Counter()
    for case in range(3000):
        rows = _blow_up(rng)
        vertices = sorted(rows)
        blocker, home, foreign = _known_sets(rng, vertices)
        # the walk is asked only about vertices in none of the known sets
        unknown = [v for v in vertices if v not in blocker.union(home, *foreign)]
        if not unknown:
            continue
        queries = [rng.choice(unknown) for _ in range(2 * len(vertices))]
        cap = rng.choice((1, 2, 3, BALL_RADIUS_MAX))
        monkeypatch.setattr(verify, "BALL_RADIUS_MAX", cap)
        want_G, got_G = _Rows(rows), _Rows(rows)
        want = _answers(reference_walk(want_G, blocker, home, foreign, cap), queries)
        got = _answers(component_walk(got_G, blocker, home, foreign), queries)
        assert got == want, case
        assert got_G.asked == want_G.asked, case
        seen.update(str(a) if isinstance(a, bool) else "cap" for a in want)
        seen["rows saved"] += want_G.reads - got_G.reads
    # the blow-ups reach both answers and the cap, and twins answered
    # from the map save rows the reference reads again
    assert seen["True"] and seen["False"] and seen["cap"], seen
    assert seen["rows saved"] > 0, seen


def test_exhausted_component_answers_false_for_both_twins():
    # a triangle 0, 1, 2 hangs off the blocker vertex 3; the rest of the
    # graph holds the known sets, so a walk from the triangle runs out
    rows = _Rows(
        {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2, 4), 4: (3, 5), 5: (4,)}
    )
    walk = component_walk(rows, frozenset({3}), frozenset({4}), [frozenset({5})])
    assert walk(0) is False
    assert rows.asked == [0, 1, 2]
    # 1 is a closed twin of 0: it reads its own row and takes 0's answer
    reads = rows.reads
    assert walk(1) is False
    assert rows.reads == reads + 1


# ---------------------------------------------------------------------------
# the verifier's walks


def _tallying(monkeypatch):
    """Patch the verifier's component_walk to tally its walks: how many,
    how many searched past their first ring, how many a closed twin
    answered, and the most walked vertices of one closed-twin class that
    the first ring left undecided, in one walk closure."""
    tally = Counter()
    make = verify.component_walk

    def tallied(G, blocker, home, foreign):
        read, got = [], {}

        def neighbors(u):
            read.append(u)
            got[u] = G.neighbors(u)
            return got[u]

        walk = make(SimpleNamespace(neighbors=neighbors), blocker, home, foreign)
        classes = Counter()

        def counted(v):
            start = len(read)
            answer = walk(v)
            fresh = [w for w in got[v] if w not in blocker]
            tally["walks"] += 1
            if fresh and not any(
                w in home or any(w in out for out in foreign) for w in fresh
            ):
                searched = any(u != v for u in read[start:])
                tally["searches" if searched else "twin answers"] += 1
                twins = frozenset(got[v]) | {v}
                classes[twins] += 1
                tally["largest class"] = max(tally["largest class"], classes[twins])
            return answer

        return counted

    monkeypatch.setattr(verify, "component_walk", tallied)
    return tally


def test_searches_past_first_ring_do_not_grow_with_width(monkeypatch):
    tally = _tallying(monkeypatch)
    counts = {}
    for n in (2, 8):
        tally.clear()
        assert verify_hc_extract(hamilton_sequence(gen_G_inf(n), 4)).all_ok
        counts[n] = tally["walks"], tally["searches"]
    # GZ8 walks four times as many vertices, each fiber a class of eight
    # closed twins, and searches past the first ring as often as GZ2
    assert counts == {2: (48, 18), 8: (192, 18)}


def test_gz6_mutations_match_reference(monkeypatch):
    tally = _tallying(monkeypatch)
    base = gen_G_inf(6)
    text = hamilton_sequence(base, 3).to_json()
    rng = random.Random(6)
    seen = Counter()
    for _ in range(40):
        obj = json.loads(text)
        path = _mutate(obj, rng)
        try:
            bad = SequenceTrace.from_json_obj(obj)
        except InputError:
            seen["refused"] += 1
            continue
        kind, value = _same_outcome(bad, base, label=path)
        seen[kind if kind != "verdict" else value["all_ok"]] += 1
    assert seen[True] and seen[False] and seen["InputError"], seen
    # classes of more than three closed twins were walked in one closure,
    # and all but the first of a class answered from the map
    assert tally["largest class"] > 3 and tally["twin answers"], tally
