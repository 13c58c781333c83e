import itertools
import json
import random
import re
from enum import IntEnum

import pytest
from hypothesis import example, given, strategies as st

from hamext.errors import FrontierContamination, InputError, InvariantViolation
from hamext.families import gen_G_inf
from hamext.graphcore import (
    BALL_RADIUS_MAX,
    Cycle,
    FiniteGraph,
    LazyGraph,
    ball,
    canonical_edge,
    cycle_from_json_obj,
    cycle_to_json_obj,
    dumps_json,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
    ids_from_json_obj,
    neighborhood_k,
    verify_cycle,
)
from hamext.infinite import (
    CutWitness,
    SequenceTrace,
    _explicit_cut,
    hamilton_sequence,
    verify_hc_extract,
)
from cycles import edge_set, edges_outside
from records import rebuilt
from separators import components
from wholeball import distances_from


def k4():
    return FiniteGraph.from_edges(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])


def path(n):
    return FiniteGraph.from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def test_from_edges_basic():
    G = FiniteGraph.from_edges([2, 0, 1], [(0, 1), (2, 1)])
    assert G.vertices == (0, 1, 2)
    assert G.neighbors(1) == (0, 2)
    assert G.degree(1) == 2
    assert G.adjacent(0, 1) and not G.adjacent(0, 2)
    assert G.edges() == [(0, 1), (1, 2)]


def test_from_edges_rejects_bad_input():
    with pytest.raises(InputError):
        FiniteGraph.from_edges([0, 1], [(0, 0)])
    with pytest.raises(InputError):
        FiniteGraph.from_edges([0, 1], [(0, 5)])
    with pytest.raises(InputError):
        FiniteGraph.from_edges([0, 0, 1], [])
    with pytest.raises(InputError):
        k4().neighbors(99)


@pytest.mark.parametrize(
    "vertices, edges, labels, message",
    [
        ([0, 1, 1, 2, 2], [], None, "duplicate vertex id 1"),
        ([0, "1", 2.0], [], None, "vertex ids must be integers, got '1'"),
        ([0, 2.0, "1"], [], None, "vertex ids must be integers, got 2.0"),
        ([1, True], [], None, "vertex ids must be integers, got True"),
        ([0, 1, 0, True], [], None, "duplicate vertex id 0"),
        ([0, 1, 2], [(0, 1), (0, 1, 2), 5], None, "edge must be a pair, got (0, 1, 2)"),
        ([0, 1, 2], [(0, 1), 5], None, "edge must be a pair, got 5"),
        ([0, 1, 2], [[0, 1], [2]], None, "edge must be a pair, got [2]"),
        (
            [0, 1, 2], [(0, True), (1.0, 2)], None,
            "edge endpoints must be integer ids, got (0, True)",
        ),
        (
            [0, 1, 2], [(1.0, 2), (0, True)], None,
            "edge endpoints must be integer ids, got (1.0, 2)",
        ),
        ([0, 1, 2], [(0, 1), (2, 2), (0, 9)], None, "self-loop at vertex 2"),
        (
            [0, 1, 2], [(0, 9), (2, 2)], None,
            "edge (0, 9) has an endpoint outside the vertex set",
        ),
        ([0, 1, 2], [(9, 9)], None, "self-loop at vertex 9"),
        (
            [0, 1, 2], [(9, 0)], None,
            "edge (9, 0) has an endpoint outside the vertex set",
        ),
        (
            [0, 1, 2], [(0, 1), (1, 0)], {0: "a", 7: "b", 5: "c"},
            "labels for unknown vertices: [5, 7]",
        ),
        (
            [0, 1, 2], [(0, 9)], {7: "b"},
            "edge (0, 9) has an endpoint outside the vertex set",
        ),
    ],
)
def test_from_edges_refusals_name_the_first_offender(vertices, edges, labels, message):
    # vertices are checked in their order, then edges in theirs, then labels
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        FiniteGraph.from_edges(vertices, edges, labels)


def test_from_edges_equals_the_graph_built_from_its_rows():
    rng = random.Random(24)
    for trial in range(60):
        n = rng.randint(0, 30)
        ids = rng.sample(range(-40, 60), n)
        pairs = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < 0.3]
        # each edge in either direction, some twice
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        edges += rng.sample(edges, len(edges) // 4)
        rng.shuffle(edges)
        labels = {v: f"v{v}" for v in ids if rng.random() < 0.3} if trial % 2 else None
        vertices = tuple(sorted(ids))
        rows = {v: set() for v in vertices}
        for u, v in edges:
            rows[u].add(v)
            rows[v].add(u)
        want = FiniteGraph(vertices, {v: tuple(sorted(rows[v])) for v in vertices}, labels=labels)
        obj = {"vertices": ids, "edges": [list(e) for e in edges]}
        if labels is not None:
            obj["labels"] = {str(v): s for v, s in labels.items()}
        for G in (FiniteGraph.from_edges(ids, edges, labels), graph_from_json_obj(obj)):
            assert G == want
            assert G.adj == want.adj and list(G.adj) == list(want.adj)
            assert G.vertices == want.vertices
            assert G.vertex_set == want.vertex_set
            assert list(G.vertex_set) == list(want.vertex_set)
            assert G.labels == want.labels
            probe = [*vertices, 100]
            for u in vertices:
                assert [G.adjacent(u, v) for v in probe] == [want.adjacent(u, v) for v in probe]
            assert [G.has_vertex(v) for v in probe] == [want.has_vertex(v) for v in probe]
            with pytest.raises(InputError, match="^unknown vertex 100$"):
                G.adjacent(100, vertices[0] if vertices else 0)


def test_induced_subgraph():
    G = k4().induced([0, 1, 2])
    assert G.vertices == (0, 1, 2)
    assert len(G.edges()) == 3
    assert G.is_connected()


def test_cycle_navigation():
    C = Cycle((3, 1, 4, 5))
    assert C.succ(3) == 1 and C.succ(5) == 3
    assert C.pred(3) == 5 and C.pred(1) == 3
    assert len(C) == 4
    assert 4 in C and 7 not in C
    assert edge_set(C) == {(1, 3), (1, 4), (4, 5), (3, 5)}
    with pytest.raises(InputError):
        C.succ(7)


def test_cycle_edges_equal_canonical_pairs():
    rng = random.Random(8)
    for _ in range(200):
        order = rng.sample(range(-50, 50), rng.randint(3, 40))
        C = Cycle(tuple(order))
        n = len(order)
        want = [canonical_edge(order[i], order[(i + 1) % n]) for i in range(n)]
        assert C.edges() == want
        assert edge_set(C) == frozenset(want)


def test_edges_outside_another_cycle():
    rng = random.Random(9)
    for _ in range(300):
        order = rng.sample(range(-30, 30), rng.randint(3, 25))
        other = list(order)
        # move, drop and add a few vertices, or reverse an arc
        for _ in range(rng.randint(0, 4)):
            step = rng.randrange(3)
            if step == 0 and len(other) > 3:
                other.pop(rng.randrange(len(other)))
            elif step == 1:
                fresh = rng.choice([v for v in range(-40, 40) if v not in other])
                other.insert(rng.randrange(len(other) + 1), fresh)
            else:
                i, j = sorted(rng.sample(range(len(other)), 2))
                other[i:j] = reversed(other[i:j])
        C, D = Cycle(tuple(order)), Cycle(tuple(other))
        n = len(order)
        want = [
            (order[i], order[(i + 1) % n])
            for i in range(n)
            if canonical_edge(order[i], order[(i + 1) % n]) not in edge_set(D)
        ]
        assert edges_outside(C, D) == want


def test_cycle_rejects_degenerate():
    with pytest.raises(InputError):
        Cycle((1, 2))
    with pytest.raises(InputError):
        Cycle((1, 2, 1))


def test_lazy_cycle_index_matches_eager_positions():
    rng = random.Random(15)
    for _ in range(200):
        order = tuple(rng.sample(range(-60, 60), rng.randint(3, 40)))
        C = Cycle(order)
        n, pos = len(order), {v: i for i, v in enumerate(order)}
        assert C.vertex_set == frozenset(order)
        assert C.edges() == [
            canonical_edge(order[i], order[(i + 1) % n]) for i in range(n)
        ]
        # in, vertex_set and edges read the order, not the index
        assert "_index" not in C.__dict__
        for v in rng.sample(range(-61, 61), 30):
            assert (v in C) == (v in pos)
            if v in pos:
                assert C.index(v) == pos[v]
                assert C.succ(v) == order[(pos[v] + 1) % n]
                assert C.pred(v) == order[pos[v] - 1]
        absent = next(v for v in range(-61, 61) if v not in pos)
        for read in (C.index, C.succ, C.pred):
            with pytest.raises(InputError, match=f"^vertex {absent} not on cycle$"):
                read(absent)


def test_cycle_names_its_first_repeated_vertex():
    # 7 repeats at position 3, before 4 repeats at position 4
    with pytest.raises(InputError, match="^repeated vertex 7 in cycle$"):
        Cycle((4, 7, 9, 7, 4))
    with pytest.raises(InputError, match="^repeated vertex 1 in cycle$"):
        Cycle((1, 2, 3, 1, 2, 3))


def test_cycle_equality_hash_and_replace_ignore_the_index():
    C, D = Cycle((1, 2, 3, 4)), Cycle((1, 2, 3, 4))
    assert C.succ(4) == 1
    assert "_index" in C.__dict__ and "_index" not in D.__dict__
    assert C == D and hash(C) == hash(D) and len({C, D}) == 1
    assert C != Cycle((1, 2, 4, 3))
    assert repr(C) == "Cycle(order=(1, 2, 3, 4))"
    E = rebuilt(C, order=(5, 6, 7))
    assert E.vertex_set == {5, 6, 7} and 1 not in E and E.pred(5) == 7
    with pytest.raises(InputError, match="^repeated vertex 6 in cycle$"):
        rebuilt(C, order=(5, 6, 6))


def test_verify_builds_no_cycle_index():
    text = hamilton_sequence(gen_G_inf(2), 4).to_json()
    trace = SequenceTrace.from_json(text)
    assert verify_hc_extract(trace).all_ok
    assert not any("_index" in C.__dict__ for C in trace.cycles)


def test_verify_cycle():
    G = k4()
    ok = verify_cycle(G, Cycle((0, 1, 2, 3)))
    assert ok.ok and ok.is_hamiltonian
    partial = verify_cycle(G, Cycle((0, 1, 2)))
    assert partial.ok and not partial.is_hamiltonian
    bad = verify_cycle(path(4), Cycle((0, 1, 3)))
    assert not bad.ok
    assert "1" in bad.reason and "3" in bad.reason


def test_components_ordering():
    G = FiniteGraph.from_edges(range(6), [(0, 1), (2, 3), (4, 5), (1, 2)])
    assert components(G) == [frozenset({0, 1, 2, 3}), frozenset({4, 5})]
    assert components(G, removed=[1]) == [
        frozenset({0}),
        frozenset({2, 3}),
        frozenset({4, 5}),
    ]
    with pytest.raises(InputError):
        components(G, removed=[77])


def test_distances_and_neighborhood():
    G = path(6)
    d = distances_from(G, {0})
    assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    assert neighborhood_k(G, {2}, 1) == frozenset({1, 3})
    assert neighborhood_k(G, {2}, 2) == frozenset({0, 1, 3, 4})


def test_explicit_cut_on_k4():
    G = k4()
    lazy = LazyGraph(G.neighbors, lambda blocked, v: False, root=0)
    side = frozenset({0, 1})
    w = CutWitness(
        j=0, part=side, piece=frozenset(), included=side,
        excluded=frozenset(), crossing_edges=(),
    )
    cut = _explicit_cut(lazy, w, side.__contains__)
    assert cut == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})


# Ball of radius 2 around the root of the width-2 double-ray family:
# fibers -2..2, ten vertices, frontier = the two outermost fibers.
def test_ball_on_infinite_family():
    G = gen_G_inf(2)
    B = ball(G, G.root, 2)
    assert B.vertices == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert B.frontier == frozenset({6, 7, 8, 9})
    assert B.degree(0) == 5
    # frontier vertices have truncated neighbourhoods inside the ball
    assert B.degree(8) == 3


def test_ball_accepts_multiple_sources():
    G = gen_G_inf(2)
    B = ball(G, {0, 4}, 1)
    assert 0 in B.vertex_set and 4 in B.vertex_set
    assert B.frontier


def test_ball_radius_cap():
    G = gen_G_inf(2)
    with pytest.raises(InputError, match=f"exceeds the radius cap {BALL_RADIUS_MAX}"):
        ball(G, G.root, BALL_RADIUS_MAX + 1)


def test_ball_detects_asymmetric_oracle():
    def nbrs(v):
        if v == 0:
            return (1,)
        if v == 1:
            return (2,)  # missing the back-edge to 0
        return (1,)

    G = LazyGraph(nbrs, lambda blocked, v: True, root=0)
    with pytest.raises(InvariantViolation):
        ball(G, 0, 2)


def test_escape_requires_unblocked_vertex():
    G = gen_G_inf(2)
    with pytest.raises(InputError):
        G.escapes(frozenset({0, 1}), 0)


def graph_to_json(G):
    return json.dumps(graph_to_json_obj(G), sort_keys=True)


def graph_from_json(text):
    return graph_from_json_obj(json.loads(text))


def test_graph_json_round_trip():
    G = FiniteGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)], labels={0: "a"})
    text = graph_to_json(G)
    H = graph_from_json(text)
    assert H.vertices == G.vertices
    assert H.edges() == G.edges()
    assert H.labels == {0: "a"}
    # serialization is canonical: a second pass is byte-identical
    assert graph_to_json(H) == text


def test_graph_json_rejects_malformed():
    with pytest.raises(InputError):
        graph_from_json("[]")
    with pytest.raises(InputError):
        graph_from_json(json.dumps({"vertices": [0], "edges": [[0, 0]]}))
    with pytest.raises(InputError):
        graph_from_json(json.dumps({"vertices": [0, 1], "edges": [], "junk": 1}))


def test_graph_json_refuses_label_keys_not_in_canonical_form():
    # int() reads all of these as 0, so a second key would overwrite the
    # first label without a word
    base = {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}
    for key in ("00", " 0", "0 ", "+0", "-0", "0_0", "\u0660", "0.0", "a", ""):
        with pytest.raises(
            InputError, match=f"^label key {re.escape(repr(key))} is not a canonical"
        ):
            graph_from_json_obj({**base, "labels": {"1": "b", key: "a"}})
    G = graph_from_json_obj(
        {"vertices": [-1, 0, 1], "edges": [[-1, 0], [0, 1]], "labels": {"-1": "d", "0": "a"}}
    )
    assert G.labels == {-1: "d", 0: "a"}


def test_graph_json_refuses_labels_that_are_not_strings():
    # str() turned these into "None", "['x']", "{'a': 1}", "1" and "True"
    base = {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}
    for label in (None, ["x"], {"a": 1}, 1, True):
        with pytest.raises(
            InputError,
            match=f"^label of vertex 0 must be a string, got {re.escape(repr(label))}$",
        ):
            graph_from_json_obj({**base, "labels": {"1": "b", "0": label}})


def test_cycle_json_round_trip():
    C = Cycle((2, 0, 1))
    assert cycle_from_json_obj(cycle_to_json_obj(C)).order == (2, 0, 1)
    with pytest.raises(InputError):
        cycle_from_json_obj({"cycle": [1, 2]})


class Colour(IntEnum):
    RED = 1
    BLUE = 7


def test_ids_from_json_obj_refuses_all_but_plain_ints():
    assert ids_from_json_obj([3, -1, 10**30], "x") == (3, -1, 10**30)
    assert ids_from_json_obj([], "x") == ()
    for bad in ([1, True], [True], [1.0], [2, "1"], (1, 2), {"1": 2}):
        with pytest.raises(InputError, match="^x JSON must be an array of integer ids$"):
            ids_from_json_obj(bad, "x")
    # an int subclass other than bool passes, member intact
    ids = ids_from_json_obj([Colour.BLUE, 2], "x")
    assert ids == (7, 2) and type(ids[0]) is Colour


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(Colour)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),
    max_leaves=30,
)


@given(JSON_VALUES)
@example({"a\nb": ["\u00e9\u2028", "\"\\", {}, [], ()], "": {"\t": [True, 1, 1.5]}})
@example([[float("nan"), float("-inf")], {2: [Colour.RED, 3], 10: {}}, (4, 5)])
@example({"k": [1, True, 2], "j": [Colour.BLUE, 0]})
def test_dumps_json_equals_indented_json_dumps(x):
    assert dumps_json(x) == json.dumps(x, sort_keys=True, indent=1)


@pytest.mark.parametrize("n, depth", [(2, 32), (3, 28)])
def test_dumps_json_equals_json_dumps_on_traces(n, depth):
    obj = json.loads(hamilton_sequence(gen_G_inf(n), depth).to_json())
    assert dumps_json(obj) == json.dumps(obj, sort_keys=True, indent=1)


def test_dot_output_mentions_all_edges():
    G = path(3)
    dot = graph_to_dot(G, highlight=[(0, 1)])
    assert "0 -- 1" in dot and "1 -- 2" in dot
    assert dot.count("penwidth") == 1


def test_dot_labels_cannot_add_edges():
    # a label closing its quote could write statements of its own
    G = graph_from_json_obj({
        "vertices": [0, 1, 2],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "labels": {"0": 'a"]; 9 -- 8; x [label="b', "1": "back\\slash\\", "2": "\u00e9"},
    })
    lines = graph_to_dot(G).splitlines()
    assert lines[1:4] == [
        '  0 [label="a\\"]; 9 -- 8; x [label=\\"b"];',
        '  1 [label="back\\\\slash\\\\"];',
        '  2 [label="\u00e9"];',
    ]
    assert [line for line in lines if "--" in line and "label" not in line] == [
        "  0 -- 1;", "  0 -- 2;", "  1 -- 2;"
    ]


@given(st.integers(), st.integers())
def test_canonical_edge_sorts(a, b):
    lo, hi = canonical_edge(a, b)
    assert (lo, hi) == (min(a, b), max(a, b))


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return FiniteGraph.from_edges(range(n), chosen)


@given(random_graph())
def test_json_round_trip_any_graph(G):
    H = graph_from_json(graph_to_json(G))
    assert H.vertices == G.vertices and H.edges() == G.edges()


@given(random_graph())
def test_components_partition_vertices(G):
    comps = components(G)
    seen = [v for c in comps for v in c]
    assert sorted(seen) == list(G.vertices)
