"""Cycle enlargement across a separator and the infinite driver.

Given a cycle C of an infinite graph and a decomposition of a minimal
ray blocker around it, construct_cut1 produces a strictly larger cycle
C' together with one cut certificate per infinite component.  The
driver iterates this into a trace (trace.SequenceTrace), which the
verify module checks without this one.

The construction follows five stages:

  A  absorb the finite component completely,
  B  thread a path through each infinite component's separator,
  C  absorb the connector trees while each cut stays crossed twice,
  D  absorb leftover separator vertices, maintaining the M sets,
  E  check the three output clauses and freeze the certificates.

Stages B and C and the Steiner trees do not check again what decompose
or the step before settles; thread_part, steiner_tree_T and
stage_absorb_trees argue it once.

The cycle edges crossing each M set are read from the cycle once per
enlargement, after stage B; stages C and D update them from the edges
each step swaps and check them, and stage E reads what stage D checked
last.  All five stages, the cold branches of B and D too, rewire one
live cycle in place (_RunCycle), whose ledger of edges gained and lost
feeds stage E's edge clauses.

Everything works inside one finite ball; frontier contamination is an
error, never silently tolerated.  The driver keeps one run state
(_RunState) per run, and in it one growing region (graphcore.Region):
V(C), the distance layers around it and their adjacency, which each
iteration updates from the vertices the cycle gained.  Both local
conditions, claw-freeness and the degree condition, are decided first.
A graph that lists representatives (the periodic families list fibers
0 .. p-1) is decided once, on them, before any ball of the run is
grown (decide_by_period), the neighbour oracle's symmetry with them,
and after that no ball is checked, classified into twin classes or
checked for symmetry.  Otherwise the run checks the ball saturation
starts from, so an input failing either is refused before
saturation, and then each iteration's ball.  Each iteration takes
N(C) for the blocker, and the ball for decompose, off the region.
It searches the graph twice: two rings around N(C) give the vertices
near C and the cycle vertices an enlargement may rewire, and three
rings around the blocker give every connector tree's required vertices
and the ones stage E's coverage clause asks for; decompose's ball
keeps both sets of rings off its frontier.  Both conditions are
properties of the graph, so a centre certified once is never checked
again.  The run keeps one live cycle across its iterations and freezes
it once per iteration for the trace; the ledger of what an enlargement
gained and lost is what the next one grows the region by and checks
for edges in G, and each end's ray walk resumes where it stopped.  No
step of an iteration walks, copies or sets apart all of V(C) or the
ball, in Python or at C speed: its loops and set operations run over
what the cycle gained, the ball's frontier and the shell between V(C)
and the frontier, so an iteration costs the same at every depth but
for the two copies the trace keeps, the new cycle's order and K0, and
the tables of a ball whose radius changed.
"""

from __future__ import annotations

from itertools import chain, islice

from .conditions import check_star_ball, star_on_ball
from .errors import FrontierContamination, InputError, InvariantViolation
from .extension import (
    Extension,
    LiveCycle,
    find_extension,
    find_initial_cycle,
    iter_extensions,
    saturate,
)
from .graphcore import (
    MAX_TRACE_IDS,
    Cycle,
    Edge,
    FiniteGraph,
    LazyGraph,
    Record,
    Region,
    canonical_edge,
    neighborhood_k,
    neighborhood_rings,
)
from .structure import (
    BALL_MARGIN,
    SeparatorDecomposition,
    decompose,
    require_claw_free,
)
from .trace import CutWitness, SequenceTrace

# perfbench reads the trace record and the verifier through this
# module (workloads.run_infinite, and the tracer's FUNCTIONS and
# METHODS); the names leave it once the benchmark reads trace and verify
from .verify import verify_hc_extract


# ---------------------------------------------------------------------------
# cycle surgery


class _RunCycle(LiveCycle):
    """The live cycle of an infinite run, rewired in place by every
    enlargement and frozen once per iteration for the trace.

    Beside the successor map it keeps each vertex's predecessor, and a
    ledger of the net change since ``base``, the enlargement's start
    cycle: ``gained`` holds the edges it has and ``base`` lacks, as
    canonical pairs, and ``lost`` maps each edge of ``base`` it lacks to
    the pair as it was removed, so an edge added and then removed
    cancels out.  apply() reads the edges a step swaps once, before
    LiveCycle.apply rewires, and feeds the predecessors, the ledger and
    ``step``, the canonical edges the step removed and added, from that
    one diff: O(1) work for kinds I and II; kind III also walks the
    reversed arc, as LiveCycle.apply does.  The cold branches of the
    construction rewire it in place too, with apply(), reroute() and
    drop(), and hand on their net change with join().

    ``base_vertices`` is V(base), kept up to date from the ledger when a
    new ledger starts at the cycle reached, while no vertex has left.

    While only kinds I and II have rewired it since ``base`` (``kept``),
    the head and the order of base's vertices stay, every vertex gained
    lies on the path that replaced a lost edge of base, and each lost
    pair is as base walks it; ``order`` is then base's order with those
    paths spliced in, not a walk.  The splice also records the
    positions of the vertices it placed, where the next enlargement
    finds its lost edges.
    """

    __slots__ = ("_pred", "base", "base_vertices", "gained", "lost", "kept",
                 "step", "_placed", "_at")

    def __init__(self, C: Cycle) -> None:
        super().__init__(C)
        order = C.order
        self._pred = dict(zip(order, order[-1:] + order[:-1]))
        self._placed: dict[int, int] = {}
        self.kept = False
        self.start(C)

    def start(self, C: Cycle) -> None:
        """Start an empty ledger at C, which is this cycle frozen."""
        # the positions the last splice placed are C's when C is its result
        self._at = self._placed if self.kept and C.order is self._order else {}
        if self.kept:
            # kinds I and II only add vertices
            self.base_vertices.update(self.new_vertices())
        else:
            self.base_vertices = set(C.order)
        self.base = C
        self.gained: set[Edge] = set()
        self.lost: dict[Edge, Edge] = {}
        self.kept = True

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None and self.kept:
            succ, placed = self._succ, {}
            cuts = []
            for a, b in self.lost.values():
                path = []
                w = succ[a]
                while w != b:
                    path.append(w)
                    w = succ[w]
                cuts.append((self.base_index(a) + 1, a, path, b))
            # one pass over base's order, each path read in after the
            # vertex it follows
            rest, parts, at, shift = iter(self.base.order), [], 0, 0
            for i, a, path, b in sorted(cuts):
                parts += (islice(rest, i - at), path)
                placed.update(zip(path, range(i + shift, i + shift + len(path))))
                at, shift = i, shift + len(path)
            parts.append(rest)
            order = tuple(chain.from_iterable(parts))
            self._order, self._placed = order, placed
        return LiveCycle.order.fget(self)

    def base_index(self, v: int) -> int:
        """The position of v in base's order: off the last splice when
        it placed v, else found in the order."""
        i = self._at.get(v)
        return self.base.order.index(v) if i is None else i

    def pred(self, v: int) -> int:
        try:
            return self._pred[v]
        except KeyError:
            raise InputError(f"vertex {v} not on cycle") from None

    def apply(self, e: Extension) -> tuple[list[Edge], list[Edge]]:
        # the edges the step swaps, each as a pair (a, b) with b the
        # successor of a before or after; e's finder checked it
        u, v, succ = e.u, e.target, self._succ
        up = succ.get(u)
        if e.kind == "I":
            removed, added = ((u, up),), ((u, v), (v, up))
        elif e.kind == "II":
            removed, added = ((u, up),), ((u, v), (v, e.x), (e.x, up))
        else:
            y, yp = e.y, succ.get(e.y)
            removed, added = ((u, up), (y, yp)), ((u, v), (v, y), (up, yp))
        super().apply(e)
        pred = self._pred
        for a, b in added:
            pred[b] = a
        if e.kind == "III":
            self.kept = False
            # the arc now runs from y back to u+
            w = y
            while w != up:
                pred[succ[w]] = w
                w = succ[w]
        return self._record(removed, added)

    def _record(self, removed, added) -> tuple[list[Edge], list[Edge]]:
        """Take the pairs a step removed and added into the ledger;
        returns ``step``."""
        gained, lost = self.gained, self.lost
        out, into = [], []
        for a, b in removed:
            e = (a, b) if a <= b else (b, a)
            out.append(e)
            if e in gained:
                gained.remove(e)
            else:
                lost[e] = (a, b)
        for a, b in added:
            e = (a, b) if a <= b else (b, a)
            into.append(e)
            if e in lost:
                del lost[e]
            else:
                gained.add(e)
        self.step = out, into
        return self.step

    def reroute(self, arc, path) -> tuple[list[Edge], list[Edge]]:
        """Replace the consecutive arc ``arc``, walked either way, by
        ``path``, with the same ends and an interior off the cycle outside
        the arc.  The cycle then starts at arc[0] and walks the path
        first: a backward arc swaps the successor and predecessor maps.
        Returns ``step``."""
        if len(arc) < 2 or len(path) < 2:
            raise InputError("arcs need at least two vertices")
        if arc[0] != path[0] or arc[-1] != path[-1]:
            raise InputError("replacement arc must keep its endpoints")
        succ, pred = self._succ, self._pred
        if arc[0] not in succ:
            raise InputError(f"{arc[0]} is not on the cycle")
        pairs = list(zip(arc, arc[1:]))
        forward = all(succ[a] == b for a, b in pairs)
        if len(arc) > len(succ) or not (
            forward or all(pred[a] == b for a, b in pairs)
        ):
            raise InputError("arc is not consecutive on the cycle")
        interior, leaving = set(path[1:-1]), set(arc[1:-1])
        if any(v in succ and v not in leaving for v in interior):
            raise InputError("replacement interior collides with the cycle")
        if len(interior) != len(path) - 2:
            raise InputError("replacement interior repeats a vertex")
        if len(succ) - len(arc) + len(path) < 3:
            raise InputError("a cycle needs at least three vertices")
        if not forward:
            self._succ, self._pred = succ, pred = pred, succ
        for v in arc[1:-1]:
            del succ[v], pred[v]
        for a, b in zip(path, path[1:]):
            succ[a], pred[b] = b, a
        self.head, self._order, self.kept = arc[0], None, False
        return self._record(pairs, zip(path, path[1:]))

    def drop(self, h: int) -> tuple[list[Edge], list[Edge]]:
        """Shortcut h out of the cycle, joining its two neighbours; a
        cycle that started at h starts at its successor.  Returns
        ``step``."""
        if h not in self._succ:
            raise InputError(f"{h} is not on the cycle")
        if len(self) < 4:
            raise InputError("cannot shorten a triangle")
        head, a, b = self.head, self._pred[h], self._succ[h]
        step = self.reroute((a, h, b), (a, b))
        self.head = b if head == h else head
        return step

    def join(self, *steps) -> None:
        """Make ``step`` the net change of ``steps``, taken one after
        another, as a branch that rewires in several steps hands it on."""
        out, into = set(), set()
        for removed, added in steps:
            removed, added = set(removed), set(added)
            out |= removed - into
            into -= removed
            into |= added - out
            out -= added
        self.step = out, into

    def rank(self, v: int):
        """A key that orders the vertices as ``order`` does.  While
        ``kept`` it is read off base, without the order: a vertex gained
        since base sorts after the base vertex it follows, by the steps
        back to it."""
        if not self.kept:
            return self.order.index(v)
        on, pred, steps = self.base_vertices, self._pred, 0
        while v not in on:
            v = pred[v]
            steps += 1
        return self.base_index(v), steps

    def new_vertices(self) -> set[int]:
        """The vertices on this cycle and not on ``base``."""
        on = self.base_vertices
        return {v for e in self.gained for v in e if v not in on}


class _Rim:
    """What an enlargement of C may rewire, read once off a ball B
    around C that reaches three steps past N(C): ``nc`` is N(C),
    ``near`` is N(C) with its second neighbourhood, and ``exposed`` the
    cycle vertices in N(N(C)).  Both come from one search of two rings
    around N(C).  N(C) misses C, so every other cycle vertex is
    protected: an enlargement never rewires an edge between two of
    them.  ``any_protected`` says whether C has one."""

    __slots__ = ("nc", "near", "exposed", "any_protected")

    def __init__(self, B: FiniteGraph, cycle_vertices, nc) -> None:
        self.nc = nc = frozenset(nc)
        first, second = neighborhood_rings(B, nc, 2)
        self.near = nc | first | second
        self.exposed = first & cycle_vertices
        self.any_protected = len(self.exposed) < len(cycle_vertices)


# ---------------------------------------------------------------------------
# Steiner trees


class SteinerTree(Record):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset[int], edges: frozenset[Edge]) -> None:
        self.vertices = vertices
        self.edges = edges

    def path(self, a: int, b: int) -> tuple[int, ...]:
        """The unique a-b path along tree edges: stage B asks only for
        entry vertices of the tree's part, which the tree holds, and the
        tree is connected (see steiner_tree_T)."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = {a: a}
        ring = [a]
        while ring and b not in parent:
            nxt = []
            for u in ring:
                for w in sorted(adj[u]):
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
            ring = nxt
        out = [b]
        while out[-1] != a:
            out.append(parent[out[-1]])
        return tuple(reversed(out))


def steiner_tree_T(G: LazyGraph, S_j, K_j, script_S, n3) -> SteinerTree:
    """Finite tree inside the component K_j covering N_3(S_j) there.

    Required vertices are joined one at a time by shortest paths that
    stay inside the component, which is connected, so every goal is
    found and the tree is connected.  ``K_j`` is the component's piece,
    which decides which of N_3(S_j) is required.  The path search only
    steps from a vertex of K_j to a neighbour, which lies in K_j iff it
    is not in the whole separator ``script_S``, so it tests that instead
    of asking K_j.

    A search from the whole tree would first scan the tree in id order,
    and so find each vertex next to the tree from its smallest tree
    neighbour.  That first ring is kept instead (``touch``): each tree
    vertex's row is read once, at the first goal after it joined, where
    the search would first read it (of the vertices one goal adds, the
    search has read all rows but the goal's).  A goal in the ring joins
    through its entry, and only a goal farther away is searched for,
    from the ring outward.  The tree, and the order of the neighbour
    oracle's calls, are the search's.

    ``n3`` is N_3(script_S), and its vertices in K_j are the required
    ones: they are those of N_3(S_j).  A vertex w of K_j at distance d
    from script_S ends a path of length d from some s of script_S that
    meets script_S only at s.  The rest of the path lies in G - script_S
    and ends in K_j, so it lies in K_j; so s is next to K_j and is a
    vertex of S_j, the separator vertices facing K_j, and w is at
    distance d from S_j too.  One search from script_S then serves every
    part.  The piece answers for its whole component on N_3(script_S),
    which lies inside the ball's interior (see decompose), where
    decompose identifies each component with its piece.

    The required set is not empty and holds every entry vertex stage B
    asks the tree for: a neighbour in K_j of S_j, the non-empty set of
    separator vertices next to K_j, lies in N_1(script_S).
    """
    todo = sorted(n3 & K_j)
    tree_vertices = {todo[0]}
    tree_edges: set[Edge] = set()
    touch: dict[int, int] = {}
    unread = [todo[0]]
    for goal in todo[1:]:
        if goal in tree_vertices:
            continue
        for u in unread:
            for w in G.neighbors(u):
                if w in tree_vertices or w in script_S:
                    continue
                t = touch.get(w)
                if t is None or u < t:
                    touch[w] = u
        unread = []
        parent = touch
        if goal not in touch:
            parent = dict(zip(tree_vertices, tree_vertices))
            parent.update(touch)
            ring = sorted(touch)
            while ring and goal not in parent:
                nxt = []
                for u in ring:
                    for w in G.neighbors(u):
                        if w in parent or w in script_S:
                            continue
                        parent[w] = u
                        nxt.append(w)
                ring = sorted(nxt)
        v = goal
        while v not in tree_vertices:
            u = parent[v]
            tree_vertices.add(v)
            unread.append(v)
            tree_edges.add(canonical_edge(u, v))
            v = u
        for v in unread:
            touch.pop(v, None)
    return SteinerTree(frozenset(tree_vertices), frozenset(tree_edges))


# ---------------------------------------------------------------------------
# the enlargement construction


class _MState:
    """Mutable membership state of one M set during construction.

    ``members`` is the set itself, (piece | included) - excluded, as one
    frozenset: stage C never changes it, and each stage D step that
    moves vertices builds it again.  ``included`` starts as the part and
    gains only what update_msets hands it, so it lies in S | N(S)."""

    __slots__ = ("piece", "part", "included", "excluded", "members")

    def __init__(self, piece: frozenset[int], part: frozenset[int]) -> None:
        self.piece = piece
        self.part = part
        self.included = set(part)
        self.excluded: set[int] = set()
        self.members = piece | part

    def add(self, vs) -> None:
        self.included |= set(vs)
        self.excluded -= set(vs)
        self.members = self.members.union(vs)

    def discard(self, vs) -> None:
        self.excluded |= set(vs)
        self.included -= set(vs)
        self.members = self.members.difference(vs)


def require_twice(crossing, C, label: str, j: int) -> None:
    """Raise unless the cycle C crosses cut j in exactly two edges."""
    if len(crossing) != 2:
        raise InvariantViolation(
            f"{label} crossed {len(crossing)} times, expected 2",
            j=j,
            crossing=sorted(crossing),
            cycle=C.order,
        )


class _CutBuilder:
    """The five stages of one enlargement of C, on one live cycle.

    Stage A starts from ``live``, the run's live cycle, which must equal
    C (a new one when None); every stage rewires it in place and hands
    it on.
    """

    def __init__(
        self,
        G: LazyGraph,
        C: Cycle,
        decomp: SeparatorDecomposition,
        rim: _Rim,
        live: _RunCycle | None = None,
    ):
        self.G = G
        self.C = C
        self.decomp = decomp
        self.rim = rim
        self.B = decomp.ball
        self.K0 = decomp.finite_component
        self.parts = decomp.parts
        self.pieces = decomp.infinite_components
        self.script_S = decomp.script_S
        self.k = decomp.k
        # the one search from the blocker, in G: N_3(S), which every
        # tree and stage E's coverage clause read
        self.n3 = neighborhood_k(G, self.script_S, 3)
        self.trees = tuple(
            steiner_tree_T(G, self.parts[j], self.pieces[j], self.script_S, self.n3)
            for j in range(self.k)
        )
        self.msets = [
            _MState(self.pieces[j], self.parts[j]) for j in range(self.k)
        ]
        self.paths: list[tuple[int, ...] | None] = [None] * self.k
        if live is None:
            live = _RunCycle(C)
        else:
            live.start(C)
        self.start_live = live

    # -- shared helpers ----------------------------------------------------

    def guard(self, vertices) -> None:
        """Read each vertex's row, in order, unless it is on the frontier.
        Cycle vertices never leave, so guarding the start cycle and then
        each newly absorbed vertex raises on the same vertex and step as
        guarding the whole cycle every step.  Stages B and D read rows of
        S unguarded: decompose puts S in N(C), 7 or more from the frontier."""
        for v in vertices:
            if v in self.B.frontier:
                raise FrontierContamination(f"construction touched frontier vertex {v}")
            self.B.neighbors(v)

    def guard_cycle(self, cur: _RunCycle) -> None:
        """guard(cur.order), with the cycle walked only when one of its
        vertices lies on the frontier or outside the ball, to name the
        first.  The cycle holds C and what it gained since, and C lies in
        K0, inside the ball: so the frontier is looked up on the cycle,
        and only the vertices gained, read off the ledger, are looked up
        in the ball."""
        B = self.B
        if any(map(cur._succ.__contains__, B.frontier)) or not (
            cur.new_vertices() <= B.vertex_set
        ):
            self.guard(cur.order)

    def read_cuts(self, cur: _RunCycle) -> None:
        """Read the cycle edges crossing each M set off the cycle, once
        per enlargement, after stage B; stages C and D keep them up to
        date.  Only the cycle edges at members of each M set are read."""
        self.cuts: list[set[Edge]] = []
        pred, succ = cur._pred, cur._succ
        for m in self.msets:
            members, cut = m.members, set()
            for v in members:
                if v in succ:
                    for w in (pred[v], succ[v]):
                        if w not in members:
                            cut.add(canonical_edge(v, w))
            self.cuts.append(cut)

    def recount_cuts(self, cur: _RunCycle, moved=()) -> None:
        """Bring the kept crossing sets up to date after a step, from
        the edges it removed and added (``cur.step``) and the cycle
        edges at the vertices ``moved`` between M sets by update_msets;
        no other edge changes its crossing."""
        removed, touched = cur.step
        if moved:
            pred, succ = cur._pred, cur._succ
            touched = [*touched, *(
                canonical_edge(v, w) for v in moved for w in (pred[v], succ[v])
            )]
        for m, cut in zip(self.msets, self.cuts):
            members = m.members
            cut.difference_update(removed)
            for e in touched:
                if (e[0] in members) != (e[1] in members):
                    cut.add(e)
                else:
                    cut.discard(e)

    def require_cuts(self, cur: _RunCycle, label: str) -> None:
        for j, cut in enumerate(self.cuts):
            require_twice(cut, cur, label, j)

    def entry(self, v: int, j: int) -> int:
        """v's smallest neighbour in piece j."""
        return min(w for w in self.B.neighbors(v) if w in self.pieces[j])

    def part_index(self, v: int) -> int | None:
        for j, part in enumerate(self.parts):
            if v in part:
                return j
        return None

    # -- stage A: fill the finite component --------------------------------
    # One iter_extensions run over the finite component: smallest
    # admissible target first, O(1) work per step beyond the witness
    # search.

    def stage_fill_finite(self) -> _RunCycle:
        """C grown to V(K0), off the frontier: C and every target lie in
        K0, a helper outside it is refused, and K0 is connected through C
        (see decompose), so the loop stops only once the cycle holds K0."""
        live = self.start_live
        for e, _ in iter_extensions(
            self.B, live, self.K0.__contains__, self.rim.nc & self.K0
        ):
            # the target lies in K0; a kind II helper outside it would need
            # a one-vertex rewiring at the same anchor, which find_extension
            # would have returned as kind I instead
            if e.kind == "II" and e.x not in self.K0:
                raise InvariantViolation(
                    "separator-escaping absorption without the "
                    "complete-attachment fallback",
                    target=e.target,
                    helper=e.x,
                )
        return live

    # -- stage B: thread one path per infinite component -------------------

    def forced_two_step(
        self, D, s1: int, j: int
    ) -> tuple[Extension, tuple[int, ...]]:
        """The kind II step at s1 that absorbs a = entry(s1, j) once s1
        is on D, and the path (s1, a, s2) it threads, with its helper s2
        in S_j (see thread_part)."""
        a = self.entry(s1, j)
        e = find_extension(self.B, D, a)
        return e, (s1, a, e.x)

    def thread_part(self, cur: _RunCycle, j: int) -> _RunCycle:
        """Absorb s1 = min(S_j) and thread a path from it through piece j
        back to S_j, stored in paths[j].

        Stage A adds only K0, and each part only s1, a helper from its
        own part and the path between them through its piece; the
        earlier-part branch swaps z for x in S_ell and re-ends paths[ell]
        through tree ell.  So before part j the cycle meets each S_ell,
        ell < j, in the two ends of paths[ell], and no later part or
        piece.  entry(s1, j) finds a, as S_j is the separator vertices
        next to piece j; a's neighbours off the piece lie in S_j, as
        decompose refuses a separator vertex next to two pieces, so s1 is
        a's only cycle neighbour.  find_extension then returns neither
        kind I (s1's successor would be a second one) nor kind III (it
        needs two anchors), and its kind II helper, next to a and to s1's
        successor, which is off piece j and S_j, lies in S_j."""
        s1 = min(self.parts[j])
        e = find_extension(self.B, cur, s1)
        if e.kind in ("I", "III"):
            cur.apply(e)
            e, self.paths[j] = self.forced_two_step(cur, s1, j)
            cur.apply(e)
        else:
            self.thread_through_helper(cur, j, s1, e)
        return cur

    def thread_through_helper(
        self, cur: _RunCycle, j: int, s1: int, e: Extension
    ) -> None:
        """thread_part when absorbing s1 pulled in a helper x, necessarily
        a separator vertex of some part: rewire cur in place, with
        ``step`` the net change.  x lies in s1's part, or in an earlier
        part whose stored path ends at z = succ(y).  No shipped family
        gets here.  With x in a foreign part, z off its separator, no
        rewiring finishes: s1 would go in beside y and z or pred(y),
        where find_extension, trying kind I first, found no place.

        The same raise covers x off the separator, which no decomposition
        leaves: x is next to s1 and off the cycle, which holds K0, so it
        lies in s1's piece j, as no separator vertex is next to two pieces;
        but x is next to z, and no cycle vertex is next to piece j yet."""
        y = e.u
        z = cur.succ(y)
        x = e.x
        ell = self.part_index(x)
        if ell == j:
            through = self.trees[j].path(self.entry(s1, j), self.entry(x, j))
            new_arc = (s1, *through, x)
            cur.join(cur.apply(e), cur.reroute((s1, x), new_arc))
            self.paths[j] = new_arc
            return

        if ell is None or z not in self.parts[ell]:
            raise InvariantViolation(
                f"helper {x} is in foreign part {ell}", s1=s1, y=y, z=z, ell=ell, x=x
            )
        # z is a cycle vertex of S_ell, so (see thread_part) ell < j and z
        # ends paths[ell], which has an interior
        old_path = self.paths[ell]
        oriented = old_path if old_path[-1] == z else tuple(reversed(old_path))
        s_other = oriented[0]
        through = self.trees[ell].path(self.entry(s_other, ell), self.entry(x, ell))
        new_arc = (s_other, *through, x)
        # after e, x precedes z: the arc runs back from x, and
        # reroute turns the cycle round
        steps = [cur.apply(e), cur.reroute(oriented + (x,), new_arc)]
        self.paths[ell] = new_arc
        e2, self.paths[j] = self.forced_two_step(cur, s1, j)
        cur.join(*steps, cur.apply(e2))

    # -- stage C: absorb the trees, cuts stay tight ------------------------
    # One iter_extensions run over the tree vertices.  No vertex changes
    # its M set here, so msets[j] is parts[j] | pieces[j] throughout and
    # the kept cuts follow the edges each rewiring swaps.

    def stage_absorb_trees(self, cur: _RunCycle) -> _RunCycle:
        """Absorb every tree vertex, checking the cuts after each step.
        Each tree is connected and holds paths[j][1], an entry vertex on
        the cycle, so the loop admits every tree vertex before its heap
        runs out."""
        wanted = frozenset().union(*(tree.vertices for tree in self.trees))
        missing = set(wanted.difference(cur._succ))
        if not missing:
            return cur
        self.guard_cycle(cur)
        targets = [
            t for t in missing if any(w in cur for w in self.B.neighbors(t))
        ]
        for e, live in iter_extensions(self.B, cur, wanted.__contains__, targets):
            self.recount_cuts(live)
            self.require_cuts(live, "separator-plus-component cut")
            missing.difference_update(e.new_vertices())
            if not missing:
                break
            self.guard(e.new_vertices())
        return cur

    # -- stage D: mop up the separator, maintaining the M sets -------------
    # It keeps stage C's cuts up to date on the edges each step swaps and
    # the cycle edges at the vertices whose membership update_msets
    # changes.

    def consecutive_pair(
        self, cur: _RunCycle, nbrs: set[int]
    ) -> tuple[int, int] | None:
        """The first a in cycle order with a and its successor in nbrs."""
        succ = cur._succ
        firsts = [a for a in nbrs if succ.get(a) in nbrs]
        if not firsts:
            return None
        a = min(firsts, key=cur.rank)
        return a, succ[a]

    def update_msets(self, w1: int, w2: int, gained: tuple[int, ...]) -> None:
        """Move ``gained``, stage D's separator vertex u and, when u came
        in through a kind II step, its helper, a neighbour of u, into the
        M sets of w1 or w2 and out of the others.  A vertex of piece j is
        excluded only as a helper next to u, so u is in S_j, it in N(S_j)."""
        for m in self.msets:
            if w1 in m.members or w2 in m.members:
                m.add(gained)
            else:
                m.discard(gained)

    def stage_absorb_separator(self, cur: _RunCycle) -> _RunCycle:
        """Absorb S, smallest first, checking the cuts before and after
        each step.  A round puts u on or raises, and takes no S vertex off
        (the isolated absorption puts its helper back): at most |S| run."""
        self.require_cuts(cur, "initial M cut")
        while True:
            leftovers = [s for s in sorted(self.script_S) if s not in cur]
            if not leftovers:
                return cur
            u = leftovers[0]
            nbrs_on = {w for w in self.B.neighbors(u) if w in cur}
            pair = self.consecutive_pair(cur, nbrs_on)
            if pair is not None:
                w1, w2 = pair
                # u is off the cycle, w1 on it, and u sees w1 and w2
                cur.apply(Extension("I", u, w1))
                gained = (u,)
                self.update_msets(w1, w2, gained)
            else:
                gained = self.absorb_isolated_separator_vertex(cur, u, nbrs_on)
            self.recount_cuts(cur, gained)
            self.require_cuts(cur, "M cut")

    def absorb_isolated_separator_vertex(
        self, cur: _RunCycle, u: int, nbrs_on: set[int]
    ) -> tuple[int, int]:
        """No two cycle neighbours of u are consecutive: on a copy of
        the cycle, shortcut all but the smallest and force the
        two-vertex absorption there, then take in u and the helper on
        cur, with ``step`` the net change.  Returns the two vertices
        gained; the helper is fresh or moves from its place on cur.  No
        shipped family gets here.  As no two of ``nbrs_on`` are
        consecutive, w1 is u's only neighbour on the copy, so
        find_extension gives kind II at w1 or raises, and a helper on
        cur was shortcut on the copy between its neighbours on cur,
        which the loop checked are adjacent."""
        if not nbrs_on:
            raise InvariantViolation(
                f"separator vertex {u} has no neighbour on the cycle"
            )
        w1 = min(nbrs_on)
        aux = _RunCycle(cur.freeze())
        for w in sorted(nbrs_on - {w1}):
            wp, wm = aux.succ(w), aux.pred(w)
            if not self.B.adjacent(wp, wm):
                raise InvariantViolation(
                    "claw-freeness did not close the shortcut",
                    around=w,
                    pair=(wm, wp),
                )
            aux.drop(w)
        e = find_extension(self.B, aux, u)
        w2 = aux.succ(w1)
        h = e.x
        if h not in cur:
            if h not in self.script_S:
                raise InvariantViolation(
                    f"fresh helper {h} is not a separator vertex", u=u
                )
            # e fits cur as aux: u, h are off cur, w1 and its successor w2 on
            cur.apply(e)
        else:
            cur.join(cur.drop(h), cur.reroute((w1, w2), (w1, u, h, w2)))
        self.update_msets(w1, w2, (u, h))
        return u, h

    # -- stage E: output clauses -------------------------------------------

    def check_output_clauses(self, cur: _RunCycle) -> tuple[CutWitness, ...]:
        # S and N_3(S) lie within 4 of C, short of the ball's frontier
        # (see decompose)
        missing = (self.script_S | self.n3).difference(cur._succ)
        # stage A left K0 on the cycle, and while only kinds I and II
        # rewire it since, no vertex leaves it
        if not cur.kept:
            missing |= self.K0.difference(cur._succ)
        if missing:
            raise InvariantViolation(
                "coverage clause failed",
                missing=sorted(missing),
            )

        # stage D checked each crossing set after its last step, and each
        # vertex of piece j an M set excludes is in N(S_j) (see update_msets)
        witnesses = tuple(
            CutWitness(
                j=j,
                part=self.parts[j],
                piece=self.pieces[j],
                included=frozenset(m.included),
                excluded=frozenset(m.excluded),
                crossing_edges=tuple(sorted(self.cuts[j])),
            )
            for j, m in enumerate(self.msets)
        )

        # the ledger's lost edges, first in C's order, and its gained
        # edges, in canonical order; a lost edge is an edge of C, so an
        # end the rim does not expose is protected
        C, exposed, old = self.C, self.rim.exposed, cur.base_vertices
        vanished = [
            (a, b) for a, b in cur.lost if a not in exposed and b not in exposed
        ]
        if vanished:
            raise InvariantViolation(
                "protected cycle edge vanished",
                edge=min(vanished, key=lambda e: C.index(_tail(C, *e))),
            )
        n2_nc = self.rim.near
        for a, b in sorted(cur.gained):
            for end in (a, b):
                if end in old and end not in n2_nc:
                    raise InvariantViolation(
                        "new edge lands on a protected old vertex",
                        edge=(a, b),
                        end=end,
                    )
        return witnesses


def _tail(C: Cycle, a: int, b: int) -> int:
    """Which end of the cycle edge ab C walks first: a when b = succ(a)."""
    return a if C.succ(a) == b else b


def construct_cut1(
    G: LazyGraph,
    C: Cycle,
    decomp: SeparatorDecomposition,
    rim: _Rim,
    live: _RunCycle | None = None,
) -> tuple[Cycle, tuple[CutWitness, ...]]:
    """Enlarge C past its blocker and certify the crossing structure.

    Returns the new cycle and one CutWitness per infinite component;
    all three output clauses are checked before returning.  ``rim`` is
    read off the decomposition's ball.  ``live``, when given, is a live
    cycle equal to C; it is rewired into the new cycle in place, and its
    ledger then holds the edges the new cycle gained and lost.
    """
    if not rim.any_protected:
        raise InputError(
            "every cycle vertex touches the cycle's second neighbourhood"
        )
    builder = _CutBuilder(G, C, decomp, rim, live)
    cur = builder.stage_fill_finite()
    # past the seed checks, an InputError in stages B-D is a broken
    # invariant, and every error leaving them names its stage
    stage = "B"
    try:
        for j in range(decomp.k):
            cur = builder.thread_part(cur, j)
        builder.read_cuts(cur)
        stage = "C"
        cur = builder.stage_absorb_trees(cur)
        stage = "D"
        cur = builder.stage_absorb_separator(cur)
    except InputError as exc:
        raise InvariantViolation(str(exc), stage=stage) from exc
    except InvariantViolation as exc:
        exc.context.setdefault("stage", stage)
        raise
    witnesses = builder.check_output_clauses(cur)
    return cur.freeze(), witnesses


# ---------------------------------------------------------------------------
# the driver


def _initial_cycle(G: LazyGraph, decided: bool) -> Cycle:
    """A cycle near the root, found in the ball of radius 3 around it;
    ``decided`` is the run's period verdict, handed to that ball's
    region (see Region)."""
    B = Region(G, (G.root,), decided).ball(3)
    interior = B.induced(sorted(B.vertex_set - B.frontier))
    try:
        return find_initial_cycle(interior)
    except InputError:
        raise InvariantViolation(
            "initial cycle not found near the root"
        ) from None


# the radius of the first ball saturation works in around the seed
_SEED_RADIUS = 4


def _require_star(star) -> None:
    """Raise InputError when the degree-condition verdict ``star`` fails."""
    if not star.holds:
        raise InputError(
            f"local degree condition fails near the cycle at {star.witness}"
        )


def decide_by_period(G: LazyGraph) -> bool:
    """Decide claw-freeness and the local degree condition for all of G
    on G's representatives, when it has them: refuse G with InputError
    at the first failure, and return whether G was decided.  The
    neighbour oracle's symmetry is decided with them: an asymmetric
    pair is refused with InvariantViolation.

    Both conditions at a vertex v read only its ball of radius 2.  A
    claw at v is v, three of its neighbours and the non-edges among
    them.  An induced path u-v-w with middle v compares d(u) + d(w)
    with |N(u) | N(v) | N(w)|, and N(u), N(w) lie within distance 2 of
    v.  An automorphism carries that ball onto the ball of v's image,
    and with it both verdicts.  Every vertex of G is the image of a
    representative (for the double-ray families, the shift of a vertex
    of fibers 0 .. p - 1 by a multiple of the period p), and every claw
    and induced path has a centre or middle.  So both conditions hold
    on G exactly when they hold at the representatives.

    The claw scan runs first, at the representatives, on the ball of
    radius 3 around them.  Then check_star_ball grows that ball again
    from the cached neighbour rows and tests the induced paths within
    distance 1 of the representatives, whose neighbourhoods it holds in
    full.  Those paths include every path with a representative as its
    middle, and a failure among the others is a failure in G too.  The
    messages are those of the per-ball checks.

    Symmetry is a property of G's neighbour oracle too, and the region
    that grows the radius-3 ball checks it on every pair whose ends are
    both interior, so on every pair (r, w) with r a representative and w
    listed by r.  An automorphism carries each vertex's row onto its
    image's row.  So an asymmetric pair (v, w), v listing w and w not
    listing v, goes under an automorphism taking v to a representative
    r to an asymmetric pair (r, w'), with w' listed by r: G has none
    when none is found there.  A decided run's regions then check no
    symmetry of their own.
    """
    if G.representatives is None:
        return False
    # their rows are read one at a time first, so that a row or the
    # neighbour cache over its budget is refused before anything is
    # built over all of them
    for v in chain.from_iterable(G.representatives):
        G.neighbors(v)
    centers = [v for ids in G.representatives for v in ids]
    B = Region(G, centers).ball(3)
    require_claw_free(B, centers)
    _require_star(check_star_ball(G, centers, 3))
    return True


def _saturate_initial(seed: Cycle, B: FiniteGraph) -> Cycle:
    """Saturate N(seed) in B, the ball of radius _SEED_RADIUS around
    the seed, whose interior is claw-free (check_seed scanned it, or
    the run is decided).

    The result C0 and its second neighbourhood lie within distance 3 of
    the seed, short of B's frontier.  Targets lie in N(seed), and only
    a kind II helper x can lie at distance 2.  x joins between its
    target v and a cycle vertex w = u+ that v misses (kind I failed at
    the anchor u), so as x is no claw centre, each other neighbour of x
    is next to v, at distance 1, or to w.  w is a seed vertex, a target
    or an earlier helper, so by induction over the helpers every
    neighbour of a vertex of C0 lies within distance 2 of the seed."""
    fixed = neighborhood_k(B, seed.vertex_set, 1)
    C0 = saturate(B, seed, target_filter=fixed.__contains__)
    if not B.frontier.isdisjoint(neighborhood_k(B, C0.vertex_set, 2)):
        raise InvariantViolation("saturation reached the seed ball's frontier")
    # the seed misses N(N(C0)) exactly when N(seed) lies in C0
    if not fixed <= C0.vertex_set:
        raise InvariantViolation("saturation left the seed exposed", seed=seed.order)
    return C0


def _select_end(
    G: LazyGraph,
    name: str,
    decomp: SeparatorDecomposition,
    walked: tuple[int, int | None],
) -> tuple[int, tuple[int, int | None]]:
    """The component the end's ray settles in: the one holding the last
    ray vertex before the ray first leaves the ball, with the walk
    stopped after t = |B| + 1.  ``walked`` is (t, ray(t - 1)) for a t
    with ray(0) .. ray(t - 1) all in the ball, where the walk goes on;
    the component index comes back with the same pair for where this
    walk stopped."""
    ray = G.end_rays[name]
    B = decomp.ball
    t, last = walked
    cap = len(B.adj) + 1
    while t <= cap:
        v = ray(t)
        if not B.has_vertex(v):
            break
        last = v
        t += 1
    if last is None:
        raise InvariantViolation(f"ray {name!r} never enters the ball")
    for j, piece in enumerate(decomp.infinite_components):
        if last in piece:
            return j, (t, last)
    raise InvariantViolation(
        f"ray {name!r} representative {last} sits outside every component"
    )


class _RunState:
    """What one hamilton_sequence run keeps across its iterations.

    ``region`` is grown from the seed cycle and then follows the cycle:
    each iteration adds what the cycle gained, and the blocker's N(C),
    decompose's balls and distances, and the degree condition's layers
    are read off it.

    ``decided`` says that claw-freeness, the local degree condition and
    the neighbour oracle's symmetry were decided for all of G on its
    representatives, first thing (decide_by_period's verdict); the seed
    ball and the iterations then check none of them, and the region
    keeps no twin classes.  Otherwise every ball is checked.  Both
    conditions are properties of G, so a centre that passes once passes
    in every later iteration.
    ``star_certified`` and ``claw_certified`` hold the centres already
    certified, and each ball checks only the others (see star_on_ball
    and claw_free_on_ball for when a centre counts as certified).

    ``live`` is the run's one live cycle (see _RunCycle), from the first
    enlargement on: each enlargement rewires it in place, and its
    ledger says what the next one's region, edge check and monotonicity
    check read.  ``last`` is the cycle the last enlargement froze.
    ``walks`` holds, per end, where its ray walk stopped and the radius
    of that ball.
    """

    def __init__(self, G: LazyGraph, seed: Cycle, decided: bool) -> None:
        self.G = G
        self.decided = decided
        self.star_certified: set[int] = set()
        self.claw_certified: set[int] = set()
        self.region = Region(G, seed.order, decided)
        self.live: _RunCycle | None = None
        self.last: Cycle | None = None
        self.walks: dict[str, tuple[int, int | None, int]] = {}

    def require_star(self, B: FiniteGraph, limit: int) -> None:
        # every vertex X had before the region's last grow was certified
        # by the scan of the ball before
        region = self.region
        _require_star(
            star_on_ball(
                B, region.layers, limit, self.star_certified, fresh=region.grown
            )
        )

    def check_seed(self) -> FiniteGraph:
        """The claw scan, then the degree condition, on the ball that
        saturation starts from, so that an input failing either is
        refused before saturation can trip over it; a decided run skips
        both.  Returns that ball, the region's first."""
        B = self.region.ball(_SEED_RADIUS)
        if not self.decided:
            require_claw_free(B, B.vertex_set - B.frontier, self.claw_certified)
            self.require_star(B, _SEED_RADIUS - 2)
        return B

    def enlarge(
        self, C: Cycle
    ) -> tuple[SeparatorDecomposition, Cycle, tuple[CutWitness, ...]]:
        """One iteration: grow the region by what C gained, decompose
        along C's blocker (scanning the ball for claws), check the degree
        condition on the same ball, and enlarge; the crossing sets of
        the M sets are read off the cycle once, in construct_cut1.  A
        decided run checks neither condition.

        When C is the cycle the last enlargement left, what C gained is
        read off the live cycle's ledger, vertices and edges, and only
        the edges gained are checked in G; otherwise (the saturated seed)
        off V(C), every edge is checked, and the live cycle starts from
        C.  C has a protected vertex, which construct_cut1 asks for: C_0
        holds N(seed) (see _saturate_initial), and C_{i+1} holds K0 | S,
        so N[C_i], by stage A and stage E's coverage clause."""
        region, live = self.region, self.live
        if live is not None and C is self.last:
            gained = live.gained
            region.grow(live.new_vertices())
        else:
            gained = None
            region.grow(C.vertex_set - region.layers[0])
            live = self.live = _RunCycle(C)
        decomp = decompose(self.G, C, region, self.claw_certified, gained)
        # V(C), kept by the region, which changes it at the next grow
        rim = _Rim(decomp.ball, region.layers[0], region.layers[1])
        if not self.decided:
            # the ball reaches at least 1 + BALL_MARGIN from C, so the
            # paths within BALL_MARGIN - 2 are complete in it
            self.require_star(decomp.ball, BALL_MARGIN - 2)
        C2, wits = construct_cut1(self.G, C, decomp, rim, live)
        self.last = C2
        return decomp, C2, wits

    def select_end(self, name: str, decomp: SeparatorDecomposition) -> int:
        """_select_end, resumed where this end's last walk stopped.
        decomp's ball is the region's last, of radius region.radius.
        The vertices walked before lay within the radius r of that ball
        from the cycle, and the cycle only grew, so they lie in any ball
        of radius r or more around it now; after a smaller ball the walk
        starts again from 0."""
        radius = self.region.radius
        t, last, r = self.walks.get(name, (0, None, radius))
        if r > radius:
            t, last = 0, None
        j, (t, last) = _select_end(self.G, name, decomp, (t, last))
        self.walks[name] = (t, last, radius)
        return j


def hamilton_sequence(G: LazyGraph, depth: int) -> SequenceTrace:
    """Run the full construction for ``depth`` iterations.

    A graph with representatives is checked for claws, the degree
    condition and the neighbour oracle's symmetry once, on them, before
    the seed cycle is looked for.  Otherwise the seed ball is checked
    first, and each iteration certifies the degree condition and
    claw-freeness on the decomposition's ball.  Each iteration blocks
    the current cycle, decomposes and enlarges.  The trace is
    deterministic for identical inputs.  A run whose cycles and K0 sets
    would hold more than MAX_TRACE_IDS vertex ids is refused with
    InputError.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if not G.escapes(frozenset(), G.root):
        raise InputError("graph not infinite")

    decided = decide_by_period(G)
    seed = _initial_cycle(G, decided)
    state = _RunState(G, seed, decided)
    C = _saturate_initial(seed, state.check_seed())
    cycles = [C]
    blockers: list[frozenset[int]] = []
    ks: list[int] = []
    k0s: list[frozenset[int]] = []
    witnesses: list[tuple[CutWitness, ...]] = []
    selectors: dict[str, list[int]] = {name: [] for name in sorted(G.end_rays)}

    stored = len(C)
    for i in range(depth):
        decomp, C2, wits = state.enlarge(C)
        stored += len(C2) + len(decomp.finite_component)
        if stored > MAX_TRACE_IDS:
            raise InputError(
                f"a trace of depth {depth} would store more than {MAX_TRACE_IDS} "
                f"vertex ids in its cycles and K0 sets, from iteration {i}"
            )
        for name in selectors:
            selectors[name].append(state.select_end(name, decomp))
        cycles.append(C2)
        blockers.append(decomp.script_S)
        ks.append(decomp.k)
        k0s.append(decomp.finite_component)
        witnesses.append(wits)
        C = C2
        # the region's next ball takes over this one's tables once
        # nothing holds it
        del decomp

    return SequenceTrace(
        descriptor=getattr(G, "descriptor", None),
        cycles=tuple(cycles),
        blockers=tuple(blockers),
        ks=tuple(ks),
        k0s=tuple(k0s),
        witnesses=tuple(witnesses),
        end_selectors={k: tuple(v) for k, v in selectors.items()},
    )
