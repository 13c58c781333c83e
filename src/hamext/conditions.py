"""Decision procedures for the local degree condition and claw-freeness.

The central predicate: for every induced path u-v-w (uv and vw edges,
uw a non-edge), the degree sum d(u) + d(w) must be at least the size of
the combined neighbourhood N(u) | N(v) | N(w).  Verdicts carry the
witness triple and both compared numbers, so the example arithmetic of
the shipped families is directly assertable in tests.

For infinite graphs the check runs on a ball and only evaluates triples
whose neighbourhoods are provably complete; the verdict says so.

Cost.  A check tests each centre with a few mask operations per
neighbour or per non-adjacent neighbour pair, over a table of BFS
ranks and neighbourhood bit masks (``_RankTable``).  A mask spans only
the BFS layers its neighbourhood touches, so the table holds the sum
of those window widths in bits, not |V|^2.  Witnesses and both
compared numbers come from the exact scan, in id order, of the first
centre the masks flag, so they are the ones a triple-by-triple scan of
the whole graph finds.

On a finite graph both checks read the graph's closed-twin quotient
(``FiniteGraph.twin_quotient``: vertices with equal N[v] merged, built
once per graph and shared with the connectivity test and the chain
check).  Both conditions are the same at twins, and the ends of an
induced path or the leaves of a claw lie in distinct classes, none of
them the centre's.  So one centre per class is tested (its smallest
id, where the first failure in id order always lies), with one end
per neighbouring class.  A centre is first certified from the class
sizes: with fewer than three neighbouring classes it centres no claw,
and the twins of its class and of an end's class bound the common
neighbours from below (``_star_certain``), which settles the degree
condition when the classes are large enough.  A certified centre would
pass the mask test, so the table (``_table_near``) is built only over
the centres left, their ends and the ends' neighbours, or not at all
when none is left; for the degree condition each class takes a block
of ranks, one bit per vertex, so the compared numbers stay exact.  A
ring of cliques G(q, n) with n >= 2 builds no table; on a twin-free
graph every vertex is a class of one, so only the claw check's length
test certifies, and the table spans what the centres left reach.

The ball checks take a set of certified centres: a centre that passed
with its whole neighbourhood in view passes on every later ball of the
same graph, so it is skipped.  They run on closed-twin classes too,
those the ball's region keeps (``graphcore.TwinClasses``), with rows
read from the classes' quotient rows: one centre and one end per
class, certified from the class sizes as on a finite graph, and the
same ``_table_near`` over the centres left and the vertices their
masks can mark, or no table when no centre is left.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence, Set
from .errors import FrontierContamination, InputError
from .graphcore import FiniteGraph, LazyGraph, Record, Region, TwinClasses


class StarVerdict(Record):
    """Outcome of a condition check on induced paths.

    ``lhs``/``rhs`` are the two compared quantities at the witness
    (degree sum versus union size).  ``scope`` is "graph" for a full
    finite check and "ball" when only a finite window of an infinite
    graph was examined.
    """

    __slots__ = _fields = ("holds", "witness", "lhs", "rhs", "scope")

    def __init__(
        self,
        holds: bool,
        witness: tuple[int, int, int] | None = None,
        lhs: int | None = None,
        rhs: int | None = None,
        scope: str = "graph",
    ) -> None:
        self.holds = holds
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        self.scope = scope

    def to_json_obj(self) -> dict:
        obj: dict = {"holds": self.holds, "scope": self.scope}
        if self.witness is not None:
            obj["witness"] = list(self.witness)
            obj["degree_sum"] = self.lhs
            obj["union_size"] = self.rhs
        return obj


class ClawVerdict(Record):
    __slots__ = _fields = ("claw_free", "witness")

    def __init__(
        self, claw_free: bool, witness: tuple[int, tuple[int, int, int]] | None = None
    ) -> None:
        self.claw_free = claw_free
        self.witness = witness

    def to_json_obj(self) -> dict:
        obj: dict = {"claw_free": self.claw_free}
        if self.witness is not None:
            center, leaves = self.witness
            obj["witness"] = {"center": center, "leaves": list(leaves)}
        return obj


class ChainVerdict(Record):
    """Two-sided inequality on induced paths: common-neighbour count of
    the endpoints >= private-neighbour count of the middle >= 2."""

    __slots__ = _fields = ("holds", "witness", "common", "private")

    def __init__(
        self,
        holds: bool,
        witness: tuple[int, int, int] | None = None,
        common: int | None = None,
        private: int | None = None,
    ) -> None:
        self.holds = holds
        self.witness = witness
        self.common = common
        self.private = private

    def to_json_obj(self) -> dict:
        obj: dict = {"holds": self.holds}
        if self.witness is not None:
            obj["witness"] = list(self.witness)
            obj["common_endpoint_neighbors"] = self.common
            obj["private_middle_neighbors"] = self.private
        return obj


def induced_paths_3(G: FiniteGraph) -> list[tuple[int, int, int]]:
    """All induced paths on three vertices, one triple per unordered
    pair of endpoints, as (u, v, w) with u < w and v the middle."""
    out = []
    for v in G.vertices:
        nbrs = G.adj[v]
        for a_pos, u in enumerate(nbrs):
            for w in nbrs[a_pos + 1 :]:
                if not G.adjacent(u, w):
                    out.append((u, v, w))
    return out


def _star_at(G: FiniteGraph, u: int, v: int, w: int) -> tuple[int, int]:
    lhs = G.degree(u) + G.degree(w)
    union = set(G.adj[u]) | set(G.adj[v]) | set(G.adj[w])
    return lhs, len(union)


class _RankTable:
    """BFS ranks and neighbourhood masks of a finite graph, given by its
    ``vertices`` in id order and its adjacency ``adj``.

    Ranks come from one breadth-first search that starts each component
    at its smallest vertex and takes neighbours in adjacency order, so
    a neighbourhood lies within three consecutive BFS layers.  In
    ``bits[v]``, bit ``r - lo[v]`` marks the neighbour of rank ``r``;
    the mask is as wide as that window, not |V|.  Built in O(|E|).

    With ``size``, the graph is a quotient: each vertex v stands for a
    class of ``size[v]`` closed twins, and the class takes a block of
    consecutive ranks, starting at ``rank[v]`` with v itself.  Then
    ``bits[v]`` marks v's neighbours in the graph the classes come from:
    the blocks of the neighbouring classes, and v's own block but v.
    A vertex that ``size`` lacks, every vertex without it, is a class
    of one.
    """

    __slots__ = ("adj", "rank", "lo", "bits")

    def __init__(
        self,
        vertices: Sequence[int],
        adj: Mapping[int, Sequence[int]],
        size: Mapping[int, int] | None = None,
    ) -> None:
        rank: dict[int, int] = {}
        for s in vertices:
            if s in rank:
                continue
            rank[s] = len(rank)
            queue = [s]
            for x in queue:
                for w in adj[x]:
                    if w not in rank:
                        rank[w] = len(rank)
                        queue.append(w)
        lo: dict[int, int] = {}
        bits: dict[int, int] = {}
        # rank holds the BFS order; each class gets a block from there
        count = (size or {}).get
        start = 0
        for v in rank:
            rank[v] = start
            start += count(v, 1)
        for v in vertices:
            blocks = [(rank[w], count(w, 1)) for w in adj[v]]
            if count(v, 1) > 1:
                blocks.append((rank[v] + 1, count(v, 1) - 1))
            first = min([r for r, _ in blocks], default=0)
            mask = 0
            for r, k in blocks:
                mask |= ((1 << k) - 1) << (r - first)
            lo[v] = first
            bits[v] = mask
        self.adj, self.rank, self.lo, self.bits = adj, rank, lo, bits

    def base(self, v: int, ends) -> int:
        """The lowest rank in N(v) or in N(u) for any u in ``ends``: the
        start of one window over which all their masks are aligned."""
        lo = self.lo
        base = lo[v]
        for u in ends:
            if lo[u] < base:
                base = lo[u]
        return base


def _star_fails_near(table: _RankTable, v: int, ends) -> bool:
    """Whether some induced path u-v-w with u, w in ``ends`` fails the
    degree condition.

    With c(x) = |N(x) & N(v)| and A(x) = N(x) - N(v), the condition
    d(u) + d(w) >= |N(u) | N(v) | N(w)| reads c(u) + c(w) + |A(u) & A(w)|
    >= d(v).  A(u) & A(w) always holds v, so a u with c(u) + min c + 1
    >= d(v) cannot be on a failing path.
    """
    if len(ends) < 2:
        return False
    rank, lo, bits = table.rank, table.lo, table.bits
    base = table.base(v, ends)
    nv = bits[v] << (lo[v] - base)
    dv = nv.bit_count()
    ends_mask = 0
    local = {}
    for u in ends:
        b = 1 << (rank[u] - base)
        nu = bits[u] << (lo[u] - base)
        ends_mask |= b
        local[b] = (nu, (nu & nv).bit_count(), nu & ~nv)
    c_min = min(c for _, c, _ in local.values())
    for b, (nu, c_u, a_u) in local.items():
        if c_u + c_min + 1 >= dv:
            continue
        # non-adjacent ends after u, so each pair is seen once
        rest = ends_mask & ~nu & ~((b << 1) - 1)
        while rest:
            bw = rest & -rest
            rest ^= bw
            _, c_w, a_w = local[bw]
            if c_u + c_w + (a_u & a_w).bit_count() < dv:
                return True
    return False


def _claw_near(table: _RankTable, v: int) -> bool:
    """Whether v is the centre of a claw: for some neighbour u, the
    neighbours of v that are neither u nor adjacent to u are not a
    clique.  Neighbours with equal such sets are tested once."""
    nbrs = table.adj[v]
    if len(nbrs) < 3:
        return False
    rank, lo, bits = table.rank, table.lo, table.bits
    base = table.base(v, nbrs)
    nv = bits[v] << (lo[v] - base)
    apart = {}
    for u in nbrs:
        b = 1 << (rank[u] - base)
        apart[b] = nv & ~(bits[u] << (lo[u] - base)) & ~b
    seen = set()
    for x_u in apart.values():
        # a set of fewer than two vertices is a clique
        if x_u & (x_u - 1) == 0 or x_u in seen:
            continue
        seen.add(x_u)
        rest = x_u
        while rest:
            bw = rest & -rest
            rest ^= bw
            if x_u & apart[bw]:
                return True
    return False


def _star_scan_at(
    G: FiniteGraph, v: int, ends
) -> tuple[tuple[int, int, int], int, int] | None:
    """The first induced path u-v-w (u, w in ``ends``, in adjacency
    order) failing the degree condition, with both compared numbers."""
    for a_pos, u in enumerate(ends):
        for w in ends[a_pos + 1 :]:
            if not G.adjacent(u, w):
                lhs, rhs = _star_at(G, u, v, w)
                if lhs < rhs:
                    return (u, v, w), lhs, rhs
    return None


def _star_certain(v: int, ends, size: Mapping[int, int], degree: int) -> bool:
    """Whether centre class v, of ``degree`` d(v), passes the degree
    condition on its class sizes alone.

    The |U| - 1 twins of an end u and the |V| - 1 twins of v are common
    neighbours of u and v, so c(u) >= |U| + |V| - 2.  When 2 * (|V| +
    min |U| - 2) + 1 >= d(v), every end meets _star_fails_near's skip
    test c(u) + min c + 1 >= d(v), and so does a class with fewer than
    two ends, which has no induced path."""
    if len(ends) < 2:
        return True
    return 2 * (size[v] + min(map(size.__getitem__, ends)) - 2) + 1 >= degree


def _table_near(centers: Sequence[int], ends, row, size=None) -> _RankTable | None:
    """The rank table that tests ``centers``: the masks of the centres and
    of their ``ends`` (a mapping from each centre to its ends), from the
    rows ``row`` reads; the ends' neighbours only take ranks.  So it
    spans the centres' second neighbourhoods, not the whole graph.  With
    no centre there is nothing to test, and no table."""
    if not centers:
        return None
    rows = dict(zip(centers, map(row, centers)))
    for e in set().union(*map(ends.__getitem__, centers)).difference(rows):
        rows[e] = row(e)
    holders = list(rows)
    rows.update(dict.fromkeys(set().union(*rows.values()).difference(rows), ()))
    return _RankTable(holders, rows, size)


def check_star(G: FiniteGraph) -> StarVerdict:
    """Check the degree condition on every induced path of a finite graph.

    The condition is the same at closed twins, so centres are the first
    vertices of the twin classes, in id order, and the mask test takes
    one end per neighbouring class.  A centre its class sizes certify
    (_star_certain) would pass the mask test, so it is skipped, and the
    table covers only the centres left; only the first centre the masks
    flag is scanned triple by triple, over all its neighbours."""
    centers, quotient, size = G.twin_quotient
    if size is not None:
        adj = G.adj
        centers = [
            v
            for v in centers
            if not _star_certain(v, quotient[v], size, len(adj[v]))
        ]
    table = _table_near(centers, quotient, quotient.__getitem__, size)
    for v in centers:
        if _star_fails_near(table, v, quotient[v]):
            found = _star_scan_at(G, v, G.adj[v])
            if found is not None:
                witness, lhs, rhs = found
                return StarVerdict(False, witness=witness, lhs=lhs, rhs=rhs)
    return StarVerdict(True)


def _classes(B: FiniteGraph, twins: TwinClasses | None):
    """How a ball check names the classes it runs on: the class of a
    vertex, the row of a class and the class sizes.  These are the
    ball's closed-twin classes (``B.twins``) or, without them, each
    vertex alone."""
    if twins is None:
        return (lambda v: v), B.adj.__getitem__, None
    adj = B.adj
    return twins.of.__getitem__, (lambda c: twins.row(c, adj)), twins.size


def _first_of_class(centers: Sequence[int], node) -> dict[int, int]:
    """Each class of ``centers``, which are in id order, mapped to its
    first centre, in the order of those centres."""
    first: dict[int, int] = {}
    for v in centers:
        first.setdefault(node(v), v)
    return first


def star_on_ball(
    B: FiniteGraph,
    layers: Sequence[Set[int]],
    limit: int,
    certified: set[int],
    fresh: Set[int] | None = None,
) -> StarVerdict:
    """The degree condition on the induced paths of a ball whose three
    vertices lie at distance <= ``limit`` from its centre.

    ``layers[d]`` holds the vertices at distance d from the centre in B
    (see :class:`Region`).  The frontier must lie at distance >= limit
    + 2, so every neighbourhood read is complete; a closer frontier
    raises FrontierContamination.

    ``certified`` holds centres known to pass and is updated in place:
    a centre that passes with all of its neighbours eligible has been
    checked on every induced path through it, so it passes on every
    later ball and is added.  A centre with ineligible neighbours is
    checked again next time.  Skipping certified centres leaves the
    first failing centre, and so the witness, unchanged, since centres
    are visited in id order either way.  ``fresh``, when given, holds
    the vertices of the centre ``layers[0]`` that may be missing from
    ``certified``, so that the rest of the centre is not read.

    The check runs on the ball's closed-twin classes (``B.twins``), as
    check_star does on a finite graph.  An eligible vertex and its
    neighbours are interior, so their rows are their rows in G and
    their classes are whole.  Twins are neighbours and lie at equal
    distance from the centre, except a twin on it (distance 0) beside
    one at distance 1, and once ``limit`` >= 1 both of those are
    eligible: eligibility is the same across a class.  So each class is
    tested once, at its first centre left in id order, with one end per
    eligible neighbouring class and a block of ranks per class; a
    flagged class is scanned exactly at that centre, over all its
    eligible neighbours, and every centre left of a class that passes
    with all its neighbours eligible is certified, as each of them
    would be alone.  A class its sizes certify (_star_certain) is
    skipped before any mask is built, as check_star does, since the
    mask test would pass it.  With ``limit`` 0, or a ball without
    classes, each vertex is a class of its own, and none is certified
    that way.
    """
    # the centre itself, and the shell of the eligible layers around it:
    # a vertex is eligible when it lies in either
    X, shell = layers[0], set().union(*layers[1 : limit + 1])

    def eligible(v: int) -> bool:
        return v in X or v in shell

    # layer by layer: each intersection runs over the smaller set
    close = sorted(
        set().union(*map(B.frontier.intersection, layers[: limit + 2]))
    )
    if close:
        raise FrontierContamination(
            f"frontier vertices {close[:6]} lie closer than {limit + 2} "
            "to the centre"
        )
    centers = sorted(
        (X if fresh is None else fresh).difference(certified)
        | shell.difference(certified)
    )
    node, row, size = _classes(B, B.twins if limit >= 1 else None)
    first = _first_of_class(centers, node)
    rows = {c: row(c) for c in first}
    ends = {c: list(filter(eligible, rows[c])) for c in first}
    left = list(first)
    if size is not None:
        adj = B.adj
        left = [
            c
            for c in left
            if not _star_certain(c, ends[c], size, len(adj[first[c]]))
        ]
    table = _table_near(left, ends, row, size)
    failed = None
    for c in left:
        v = first[c]
        if _star_fails_near(table, c, ends[c]):
            found = _star_scan_at(B, v, list(filter(eligible, B.adj[v])))
            if found is not None:
                failed = v
                break
    full = {c for c, es in ends.items() if len(es) == len(rows[c])}
    passed = centers if failed is None else centers[: bisect_left(centers, failed)]
    certified.update([v for v in passed if node(v) in full])
    if failed is None:
        return StarVerdict(True, scope="ball")
    witness, lhs, rhs = found
    return StarVerdict(False, witness=witness, lhs=lhs, rhs=rhs, scope="ball")


def check_star_ball(
    G: LazyGraph, center: int | Iterable[int], radius: int
) -> StarVerdict:
    """Evaluate the degree condition on a ball of an infinite graph.

    Only induced paths whose three vertices lie at distance <= radius-2
    from the center are evaluated; for those every needed neighbourhood
    is complete inside the ball.  The verdict's scope is "ball".  This
    is :func:`star_on_ball` on the ball of a fresh region grown from the
    center, with nothing certified.
    """
    if radius < 3:
        raise InputError("check_star_ball needs radius >= 3")
    if isinstance(center, int):
        center = (center,)
    region = Region(G, center)
    B = region.ball(radius)
    return star_on_ball(B, region.layers, radius - 2, set())


def _claw_at(G: FiniteGraph, v: int) -> tuple[int, int, int] | None:
    nbrs = G.adj[v]
    deg = len(nbrs)
    for i in range(deg):
        for j in range(i + 1, deg):
            if G.adjacent(nbrs[i], nbrs[j]):
                continue
            for k in range(j + 1, deg):
                if not G.adjacent(nbrs[i], nbrs[k]) and not G.adjacent(
                    nbrs[j], nbrs[k]
                ):
                    return (nbrs[i], nbrs[j], nbrs[k])
    return None


def is_claw_free(G: FiniteGraph) -> ClawVerdict:
    """Scan for a vertex with three pairwise non-adjacent neighbours.

    A claw's leaves lie in distinct closed-twin classes, none of them
    the centre's, so the mask test runs on the quotient by those
    classes, one centre per class in id order.  A class with fewer than
    three neighbouring classes centres no claw (_claw_near's own first
    test), so it is skipped, and the table covers only the centres
    left; the first centre the masks flag is scanned over all its
    neighbours."""
    centers, quotient, _ = G.twin_quotient
    centers = [v for v in centers if len(quotient[v]) >= 3]
    table = _table_near(centers, quotient, quotient.__getitem__)
    for v in centers:
        if _claw_near(table, v):
            leaves = _claw_at(G, v)
            if leaves is not None:
                return ClawVerdict(False, witness=(v, leaves))
    return ClawVerdict(True)


def claw_free_on_ball(
    B: FiniteGraph, centers: Iterable[int], certified: set[int] | None = None
) -> ClawVerdict:
    """Claw scan restricted to centers with complete neighbourhoods.

    ``centers`` must avoid the frontier and have all neighbours inside
    the ball; leaves may touch the frontier since only their mutual
    adjacency is read, and that is complete for ball members.

    With ``certified``, centres in it are skipped and each centre that
    passes is added to it: claw-freeness at a vertex with a complete
    neighbourhood is a property of the graph, so a centre that passes
    once passes on every later ball.  Centres are still visited in id
    order, so the first claw and its witness are the same as without.

    The scan runs on the ball's closed-twin classes (``B.twins``), with
    one bit per class as in is_claw_free: a claw's leaves lie in
    distinct classes, none of them the centre's, so each class is
    tested once, at its first centre in id order, which is the one
    scanned when it has a claw.  As in is_claw_free, a class with fewer
    than three neighbouring classes is skipped and builds no masks.
    """
    centers = set(centers)
    todo = sorted(centers - certified if certified else centers)
    # the first frontier centre ends the scan, certified or not
    close = B.frontier.intersection(centers)
    stop = min(close) if close else None
    if stop is not None:
        todo = todo[: bisect_left(todo, stop)]
    node, row, _ = _classes(B, B.twins)
    first = _first_of_class(todo, node)
    rows = {c: row(c) for c in first}
    left = [c for c in first if len(rows[c]) >= 3]
    table = _table_near(left, rows, row)
    for c in left:
        v = first[c]
        if _claw_near(table, c):
            leaves = _claw_at(B, v)
            if leaves is not None:
                if certified is not None:
                    certified.update(todo[: bisect_left(todo, v)])
                return ClawVerdict(False, witness=(v, leaves))
    if certified is not None:
        certified.update(todo)
    if stop is not None:
        raise FrontierContamination(f"claw center {stop} lies on the frontier")
    return ClawVerdict(True)


def check_ungl_kette(G: FiniteGraph) -> ChainVerdict:
    """Verify the inequality chain implied by the degree condition.

    On every induced path u-v-w: the endpoints share at least as many
    neighbours as the middle vertex has private ones, and the middle
    vertex has at least two private neighbours (u and w themselves).
    Requires the degree condition to hold; a failing chain afterwards
    would contradict a proved statement, so callers treat it as a bug
    signal.
    """
    star = check_star(G)
    if not star.holds:
        raise InputError(
            "check_ungl_kette requires the degree condition; "
            f"it fails at {star.witness} ({star.lhs} < {star.rhs})"
        )
    return _chain_on_classes(G)


def _chain_on_classes(G: FiniteGraph) -> ChainVerdict:
    """The chain on one induced path per triple of closed-twin classes.

    Swapping a vertex of a path for a closed twin changes neither
    number, and the three vertices of an induced path lie in distinct
    classes, so a path U-V-W of the quotient stands for all of its
    class triple.  With Q the quotient's open neighbourhoods and s the
    class sizes, common = s(Q(U) & Q(W)) and private = s(Q(V) - Q(U) -
    Q(W)) less the s(U) - 1 and s(W) - 1 twins of u and w, which are
    neighbours of u or w.  Only when a triple fails are the paths of G
    scanned one by one, so the witness is the first failing path in the
    order of ``induced_paths_3``.
    """
    centers, quotient, size = G.twin_quotient
    if size is None:
        size = dict.fromkeys(centers, 1)
    weight = size.__getitem__
    near = {r: frozenset(quotient[r]) for r in centers}
    for v in centers:
        nv = near[v]
        nbrs = quotient[v]
        for a_pos, u in enumerate(nbrs):
            nu = near[u]
            for w in nbrs[a_pos + 1 :]:
                if w in nu:
                    continue
                nw = near[w]
                common = sum(map(weight, nu & nw))
                private = sum(map(weight, nv - nu - nw)) - weight(u) - weight(w) + 2
                if not (common >= private >= 2):
                    return _chain_scan(G)
    return ChainVerdict(True)


def _chain_scan(G: FiniteGraph) -> ChainVerdict:
    """The chain on every induced path of G, in ``induced_paths_3``
    order; the verdict names the first path that fails."""
    for u, v, w in induced_paths_3(G):
        nu, nv, nw = set(G.adj[u]), set(G.adj[v]), set(G.adj[w])
        common = len(nu & nw)
        private = len(nv - (nu | nw))
        if not (common >= private >= 2):
            return ChainVerdict(False, witness=(u, v, w), common=common, private=private)
    return ChainVerdict(True)
