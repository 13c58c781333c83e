"""The calls a run makes to its graph's two oracles, pinned.

A run asks the neighbour oracle and the escape oracle only what the
lazy graph has not cached, so the sequence of those calls follows every
search and probe of the construction, in order.  A refactor that keeps
the construction must keep this sequence too.  Each run below records
it, and the test compares its counts and its digest with the ones
recorded before ``decompose`` took over the blocker search.  Decided
runs keep the family's representatives; the others drop them, so each
of their balls is checked for claws, the degree condition and the
neighbour oracle's symmetry.
"""

import hashlib

import pytest

from hamext.families import gen_G_inf
from hamext.graphcore import LazyGraph
from hamext.infinite import hamilton_sequence


def recording_graph(n, decided=True):
    """GZn behind oracles that log each call, and the log: ("n", v) for
    a neighbour row, ("e", sorted blocked set, v) for an escape query.
    With ``decided`` false the graph states no representatives."""
    base = gen_G_inf(n)
    calls = []

    def neighbors(v):
        calls.append(("n", v))
        return base._neighbor_oracle(v)

    def escapes(blocked, v):
        calls.append(("e", tuple(sorted(blocked)), v))
        return base._escape_oracle(blocked, v)

    G = LazyGraph(
        neighbors, escapes, base.root, base.end_rays, base.descriptor,
        base.representatives if decided else None,
    )
    return G, calls


def digest(calls):
    return hashlib.sha256(repr(calls).encode()).hexdigest()[:16]


# (n, depth, decided): neighbour calls, escape calls, digest of the log
PINNED = {
    (2, 12, True): (212, 85, "5bdfc5a67406ac63"),
    (3, 8, True): (219, 73, "04852ea0247ff7d0"),
    (5, 4, True): (205, 53, "508eb3185b30222d"),
    (2, 10, False): (180, 71, "af5edd6e3d1f4003"),
    (3, 8, False): (219, 73, "04852ea0247ff7d0"),
    (4, 5, False): (196, 56, "e6153b2cecebee5d"),
}


@pytest.mark.parametrize("n, depth, decided", sorted(PINNED))
def test_a_run_asks_both_oracles_what_it_asked_before(n, depth, decided):
    G, calls = recording_graph(n, decided)
    hamilton_sequence(G, depth)
    neighbour = sum(call[0] == "n" for call in calls)
    assert (neighbour, len(calls) - neighbour, digest(calls)) == PINNED[
        n, depth, decided
    ]
