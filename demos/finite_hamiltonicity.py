"""
Growing a Hamilton cycle one extension at a time
================================================

A finite connected graph whose induced paths u-v-w all satisfy
d(u) + d(w) >= |N(u) u N(v) u N(w)| is Hamiltonian, and the proof is
an algorithm: start at any short cycle and absorb one neighbour after
another with three rewiring moves.  This script walks the algorithm
on a small blown-up cycle and cross-checks the result against an
exhaustive search.
"""

from hamext.conditions import check_star, is_claw_free
from hamext.extension import find_initial_cycle, iter_extensions
from hamext.families import gen_G
from hamext.graphcore import verify_cycle
from hamext.oracle import hamilton_oracle

# A 5-cycle with every vertex blown up into an adjacent pair: 10
# vertices, fibers of width 2, consecutive fibers completely joined.
G = gen_G(5, 2)
print(f"graph: {len(G.vertices)} vertices, {len(list(G.edges()))} edges")

# The two hypotheses of the extension machinery.
print("degree condition holds:", check_star(G).holds)
print("claw-free:", is_claw_free(G).claw_free)

# Start from the smallest triangle and absorb the smallest admissible
# neighbour until nothing is left outside.
start = find_initial_cycle(G)
print(f"\nstart cycle: {start.order}")
for ext, live in iter_extensions(G, start):
    detail = f" via {ext.u}" + (f" and helper {ext.x}" if ext.x is not None else "")
    print(f"  kind {ext.kind:>3} absorbs {ext.target}{detail} -> {len(live)} vertices")
# the loop rewires one live cycle in place; freeze it to keep it
C = live.freeze()

report = verify_cycle(G, C)
print(f"\nfinal cycle: {C.order}")
print("hamiltonian:", report.is_hamiltonian)

# An independent opinion: plain exhaustive backtracking.
oracle_cycle = hamilton_oracle(G)
print("oracle agrees a Hamilton cycle exists:", oracle_cycle is not None)
