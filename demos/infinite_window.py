"""
A Hamilton circle, one verified window at a time
================================================

On an infinite graph no finite process can output a Hamilton circle,
but it can output something almost as good: a nested sequence of
cycles that provably stops changing on any fixed window.  Each
iteration swallows a ray-blocking set and leaves behind cut
certificates; an independent checker replays the certificates without
re-running the construction.
"""

from hamext.families import fiber_window, gen_G_inf
from hamext.infinite import hamilton_sequence
from hamext.verify import stable_limit, verify_hc_extract

# The double ladder: fibers of width 2 indexed by the integers,
# consecutive fibers completely joined.  Two ends, one left, one right.
G = gen_G_inf(2)
print("family:", G.descriptor)

# Six rounds of cycle enlargement.
trace = hamilton_sequence(G, depth=6)
print("cycle sizes:", [len(c) for c in trace.cycles])
print("components met per round:", list(trace.ks))

# The trace is a certificate: five conditions, each checked from the
# stored data alone.
verdict = verify_hc_extract(trace)
print("\nverifier verdict:")
for name, report in verdict.to_json_obj().items():
    if name != "all_ok":
        print(f"  {name}: {report['ok']} ({report['detail']})")
print("all conditions hold:", verdict.all_ok)

# Edges that appeared in two consecutive cycles never disappear again,
# so on a fixed window the limit object is already visible.
window = fiber_window(G.descriptor, 5)
stable = stable_limit(trace, window)
print(f"\nstable edges on the 11-fiber window: {len(stable)}")
degree = {v: 0 for v in window}
for a, b in stable:
    degree[a] += 1
    degree[b] += 1
interior = sorted(v for v in window if all(u in window for u in G.neighbors(v)))
print(
    "interior vertices all have degree 2:",
    all(degree[v] == 2 for v in interior),
)
left, right = trace.end_selectors["left"], trace.end_selectors["right"]
print(f"end selectors: left {left}, right {right}")
