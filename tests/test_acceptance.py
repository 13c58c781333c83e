"""Repository-level acceptance gate.

Six criteria, one test each, in the order they are stated in the
project contract.  Every test prints a single pass/fail line (run
pytest with ``-s`` to see them on success) and enforces its time
bound.  Nothing here is approximate: all checks are exact
combinatorial equalities.
"""

import time

import pytest

import hamext.infinite as infinite_mod
from hamext import cli
from hamext.conditions import check_star, check_ungl_kette, induced_paths_3, is_claw_free
from hamext.errors import InputError
from hamext.extension import extend_to_hamilton
from hamext.families import fiber_window, gen_G, gen_G_inf, gen_H
from hamext.graphcore import ball, neighborhood_k, verify_cycle
from hamext.infinite import (
    SequenceTrace,
    hamilton_sequence,
    stable_limit,
    verify_hc_extract,
)
from hamext.oracle import hamilton_oracle, random_star_clawfree
from cycles import edge_set
from separators import (
    minimal_separators,
    verify_complete_attachment,
    verify_two_components,
)

CORPUS_SEEDS = range(200)


def _finish(num: int, name: str, failures: list, t0: float, bound: float | None):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    budget = f", bound {bound:g}s" if bound is not None else ""
    print(f"criterion {num} ({name}): {status} in {elapsed:.2f}s{budget}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"
    if bound is not None:
        assert elapsed < bound, (
            f"criterion {num} ({name}) took {elapsed:.2f}s, bound {bound:g}s"
        )


def _family_instances(maker, q_range, n_range, max_vertices):
    out = []
    for q in q_range:
        for n in n_range:
            try:
                G = maker(q, n)
            except InputError:
                continue
            if len(G.vertices) <= max_vertices:
                out.append((q, n, G))
    return out


def test_criterion_1_family_arithmetic():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3):
        G = gen_G(5, n)
        deg_sum_want = 6 * n - 2
        union_want = 5 * n
        for u, v, w in induced_paths_3(G):
            deg_sum = len(G.adj[u]) + len(G.adj[w])
            union = len(set(G.adj[u]) | set(G.adj[v]) | set(G.adj[w]))
            if deg_sum != deg_sum_want:
                failures.append(f"G(5,{n}) path {u},{v},{w}: degree sum {deg_sum}")
            if union != union_want:
                failures.append(f"G(5,{n}) path {u},{v},{w}: union {union}")
    for q in range(3, 9):
        for n in range(2, 5):
            if not check_star(gen_G(q, n)).holds:
                failures.append(f"star fails on G({q},{n})")
    _finish(1, "family arithmetic", failures, t0, 1.0)


def test_criterion_2_h_family_boundary():
    t0 = time.perf_counter()
    failures = []
    for q in (2, 3):
        for n in (6, 7):
            if not check_star(gen_H(q, n)).holds:
                failures.append(f"star should hold on H({q},{n})")
    boundary = check_star(gen_H(3, 5))
    if boundary.holds:
        failures.append("star should fail on H(3,5)")
    elif (boundary.lhs, boundary.rhs) != (22, 23):
        failures.append(
            f"H(3,5) witness arithmetic {boundary.lhs} vs {boundary.rhs}, want 22 vs 23"
        )
    for q, n, G in _family_instances(gen_H, range(2, 7), range(2, 17), 40):
        if is_claw_free(G).claw_free:
            failures.append(f"H({q},{n}) should contain a claw")
    for q, n, G in _family_instances(gen_G, range(3, 21), range(2, 14), 40):
        if not is_claw_free(G).claw_free:
            failures.append(f"G({q},{n}) should be claw-free")
    _finish(2, "H-family boundary", failures, t0, 5.0)


def test_criterion_3_finite_hamiltonicity():
    t0 = time.perf_counter()
    failures = []
    instances = [
        (f"G({q},{n})", G)
        for q, n, G in _family_instances(gen_G, range(3, 21), range(2, 14), 40)
    ]
    # the extension engine requires the degree condition, so only
    # H instances satisfying it are in scope
    instances += [
        (f"H({q},{n})", G)
        for q, n, G in _family_instances(gen_H, range(2, 7), range(2, 17), 40)
        if check_star(G).holds
    ]
    instances += [
        (f"rand({seed})", random_star_clawfree(seed)) for seed in CORPUS_SEEDS
    ]
    for name, G in instances:
        try:
            C = extend_to_hamilton(G)
        except Exception as exc:  # noqa: BLE001 - collected for the report
            failures.append(f"{name}: {exc}")
            continue
        if not verify_cycle(G, C).is_hamiltonian:
            failures.append(f"{name}: result is not a Hamilton cycle")
        if len(G.vertices) <= 20 and hamilton_oracle(G) is None:
            failures.append(f"{name}: oracle found no Hamilton cycle")
    _finish(3, "finite Hamiltonicity", failures, t0, 60.0)


def test_criterion_4_separator_and_chain_regressions():
    t0 = time.perf_counter()
    failures = []
    for seed in CORPUS_SEEDS:
        G = random_star_clawfree(seed)
        chain = check_ungl_kette(G)
        if not chain.holds:
            failures.append(f"seed {seed}: chain fails at {chain.witness}")
        for S in minimal_separators(G):
            two = verify_two_components(G, S)
            if not two.ok:
                failures.append(
                    f"seed {seed}: separator {sorted(S)} leaves "
                    f"{two.component_count} components"
                )
            attach = verify_complete_attachment(G, S)
            if not attach.ok:
                failures.append(
                    f"seed {seed}: separator {sorted(S)} attachment "
                    f"witness {attach.witness}"
                )
    _finish(4, "separator and chain regressions", failures, t0, 60.0)


def _check_iteration_clauses(G, trace, failures, label):
    """Re-check the enlargement's output clauses from the stored trace."""
    for i in range(trace.depth):
        prev, nxt = trace.cycles[i], trace.cycles[i + 1]
        blocker = trace.blockers[i]
        # coverage: finite component, blocker, and its 3rd neighbourhood
        B = ball(G, blocker, 4)
        region = set(blocker) | set(trace.k0s[i]) | neighborhood_k(B, blocker, 3)
        missing = region - nxt.vertex_set
        if missing:
            failures.append(f"{label} i={i}: clause-i misses {sorted(missing)[:4]}")
        # cuts: every stored crossing pair has size 2 and persists
        for w in trace.witnesses[i]:
            if len(w.crossing_edges) != 2:
                failures.append(
                    f"{label} i={i} j={w.j}: {len(w.crossing_edges)} crossings"
                )
            for p in range(i + 1, trace.depth + 1):
                if not set(w.crossing_edges) <= edge_set(trace.cycles[p]):
                    failures.append(
                        f"{label} i={i} j={w.j}: crossing lost in cycle {p}"
                    )
        # protected vertices keep both incident cycle edges
        prev_edges, nxt_edges = edge_set(prev), edge_set(nxt)
        for v in prev.order:
            if any(u not in prev.vertex_set for u in G.neighbors(v)):
                continue
            for e in ((v, prev.succ(v)), (prev.pred(v), v)):
                if tuple(sorted(e)) not in nxt_edges:
                    failures.append(f"{label} i={i}: protected edge {e} dropped")


def test_criterion_5_infinite_driver():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3):
        label = f"width {n}"
        G = gen_G_inf(n)
        trace = hamilton_sequence(G, 6)
        verdict = verify_hc_extract(trace)
        for cond in (
            "vertex_persistence",
            "finite_cuts",
            "nested_msets",
            "edge_persistence",
            "cut_agreement",
        ):
            report = getattr(verdict, cond)
            if not report.ok:
                failures.append(f"{label}: {cond} fails: {report.detail}")
        _check_iteration_clauses(G, trace, failures, label)
        window = fiber_window(G.descriptor, 5)
        stable = stable_limit(trace, window)
        degree = {v: 0 for v in window}
        for a, b in stable:
            degree[a] += 1
            degree[b] += 1
        interior = [
            v for v in window if all(u in window for u in G.neighbors(v))
        ]
        for v in interior:
            if degree[v] != 2:
                failures.append(f"{label}: stable degree {degree[v]} at {v}")
    _finish(5, "infinite driver", failures, t0, 120.0)


def test_criterion_6_determinism_and_certificates(capsys, monkeypatch):
    t0 = time.perf_counter()
    failures = []
    first = hamilton_sequence(gen_G_inf(2), 3).to_json()
    second = hamilton_sequence(gen_G_inf(2), 3).to_json()
    if first != second:
        failures.append("hamilton_sequence JSON differs between runs")
    outs = []
    for _ in range(2):
        code = cli.main(
            ["gen", "--family", "rand", "--n", "12", "--seed", "11"]
        )
        outs.append(capsys.readouterr().out)
        if code != 0:
            failures.append(f"gen rand exited {code}")
    if outs[0] != outs[1]:
        failures.append("gen rand output differs between runs")

    def _forbidden(*args, **kwargs):
        raise AssertionError("verification must not construct")

    monkeypatch.setattr(infinite_mod, "hamilton_sequence", _forbidden)
    monkeypatch.setattr(infinite_mod, "construct_cut1", _forbidden)
    stored = SequenceTrace.from_json(first)
    try:
        verdict = infinite_mod.verify_hc_extract(stored)
        if not verdict.all_ok:
            failures.append("stored trace fails verification")
    except AssertionError as exc:
        failures.append(str(exc))
    _finish(6, "determinism and certificates", failures, t0, None)
