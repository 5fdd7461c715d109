"""End-to-end acceptance checks.

Each test exercises one shipping requirement, prints a single summary line
(`ACCEPTANCE <k> PASS/FAIL - <what it checked> (<seconds>)`), and then
asserts.  Run them alone with

    pytest tests/test_acceptance.py -v -s

The corpus sweeps ride on the session-scoped atlas fixtures, so the first
test to request them pays the enumeration cost once.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import totaldom as td
from totaldom.cli import main as cli_main

from oracles import brute_minimal_tds, brute_minimal_tds_monotone

FIGURE1_TEXT = "n 5\n# labels: x y z t w\n0 1\n0 3\n1 2\n1 3\n2 4\n3 4\n"
C6_TEXT = "n 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
P5_TEXT = "n 5\n0 1\n1 2\n2 3\n3 4\n"


def _emit(num: int, ok: bool, desc: str, t0: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} - {desc} ({time.perf_counter() - t0:.2f} s)")
    return ok


def _analyze_via_cli(path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["analyze", str(path)])
    assert code == 0
    return json.loads(buf.getvalue())


def _uniform_size(masks) -> int | None:
    sizes = {m.bit_count() for m in masks}
    return sizes.pop() if len(sizes) == 1 else None


def test_criterion_01_named_instances(tmp_path):
    t0 = time.perf_counter()
    f1 = tmp_path / "f1.txt"
    f1.write_text(FIGURE1_TEXT, encoding="utf-8")
    c6 = tmp_path / "c6.txt"
    c6.write_text(C6_TEXT, encoding="utf-8")
    p5 = tmp_path / "p5.txt"
    p5.write_text(P5_TEXT, encoding="utf-8")

    pay1 = _analyze_via_cli(f1)
    want_gde = {frozenset(p) for p in (("z", "y"), ("y", "t"), ("t", "w"))}
    got_gde = {frozenset(p) for p in pay1.get("g_de_edges", ())}
    ok = pay1["is_wtd"] is True and pay1["gamma_t"] == 2 and got_gde == want_gde

    pay2 = _analyze_via_cli(c6)
    ok = ok and pay2["is_wtd"] is True

    pay3 = _analyze_via_cli(p5)
    ok = ok and pay3["is_wtd"] is False and (pay3["gamma_t"], pay3["Gamma_t"]) == (3, 4)

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _emit(1, ok, "named small instances match their frozen analysis", t0), (
        pay1,
        pay2,
        pay3,
        elapsed,
    )


def test_criterion_02_oracle_equivalence(atlas7):
    t0 = time.perf_counter()
    mismatches = []
    for key, g in atlas7:
        if tuple(td.mtds(g).edges) != tuple(brute_minimal_tds(g)):
            mismatches.append(key.hex())
    elapsed = time.perf_counter() - t0
    ok = not mismatches and len(atlas7) == 995 and elapsed < 300.0
    assert _emit(
        2, ok, "transversal enumeration agrees with the exponential oracle (n <= 7)", t0
    ), (len(atlas7), mismatches[:5], elapsed)


def test_criterion_03_neighborhood_properties(atlas7, atlas8):
    t0 = time.perf_counter()
    # dualizing the minimal-TDS family must land back on open neighborhoods
    bad_dual = []
    for key, g in atlas7:
        nbhds = {g.adj[v] for v in range(g.n)}
        dual = td.enumerate_minimal_transversals(td.mtds(g))
        if any(e not in nbhds for e in dual.edges):
            bad_dual.append(key.hex())

    # on uniform-size-2 graphs, every minimal vertex cover of the
    # dominating-edge subgraph must be some vertex's whole neighborhood
    bad_cover = []
    checked_covers = 0
    for key, g in atlas8:
        if not td.recognize_wtd_k(g, 2).accepted:
            continue
        dom_edges = td.dominating_edge_subgraph(g)
        covers = td.minimal_vertex_covers(td.Graph.from_edges(g.n, dom_edges))
        for cover in covers.edges:
            checked_covers += 1
            if all(g.adj[v] != cover for v in range(g.n)):
                bad_cover.append((key.hex(), cover))

    ok = not bad_dual and not bad_cover and checked_covers > 0
    assert _emit(
        3, ok, "dual transversals and dominating-edge covers are open neighborhoods", t0
    ), (bad_dual[:5], bad_cover[:5], checked_covers)


def _sample_family(rng: random.Random) -> td.SpernerFamily:
    """A random antichain with ground <= 6, <= 4 members, members of size >= 2.

    Rejected while its realization would exceed 12 vertices, which keeps the
    2^n oracle affordable; see the sweep budget note in the suite docstring.
    """
    while True:
        ground = rng.randint(2, 6)
        count = rng.randint(1, 4)
        masks = set()
        for _ in range(count):
            size = rng.randint(2, ground)
            masks.add(td.vertex_mask(rng.sample(range(ground), size)))
        try:
            fam = td.SpernerFamily(ground, tuple(sorted(masks)))
        except ValueError:
            continue
        support = 0
        for e in fam.edges:
            support |= e
        n_realized = support.bit_count() + len(td.enumerate_minimal_transversals(fam).edges)
        if n_realized <= 12:
            return fam


def test_criterion_04_realizer_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(40412)
    failures = []
    for case in range(500):
        fam = _sample_family(rng)
        rg = td.realize_mtds(fam)
        pos = {ground_id: v for v, ground_id in enumerate(rg.ground_vertices)}
        want = sorted(
            td.vertex_mask(pos[x] for x in td.mask_members(e)) for e in fam.edges
        )
        got = brute_minimal_tds_monotone(rg.graph)
        if rg.graph.n <= 9 and got != brute_minimal_tds(rg.graph):
            failures.append(("oracle-disagreement", case))
        if got != want:
            failures.append((case, fam.ground, fam.edges))
    ok = not failures
    assert _emit(4, ok, "realized families round-trip through the exponential oracle", t0), (
        failures[:5],
    )


def test_criterion_05_bounded_recognition(atlas7):
    t0 = time.perf_counter()
    mismatches = []
    for key, g in atlas7:
        uniform = _uniform_size(brute_minimal_tds(g))
        for k in (2, 3, 4):
            want = uniform == k
            if td.recognize_wtd_k(g, k).accepted != want:
                mismatches.append((key.hex(), k))
    ok = not mismatches
    assert _emit(
        5, ok, "bounded size-k recognition agrees with brute force for k in 2..4", t0
    ), mismatches[:5]


def _random_bipartite_isolate_free(rng: random.Random) -> td.Graph:
    while True:
        n = rng.randint(2, 5)
        left = rng.randint(1, n - 1)
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < 0.6
        ]
        g = td.Graph.from_edges(n, edges)
        if all(g.adj[v] for v in range(n)):
            return g


def _random_valid_recipe(rng: random.Random) -> tuple[td.W2Recipe, td.Graph]:
    """Draw a recipe and repair it against the validator until it builds."""
    h = _random_bipartite_isolate_free(rng)
    covers = td.minimal_vertex_covers(h).edges
    mvc = tuple((c, h.n + i) for i, c in enumerate(covers))

    step3 = {
        (u, v)
        for u in range(h.n)
        for v in range(u + 1, h.n)
        if not h.adj[u] >> v & 1 and rng.random() < 0.35
    }
    hp_n = rng.randint(0, 3)
    h_prime = None
    step4: set[tuple[int, int]] = set()
    if hp_n:
        hp_edges = [
            (u, v) for u in range(hp_n) for v in range(u + 1, hp_n) if rng.random() < 0.4
        ]
        h_prime = td.Graph.from_edges(hp_n, hp_edges)
        step4 = {
            (w, u)
            for w in range(hp_n)
            for u, v in h.edges()
            if rng.random() < 0.5
        }

    while True:
        recipe = td.W2Recipe(
            h=h,
            mvc_vertices=mvc,
            step3_edges=tuple(sorted(step3)),
            h_prime=h_prime,
            step4_edges=tuple(sorted(step4)),
        )
        try:
            return recipe, td.construct_w2(recipe)
        except td.RecipeValidationError as exc:
            # the witness names a vertex seeing neither endpoint; wire it up
            w, u, v = exc.witness
            if exc.step == 3:
                step3.add((min(w, u), max(w, u)))
            elif exc.step == 4:
                step4.add((w, u))
            else:
                raise


def test_criterion_06_w2_construction_and_membership(atlas8):
    t0 = time.perf_counter()
    rng = random.Random(90125)
    failures = []
    for case in range(200):
        recipe, built = _random_valid_recipe(rng)
        ok_case = (
            td.recognize_wtd_k(built, 2).accepted
            and td.packing_number(built) == 2
            and set(td.dominating_edge_subgraph(built)) == set(recipe.h.edges())
        )
        if not ok_case:
            failures.append(("forward", case))

    members = 0
    for key, g in atlas8:
        if not (td.recognize_wtd_k(g, 2).accepted and td.packing_number(g) == 2):
            continue
        members += 1
        memb = td.w2_membership(g)
        if not memb.member:
            failures.append(("membership", key.hex()))
            continue
        rebuilt = td.construct_w2(memb.recipe)
        if td.canonical_form(rebuilt) != td.canonical_form(g):
            failures.append(("reconstruction", key.hex()))

    ok = not failures and members >= 28
    assert _emit(
        6, ok, "four-step construction and membership decisions are mutually inverse", t0
    ), (failures[:5], members)


def test_criterion_07_triangle_free_recognizer(atlas8):
    t0 = time.perf_counter()
    mismatches = []
    for key, g in atlas8:
        if not td.is_triangle_free(g):
            continue
        want = _uniform_size(brute_minimal_tds(g)) == 2
        if td.recognize_triangle_free_wtd2(g) != want:
            mismatches.append(key.hex())

    ok = not mismatches
    assert _emit(7, ok, "triangle-free recognizer is exact", t0), mismatches[:5]


def _induced_matchings(g: td.Graph):
    edges = list(g.edges())

    def compatible(e, f):
        u, v = e
        x, y = f
        if len({u, v, x, y}) < 4:
            return False
        return not any(g.adj[a] >> b & 1 for a in (u, v) for b in (x, y))

    out = []

    def grow(start, cur):
        for i in range(start, len(edges)):
            e = edges[i]
            if all(compatible(e, f) for f in cur):
                cur.append(e)
                out.append(tuple(cur))
                grow(i + 1, cur)
                cur.pop()

    grow(0, [])
    return out


def test_criterion_08_matching_reductions(atlas7):
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for key, g in atlas7:
        gam = _uniform_size(brute_minimal_tds(g))
        if gam is None:
            continue
        for sel in _induced_matchings(g):
            rest, _ = td.reduce_by_matching(g, sel)
            if rest.n == 0 or rest.has_isolated_vertex():
                continue
            checked += 1
            reduced_sizes = {m.bit_count() for m in brute_minimal_tds(rest)}
            if reduced_sizes != {gam - 2 * len(sel)}:
                violations.append((key.hex(), sel))
    ok = not violations and checked > 0
    assert _emit(
        8, ok, "matching reductions stay uniform and drop gamma_t by 2 per edge", t0
    ), (violations[:5], checked)


def test_criterion_09_exhaustive_search(tmp_path):
    t0 = time.perf_counter()
    report = td.run_search(td.SearchFilter(n_max=8), out_path=str(tmp_path / "catalog.jsonl"))
    elapsed = time.perf_counter() - t0
    bad = {
        name: info["violations"]
        for name, info in report["assertions"].items()
        if info["violations"]
    }
    frontier = report["frontier"]["largest_planar_wtd2_min_degree3"]
    ok = (
        report["classified"] == 12112
        and tuple(report["assertions"]) == tuple(td.ASSERTIONS)
        and not bad
        and frontier is not None
        and elapsed < 1800.0
    )
    assert _emit(9, ok, "exhaustive search to n = 8 confirms every catalog assertion", t0), (
        report["classified"],
        bad,
        frontier,
        elapsed,
    )


def test_criterion_10_disjoint_kset_ladders():
    t0 = time.perf_counter()
    failures = []
    want_n = {2: (4, 8, 14), 3: (6, 15, 36)}
    for k in (2, 3):
        got_n = []
        for m in (1, 2, 3):
            fam = td.SpernerFamily(
                m * k,
                tuple(td.vertex_mask(range(i * k, (i + 1) * k)) for i in range(m)),
            )
            rg = td.realize_mtds(fam)
            got_n.append(rg.graph.n)
            if not td.recognize_wtd_k(rg.graph, k).accepted:
                failures.append(("rejected", k, m))
        if tuple(got_n) != want_n[k]:
            failures.append(("sizes", k, tuple(got_n)))
    ok = not failures
    assert _emit(
        10, ok, "disjoint k-set families realize uniform size-k graphs of growing order", t0
    ), failures
