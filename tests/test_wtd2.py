import dataclasses
import random

import pytest

import totaldom as td
from oracles import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_relabel,
    w2_recipe_graphs,
)


def k2():
    return td.Graph.from_edges(2, [(0, 1)])


def two_k2():
    return td.Graph.from_edges(4, [(0, 1), (2, 3)])


def p4_recipe():
    return td.W2Recipe(h=k2(), mvc_vertices=((0b01, 2), (0b10, 3)))


def figure_recipe():
    # core 2K2 on x=0, y=1, z=2, t=3; covers {x,z} {y,z} {x,t} {y,t};
    # step 3 adds xz and yt; three extra vertices u1 u2 u3 form a path
    return td.W2Recipe(
        h=two_k2(),
        mvc_vertices=((0b0101, 4), (0b0110, 5), (0b1001, 6), (0b1010, 7)),
        step3_edges=((0, 2), (1, 3)),
        h_prime=td.Graph.from_edges(3, [(0, 1), (1, 2)]),
        step4_edges=((0, 0), (0, 3), (1, 1), (1, 2), (2, 0), (2, 2), (2, 3)),
    )


class TestConstructW2:
    def test_p4(self):
        g = td.construct_w2(p4_recipe())
        assert g.n == 4
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]
        assert td.recognize_wtd_k(g, 2).accepted
        assert td.packing_number(g) == 2

    def test_eleven_vertex_example(self):
        g = td.construct_w2(figure_recipe())
        assert g.n == 11
        assert g.m == 21
        assert td.recognize_wtd_k(g, 2).accepted
        assert td.packing_number(g) == 2
        gde = td.dominating_edge_subgraph(g)
        assert gde.edges == ((0, 1), (2, 3))

    def test_step1_empty(self):
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(td.W2Recipe(h=td.Graph(0, ()), mvc_vertices=()))
        assert err.value.step == 1

    def test_step1_isolated(self):
        h = td.Graph.from_edges(3, [(0, 1)])
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(td.W2Recipe(h=h, mvc_vertices=()))
        assert err.value.step == 1
        assert err.value.witness == (2,)

    def test_step1_odd_cycle(self):
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(td.W2Recipe(h=complete_graph(3), mvc_vertices=()))
        assert err.value.step == 1

    def test_step2_missing_cover(self):
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(td.W2Recipe(h=k2(), mvc_vertices=((0b01, 2),)))
        assert err.value.step == 2
        assert err.value.witness == (0b10,)

    def test_step2_not_a_cover(self):
        bad = td.W2Recipe(h=k2(), mvc_vertices=((0b01, 2), (0b10, 3), (0b11, 4)))
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 2
        assert err.value.witness == (0b11,)

    def test_step2_duplicate_cover(self):
        bad = td.W2Recipe(h=k2(), mvc_vertices=((0b01, 2), (0b01, 3)))
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 2

    def test_step2_wrong_fresh_ids(self):
        bad = td.W2Recipe(h=k2(), mvc_vertices=((0b01, 5), (0b10, 6)))
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 2
        assert "fresh vertex ids" in str(err.value)

    def test_step3_edge_outside_core(self):
        bad = td.W2Recipe(
            h=k2(), mvc_vertices=((0b01, 2), (0b10, 3)), step3_edges=((0, 9),)
        )
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 3

    def test_step3_self_loop(self):
        bad = td.W2Recipe(
            h=k2(), mvc_vertices=((0b01, 2), (0b10, 3)), step3_edges=((1, 1),)
        )
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 3

    def test_step3_condition_on_final_graph(self):
        # in a 4-path core, the far endpoint sees neither end of the first edge
        h = path_graph(4)
        covers = td.minimal_vertex_covers(h).edges
        pairs = tuple((c, h.n + i) for i, c in enumerate(covers))
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(td.W2Recipe(h=h, mvc_vertices=pairs))
        assert err.value.step == 3
        assert err.value.witness == (3, 0, 1)
        # the two rung edges repair exactly that condition
        ok = td.construct_w2(
            td.W2Recipe(h=h, mvc_vertices=pairs, step3_edges=((0, 2), (1, 3)))
        )
        assert ok.n == h.n + len(covers)
        assert td.recognize_wtd_k(ok, 2).accepted

    def test_step4_without_hprime(self):
        bad = td.W2Recipe(
            h=k2(), mvc_vertices=((0b01, 2), (0b10, 3)), step4_edges=((0, 0),)
        )
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 4

    def test_step4_edge_range(self):
        bad = td.W2Recipe(
            h=k2(),
            mvc_vertices=((0b01, 2), (0b10, 3)),
            h_prime=td.Graph(1, (0,)),
            step4_edges=((0, 7),),
        )
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 4

    def test_step4_uncovered_vertex(self):
        bad = td.W2Recipe(
            h=k2(),
            mvc_vertices=((0b01, 2), (0b10, 3)),
            h_prime=td.Graph(1, (0,)),
        )
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(bad)
        assert err.value.step == 4
        assert err.value.witness == (0, 0, 1)
        ok = td.construct_w2(
            td.W2Recipe(
                h=k2(),
                mvc_vertices=((0b01, 2), (0b10, 3)),
                h_prime=td.Graph(1, (0,)),
                step4_edges=((0, 0),),
            )
        )
        assert ok.n == 5
        assert td.recognize_wtd_k(ok, 2).accepted

    def test_mvc_budget(self):
        pairs = [(2 * i, 2 * i + 1) for i in range(13)]
        h = td.Graph.from_edges(26, pairs)
        with pytest.raises(td.CapabilityError):
            td.construct_w2(td.W2Recipe(h=h, mvc_vertices=()))

    def test_vertex_limit_is_exact(self):
        # a p-edge matching has 2**p minimal vertex covers, each a fresh vertex
        six = td.Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)])
        with pytest.raises(td.CapabilityError, match="64-vertex limit"):
            td.construct_w2(td.W2Recipe(h=six, mvc_vertices=()))
        five = td.Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
        with pytest.raises(td.RecipeValidationError) as err:
            td.construct_w2(td.W2Recipe(h=five, mvc_vertices=()))
        assert err.value.step == 2


class TestMembership:
    def test_p4(self):
        r = td.w2_membership(path_graph(4))
        assert r.member
        assert r.recipe.h.n == 2
        assert r.recipe.h.edges() == ((0, 1),)
        rebuilt = td.construct_w2(r.recipe)
        assert td.canonical_form(rebuilt) == td.canonical_form(path_graph(4))

    def test_c4_rejected_on_packing(self):
        r = td.w2_membership(cycle_graph(4))
        assert not r.member
        assert r.reason == "packing number is 1"

    def test_figure_graph_rejected(self, figure1):
        r = td.w2_membership(figure1)
        assert not r.member
        assert r.reason == "packing number is 1"

    def test_c6_rejected_on_size(self):
        r = td.w2_membership(cycle_graph(6))
        assert not r.member
        assert r.reason == "not every minimal total dominating set has size 2"

    def test_eleven_vertex_round_trip(self):
        g = td.construct_w2(figure_recipe())
        r = td.w2_membership(g)
        assert r.member
        assert sorted(r.recipe.h.edges()) == [(0, 1), (2, 3)]
        rebuilt = td.construct_w2(r.recipe)
        assert td.canonical_form(rebuilt) == td.canonical_form(g)

    def test_round_trip_on_small_corpus(self, atlas6):
        members = 0
        for key, g in atlas6:
            r = td.w2_membership(g)
            expected = (
                td.recognize_wtd_k(g, 2).accepted and td.packing_number(g) == 2
            )
            assert r.member == expected
            if r.member:
                members += 1
                rebuilt = td.construct_w2(r.recipe)
                assert td.canonical_form(rebuilt) == td.canonical_form(g)
        assert members == 28


def _random_w2_recipe(rng: random.Random) -> tuple[td.W2Recipe, td.Graph]:
    """A recipe-built graph with n <= 11: random bipartite h, random step-3
    edges (repaired until step 3 holds) and up to two h' vertices, each
    joined to a random minimal vertex cover of h."""
    while True:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        h_edges = {(x, a + rng.randrange(b)) for x in range(a)}
        h_edges |= {(rng.randrange(a), a + y) for y in range(b)}
        h_edges |= {(x, a + y) for x in range(a) for y in range(b) if rng.random() < 0.3}
        h = td.Graph.from_edges(a + b, sorted(h_edges))
        covers = td.minimal_vertex_covers(h).edges
        hp_n = rng.randint(0, 2)
        if h.n + len(covers) + hp_n <= 11:
            break
    step3 = {
        (u, v)
        for u in range(h.n)
        for v in range(u + 1, h.n)
        if not h.has_edge(u, v) and rng.random() < 0.3
    }
    step4 = {(w, u) for w in range(hp_n) for u in td.mask_members(rng.choice(covers))}
    while True:
        recipe = td.W2Recipe(
            h=h,
            mvc_vertices=tuple((c, h.n + i) for i, c in enumerate(covers)),
            step3_edges=tuple(sorted(step3)),
            h_prime=td.Graph(hp_n, (0,) * hp_n) if hp_n else None,
            step4_edges=tuple(sorted(step4)),
        )
        try:
            return recipe, td.construct_w2(recipe)
        except td.RecipeValidationError as exc:
            assert exc.step == 3
            w, u, _ = exc.witness
            step3.add((min(w, u), max(w, u)))


def first_uncovered(recipe: td.W2Recipe, step: int):
    """(w, u, v) for the first h-edge uv, in h.edges() order, that some
    vertex w (ascending) checked at this step sees neither end of; None if
    there is none.  Step 3 checks the h vertices against h plus the step-3
    edges, step 4 the h' vertices against their step-4 edges."""
    h = recipe.h
    if step == 3:
        seen = td.Graph.from_edges(h.n, h.edges() + recipe.step3_edges).adj
    else:
        seen = [0] * recipe.h_prime.n
        for w, u in recipe.step4_edges:
            seen[w] |= 1 << u
    for u, v in h.edges():
        for w, nb in enumerate(seen):
            if step == 4 or w not in (u, v):
                if not nb >> u & 1 and not nb >> v & 1:
                    return w, u, v
    return None


class TestRecipeWitnesses:
    def test_removed_edges_name_the_first_uncovered_vertex(self):
        rng = random.Random(3141)
        failures = {3: 0, 4: 0}
        for _ in range(300):
            recipe, _ = _random_w2_recipe(rng)
            for step, field in ((3, "step3_edges"), (4, "step4_edges")):
                edges = getattr(recipe, field)
                if not edges:
                    continue
                # one edge uncovers one vertex; two can uncover two on one h-edge
                drop = rng.sample(edges, min(len(edges), rng.randint(1, 2)))
                kept = tuple(e for e in edges if e not in drop)
                bad = dataclasses.replace(recipe, **{field: kept})
                expected = first_uncovered(bad, step)
                try:
                    td.construct_w2(bad)
                except td.RecipeValidationError as exc:
                    assert (exc.step, exc.witness) == (step, expected)
                    failures[step] += 1
                else:
                    assert expected is None
        assert min(failures.values()) > 20


class TestRealizerChoice:
    def test_lowest_outside_twin_realizes_each_cover(self):
        rng = random.Random(4471)
        for _ in range(200):
            recipe, built = _random_w2_recipe(rng)
            # a twin of a cover vertex sees a vertex cover of h: a valid h' vertex
            cover, _ = rng.choice(recipe.mvc_vertices)
            twin = tuple((u, built.n) for u in td.mask_members(cover))
            g = random_relabel(td.Graph.from_edges(built.n + 1, built.edges() + twin), rng)

            r = td.w2_membership(g)
            assert r.member
            h_ids = td.dominating_edge_subgraph(g).vertices
            h_mask = td.vertex_mask(h_ids)
            used = 0
            for c, _ in r.recipe.mvc_vertices:
                nbhd = td.vertex_mask(h_ids[v] for v in td.mask_members(c))
                used |= 1 << min(
                    v for v in range(g.n) if g.adj[v] == nbhd and not h_mask >> v & 1
                )
            # everything else, in ascending id order, is h'
            h_prime, rest_ids = td.induced_subgraph(g, g.full_mask & ~h_mask & ~used)
            assert r.recipe.h_prime == h_prime
            pos = {old: new for new, old in enumerate(h_ids)}
            step4 = [
                (i, pos[u])
                for i, w in enumerate(rest_ids)
                for u in td.mask_members(g.adj[w] & h_mask)
            ]
            assert r.recipe.step4_edges == tuple(sorted(step4))
            assert td.canonical_form(td.construct_w2(r.recipe)) == td.canonical_form(g)


class TestTriangleFreeRecognizer:
    def test_accepting(self):
        for g in (
            k2(),
            path_graph(4),
            cycle_graph(4),
            complete_bipartite(3, 3),
            complete_bipartite(1, 4),
        ):
            assert td.recognize_triangle_free_wtd2(g)

    def test_rejecting(self, figure1):
        assert not td.recognize_triangle_free_wtd2(cycle_graph(6))
        assert not td.recognize_triangle_free_wtd2(path_graph(5))
        assert not td.recognize_triangle_free_wtd2(figure1)  # has a triangle
        assert not td.recognize_triangle_free_wtd2(two_k2())  # disconnected
        assert not td.recognize_triangle_free_wtd2(td.Graph(1, (0,)))
        assert not td.recognize_triangle_free_wtd2(td.Graph(0, ()))

    def test_agrees_with_enumeration(self, atlas6):
        for key, g in atlas6:
            if not td.is_triangle_free(g):
                continue
            rep = td.report(g)
            expected = rep.is_wtd and rep.gamma_t == 2
            assert td.recognize_triangle_free_wtd2(g) == expected

    def test_random_bipartite_agreement(self):
        rng = random.Random(41)
        for _ in range(150):
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            adj = [0] * (a + b)
            for u in range(a):
                for v in range(a, a + b):
                    if rng.random() < 0.6:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            g = td.Graph(a + b, tuple(adj))
            got = td.recognize_triangle_free_wtd2(g)
            if g.has_isolated_vertex():
                assert not got
                continue
            rep = td.report(g)
            assert got == (rep.is_wtd and rep.gamma_t == 2)


class TestW2Census:
    def test_recipe_graphs_are_the_catalog_w2_classes(self):
        # both directions of the characterization at each order n <= 8: the
        # four-step recipe, built by the oracle from its steps alone, yields
        # exactly the catalog's classes with uniform size 2 and packing 2
        built: dict[int, set[str]] = {}
        for g in w2_recipe_graphs(8):
            built.setdefault(g.n, set()).add(td.canonical_form(g).hex())
        entries, _ = td.run_search(td.SearchFilter(n_max=8), ["all"])
        catalog: dict[int, set[str]] = {}
        for e in entries:
            if e.is_wtd and e.gamma_t == 2 and e.rho == 2:
                catalog.setdefault(e.n, set()).add(e.canonical_key)
        assert built == catalog
        assert {n: len(keys) for n, keys in catalog.items()} == {4: 1, 5: 4, 6: 23, 7: 134, 8: 1036}


class TestRecipeText:
    def test_round_trip(self):
        recipe = figure_recipe()
        text = td.serialize_recipe(recipe)
        assert td.parse_recipe(text) == recipe

    def test_round_trip_without_hprime(self):
        recipe = p4_recipe()
        text = td.serialize_recipe(recipe)
        assert "HPRIME" not in text
        assert td.parse_recipe(text) == recipe

    def test_parse_normalizes_mvc_order(self):
        text = "H:\nn 2\n0 1\nMVC:\n1 -> 3\n0 -> 2\n"
        assert td.parse_recipe(text).mvc_vertices == ((0b01, 2), (0b10, 3))

    def test_comments_and_blanks(self):
        text = "# build a 4-path\n\nH:\nn 2\n0 1\n\nMVC:\n# both covers\n0 -> 2\n1 -> 3\n"
        assert td.parse_recipe(text) == p4_recipe()

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("H:\nn 2\n0 1\nH:\nMVC:\n0 -> 2\n", "duplicate section"),
            ("n 2\n0 1\nH:\nMVC:\n", "content before the H: section"),
            ("MVC:\n0 -> 2\n", "missing H: section"),
            ("H:\nn 2\n0 1\n", "missing MVC: section"),
            ("H:\nn 2\n0 1\nMVC:\n0 2\n", "expected '<ids> -> <fresh id>'"),
            ("H:\nn 2\n0 1\nMVC:\nq -> 2\n", "malformed MVC line"),
            ("H:\nn 2\n0 1\nMVC:\n-> 2\n", "empty cover"),
            ("H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nSTEP3:\n0 1 2\n", "malformed STEP3"),
            ("H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nSTEP3:\n0 x\n", "malformed STEP3 line '0 x'"),
            (
                "H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nHPRIME:\nn 1\nSTEP4:\n0 a\n",
                "malformed STEP4 line '0 a'",
            ),
            ("H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nSTEP4:\n0 0\n", "without an HPRIME"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(td.ParseError) as err:
            td.parse_recipe(text)
        assert fragment in str(err.value)

    def test_empty_hprime_section_means_none(self):
        text = "H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nHPRIME:\nn 0\nSTEP4:\n"
        assert td.parse_recipe(text).h_prime is None
