import random

import pytest
from hypothesis import given, settings, strategies as st

import totaldom as td
from oracles import (
    brute_minimal_transversals,
    complete_graph,
    pairwise_containment,
    path_graph,
    star_graph,
)


def family_strategy(max_ground=7, max_edges=5):
    """Random raw set collections (not necessarily antichains)."""

    def build(ground, draws):
        top = (1 << ground) - 1
        edges = sorted({1 + d % top for d in draws})
        return ground, edges

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_ground),
        st.lists(st.integers(min_value=0, max_value=2**18), min_size=1, max_size=max_edges),
    )


class TestSpernerFamily:
    def test_valid_construction(self):
        fam = td.SpernerFamily(3, (0b011, 0b100))
        assert fam.sets() == ((0, 1), (2,))

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            td.SpernerFamily(3, (0,))

    def test_rejects_superset_pairs(self):
        with pytest.raises(ValueError):
            td.SpernerFamily(3, (0b001, 0b011))

    def test_antichain_check_matches_pairwise_scan(self):
        rng = random.Random(7)
        antichains = several = 0
        for _ in range(3000):
            ground = rng.randint(1, 10)
            draws = rng.randint(1, 12)
            edges = tuple(sorted({rng.randrange(1, 1 << ground) for _ in range(draws)}))
            pair = pairwise_containment(edges)
            if pair is None:
                assert td.SpernerFamily(ground, edges).edges == edges
                antichains += 1
                continue
            with pytest.raises(ValueError) as err:
                td.SpernerFamily(ground, edges)
            e, f = ({v for v in range(ground) if s >> v & 1} for s in pair)
            assert str(err.value) == f"not an antichain: {e} is contained in {f}"
            assert (err.value.contained, err.value.superset) == pair
            contained = [a for a in edges if any(a != b and a & b == a for b in edges)]
            several += len(contained) > 1
        assert antichains > 300 and several > 300

    def test_antichain_check_matches_pairwise_scan_past_one_byte(self):
        # grounds 9..64 put members in every byte of the mask; subsets and
        # supersets of drawn edges make contained pairs across bytes
        rng = random.Random(64)
        antichains = contained = 0
        for ground in range(9, 65):
            for _ in range(30):
                edges = set()
                for _ in range(rng.randint(1, 10)):
                    if edges and rng.random() < 0.3:
                        base = rng.choice(sorted(edges))
                        e = base & rng.getrandbits(ground) or base
                        e = e if rng.random() < 0.5 else base | rng.getrandbits(ground)
                    elif rng.random() < 0.5:
                        e = sum(1 << v for v in rng.sample(range(ground), rng.randint(1, 4)))
                    else:
                        e = rng.randrange(1, 1 << ground)
                    edges.add(e)
                edges = tuple(sorted(edges))
                pair = pairwise_containment(edges)
                if pair is None:
                    assert td.SpernerFamily(ground, edges).edges == edges
                    antichains += 1
                    continue
                with pytest.raises(ValueError) as err:
                    td.SpernerFamily(ground, edges)
                e, f = ({v for v in range(ground) if x >> v & 1} for x in pair)
                assert str(err.value) == f"not an antichain: {e} is contained in {f}"
                assert (err.value.contained, err.value.superset) == pair
                contained += 1
        assert antichains > 300 and contained > 300

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            td.SpernerFamily(3, (0b100, 0b011))
        with pytest.raises(ValueError):
            td.SpernerFamily(3, (0b011, 0b011))

    def test_rejects_out_of_ground(self):
        with pytest.raises(ValueError):
            td.SpernerFamily(2, (0b100,))

    def test_rejects_ground_above_64(self):
        with pytest.raises(ValueError, match="^ground size 65 outside 0..64$"):
            td.SpernerFamily(65, ())

    def test_empty_edge_tuple_is_permitted(self):
        # the bounded enumerator must be able to hand back "nothing found"
        assert td.SpernerFamily(3, ()).edges == ()


class TestMinimizeFamily:
    def test_superset_removal(self):
        fam = td.minimize_family(4, [0b0011, 0b0111])
        assert fam.edges == (0b0011,)

    def test_keeps_incomparable(self):
        fam = td.minimize_family(3, [0b001, 0b010, 0b011])
        assert fam.edges == (0b001, 0b010)

    def test_star_neighborhoods(self):
        s = star_graph(3)
        raw = [s.adj[v] for v in range(s.n)]
        fam = td.minimize_family(s.n, raw)
        assert fam.edges == (0b0001, 0b1110)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            td.minimize_family(3, [])
        with pytest.raises(ValueError):
            td.minimize_family(3, [0b010, 0])

    @given(family_strategy())
    @settings(max_examples=150, deadline=None)
    def test_minimize_properties(self, case):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        kept = set(fam.edges)
        assert kept <= set(raw)
        # every raw member contains a kept member; no kept member contains another
        for r in raw:
            assert any(k & r == k for k in kept)
        for a in kept:
            for b in kept:
                assert a == b or (a & b) not in (a, b)


class TestNeighborhoodHypergraph:
    def test_k2(self):
        fam = td.neighborhood_hypergraph(path_graph(2))
        assert fam.edges == (0b01, 0b10)

    def test_p5_minimized(self):
        fam = td.neighborhood_hypergraph(path_graph(5))
        assert fam.edges == (0b00010, 0b00101, 0b01000, 0b10100)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(td.DominationUndefinedError) as err:
            td.neighborhood_hypergraph(td.Graph.from_edges(3, [(0, 1)]))
        assert "total domination undefined" in str(err.value)
        with pytest.raises(td.DominationUndefinedError):
            td.neighborhood_hypergraph(td.Graph(0, ()))


class TestTransversals:
    def test_single_pair(self):
        fam = td.SpernerFamily(2, (0b11,))
        assert td.enumerate_minimal_transversals(fam).edges == (0b01, 0b10)

    def test_disjoint_pairs_cross_product(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        tr = td.enumerate_minimal_transversals(fam)
        assert tr.edges == (0b0101, 0b0110, 0b1001, 0b1010)

    def test_p5_transversals(self):
        fam = td.neighborhood_hypergraph(path_graph(5))
        tr = td.enumerate_minimal_transversals(fam)
        assert tr.edges == (0b01110, 0b11011)

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            td.enumerate_minimal_transversals(td.SpernerFamily(3, ()))

    @given(family_strategy())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        mine = list(td.enumerate_minimal_transversals(fam).edges)
        assert mine == brute_minimal_transversals(ground, raw)

    @given(family_strategy())
    @settings(max_examples=150, deadline=None)
    def test_involution(self, case):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        tr = td.enumerate_minimal_transversals(fam)
        assert td.enumerate_minimal_transversals(tr) == fam

    @given(family_strategy(), st.integers(min_value=-1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_count_limit(self, case, limit):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        brute = brute_minimal_transversals(ground, raw)
        if len(brute) > limit:
            with pytest.raises(td.CapabilityError):
                td.enumerate_minimal_transversals(fam, max_count=limit)
        else:
            assert list(td.enumerate_minimal_transversals(fam, max_count=limit).edges) == brute

    def test_search_meets_forced_edges_and_no_dead_ones(self, monkeypatch):
        # small edges make the search meet uncovered edges with one candidate
        # left (forced); the watch counts the nodes whose narrowest uncovered
        # edge has width 0 (dead: never, by the pick), 1 and 2 or more
        widths = [0, 0, 0]
        branch = td.hypergraph._mmcs_branch

        def watched(edges, containing, max_size, max_count, out, chosen, cand, crit, uncov):
            narrowest = min((e & cand).bit_count() for i, e in enumerate(edges) if uncov >> i & 1)
            widths[min(narrowest, 2)] += 1
            branch(edges, containing, max_size, max_count, out, chosen, cand, crit, uncov)

        monkeypatch.setattr(td.hypergraph, "_mmcs_branch", watched)

        def mmcs(ground, edges, max_count=None, max_size=None):
            family = td.SpernerFamily(ground, edges)
            return list(td.enumerate_minimal_transversals(family, max_count, max_size).edges)

        rng = random.Random(22)
        for _ in range(300):
            ground = rng.randint(4, 9)
            raw = [
                sum(1 << v for v in rng.sample(range(ground), rng.choice((1, 2, 2, 3, 3, 4))))
                for _ in range(rng.randint(2, 9))
            ]
            edges = td.minimize_family(ground, raw).edges
            brute = brute_minimal_transversals(ground, edges)
            assert mmcs(ground, edges) == brute
            k = rng.randint(1, ground)
            assert mmcs(ground, edges, max_size=k) == [t for t in brute if t.bit_count() <= k]
            with pytest.raises(td.CapabilityError):
                mmcs(ground, edges, max_count=len(brute) - 1)
            assert mmcs(ground, edges, max_count=len(brute)) == brute
        assert widths[0] == 0 and min(widths[1:]) > 100, widths

    def test_is_transversal_and_greedy_minimize(self):
        edges = (0b011, 0b110)
        assert td.is_transversal(0b010, edges)
        assert not td.is_transversal(0b001, edges)
        assert td.greedy_minimize_transversal(0b111, edges) in (0b010, 0b101)
        with pytest.raises(ValueError):
            td.greedy_minimize_transversal(0b001, edges)


def core_family(core: int, extra: int) -> td.SpernerFamily:
    """Edges core + {x} for each of `extra` further vertices: each core vertex
    hits every edge, so the search's root finds the core singletons as leaves
    and one more transversal, the extra vertices together."""
    core_mask = (1 << core) - 1
    edges = tuple((1 << x) | core_mask for x in range(core, core + extra))
    return td.SpernerFamily(core + extra, edges)


class TestLeavesOfTheRoot:
    @pytest.mark.parametrize("core", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [1, 2, 4])
    def test_unbounded_and_size_one(self, core, extra):
        fam = core_family(core, extra)
        singletons = [1 << v for v in range(core)]
        rest = ((1 << extra) - 1) << core
        full = list(td.enumerate_minimal_transversals(fam).edges)
        assert full == brute_minimal_transversals(fam.ground, fam.edges)
        assert full == sorted(singletons + [rest])
        bounded = td.enumerate_minimal_transversals(fam, max_size=1)
        assert list(bounded.edges) == sorted(singletons + ([rest] if extra == 1 else []))

    @pytest.mark.parametrize("core", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [1, 2, 4])
    def test_count_limit_on_leaves(self, core, extra):
        fam = core_family(core, extra)
        count = len(brute_minimal_transversals(fam.ground, fam.edges))
        with pytest.raises(td.CapabilityError):
            td.enumerate_minimal_transversals(fam, max_count=count - 1)
        assert len(td.enumerate_minimal_transversals(fam, max_count=count).edges) == count


class TestBoundedEnumeration:
    def test_rejects_k_below_1(self):
        fam = td.SpernerFamily(2, (0b11,))
        with pytest.raises(ValueError):
            td.enumerate_minimal_transversals(fam, max_size=0)

    def test_rejects_empty_family(self):
        message = "^transversals of an empty family are not defined here$"
        with pytest.raises(ValueError, match=message):
            td.enumerate_minimal_transversals(td.SpernerFamily(2, ()), max_size=1)

    def test_disjoint_pairs(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        assert td.enumerate_minimal_transversals(fam, max_size=1).edges == ()
        assert td.enumerate_minimal_transversals(fam, max_size=2).edges == (
            0b0101,
            0b0110,
            0b1001,
            0b1010,
        )

    def test_p5_at_3(self):
        fam = td.neighborhood_hypergraph(path_graph(5))
        assert td.enumerate_minimal_transversals(fam, max_size=3).edges == (0b01110,)

    @given(family_strategy(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_bounded_equals_filtered_full(self, case, k):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        bounded = td.enumerate_minimal_transversals(fam, max_size=k)
        full = [e for e in brute_minimal_transversals(ground, raw) if e.bit_count() <= k]
        assert list(bounded.edges) == full

    @given(family_strategy())
    @settings(max_examples=100, deadline=None)
    def test_bounded_at_ground_equals_full(self, case):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        assert td.enumerate_minimal_transversals(
            fam, max_size=ground
        ) == td.enumerate_minimal_transversals(fam)


class TestSizeKDecision:
    def test_uniform_pairs(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        decision = td.all_minimal_transversals_have_size_k(fam, 2)
        assert decision.accepted and decision.reason == "uniform"
        assert decision.witness == 0b0101

    def test_star_family(self):
        fam = td.SpernerFamily(4, (0b0001, 0b1110))
        assert td.all_minimal_transversals_have_size_k(fam, 2).accepted

    def test_p5_family_at_3_gives_large_witness(self):
        fam = td.neighborhood_hypergraph(path_graph(5))
        decision = td.all_minimal_transversals_have_size_k(fam, 3)
        assert not decision.accepted
        assert decision.reason == "larger-witness"
        assert decision.witness == 0b11011

    def test_smaller_witness(self):
        fam = td.SpernerFamily(3, (0b001, 0b110))
        decision = td.all_minimal_transversals_have_size_k(fam, 3)
        assert not decision.accepted
        assert decision.reason == "smaller-witness"
        assert decision.witness.bit_count() < 3

    @pytest.mark.parametrize("m", [12, 13])
    def test_dualization_limit(self, m):
        # two copies of K_m joined by a perfect matching: the matching's m
        # edges are its only minimal TDSs of size 2, and they dualize to the
        # 2**m sets with one end of each (4,096 for m = 12, 8,192 for 13)
        g = td.Graph.from_edges(
            2 * m,
            [(s + i, s + j) for s in (0, m) for i in range(m) for j in range(i + 1, m)]
            + [(i, m + i) for i in range(m)],
        )
        fam = td.neighborhood_hypergraph(g)
        bounded = td.enumerate_minimal_transversals(fam, max_size=2)
        assert bounded.edges == tuple((1 << i) | (1 << m + i) for i in range(m))
        if 2**m <= td.hypergraph.SIZE_K_LIMIT:
            decision = td.all_minimal_transversals_have_size_k(fam, 2)
            assert decision.reason == "larger-witness" and decision.witness.bit_count() == m
        else:
            limit = td.hypergraph.SIZE_K_LIMIT
            message = (
                f"^the {m} minimal transversals of size at most 2 dualize to "
                f"more than SIZE_K_LIMIT = {limit} sets"
            )
            with pytest.raises(td.CapabilityError, match=message):
                td.all_minimal_transversals_have_size_k(fam, 2)

    @given(family_strategy(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_enumeration(self, case, k):
        ground, raw = case
        fam = td.minimize_family(ground, raw)
        full = brute_minimal_transversals(ground, raw)
        expected = all(e.bit_count() == k for e in full)
        decision = td.all_minimal_transversals_have_size_k(fam, k)
        assert decision.accepted == expected
        # the witness is always a genuine minimal transversal, of size k
        # exactly when uniform and a deviating size otherwise
        assert decision.witness in full
        if decision.accepted:
            assert decision.witness.bit_count() == k
        else:
            assert decision.witness.bit_count() != k
