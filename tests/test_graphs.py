import functools
import itertools
import json
import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zecap import automata
from zecap.automata import channel_series_prefix
from zecap.graphs import (BudgetExceededError, ChannelGraph, _alpha,
                          _alpha_by_transitivity, _clique_cover, _search,
                          complete, connected_components, coordinate_swaps,
                          cover_weight, cycle, cycle_power_symmetries,
                          cycle_product_independence,
                          disjoint_union, distinguishable, graph_by_name,
                          independence_number, induced_subgraph, is_automorphism,
                          lift_automorphisms, one_vertex, path, section_bound,
                          strong_power, strong_product, transitive_automorphisms,
                          zero_graph)


def to_networkx(g: ChannelGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges())
    return out


@functools.cache
def plain_independence(g: ChannelGraph):
    """independence_number(g) with no budget, symmetry or seed, searched once
    per graph: four tests compare with the plain search of C5 x C5 x C5
    (147,687 nodes, about a second)."""
    return independence_number(g)


def oracle_alpha(g: ChannelGraph) -> int:
    # independent sets of g are cliques of the complement
    comp = nx.complement(to_networkx(g))
    comp.add_nodes_from(range(g.vertex_count))
    return max((len(c) for c in nx.find_cliques(comp)), default=0)


def random_graph(rng: random.Random, n: int, p: float) -> ChannelGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return ChannelGraph.from_edges([str(i) for i in range(n)], edges)


def circulant(n: int, steps) -> ChannelGraph:
    return ChannelGraph.from_edges(
        [str(i) for i in range(n)],
        {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps
         if (i + s) % n != i})


def relabelled(g: ChannelGraph, perm) -> ChannelGraph:
    """g with vertex v renamed perm[v]."""
    labels = [""] * g.vertex_count
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    return ChannelGraph.from_edges(labels, [(perm[u], perm[v]) for u, v in g.edges()])


def is_independent(g: ChannelGraph, vertices) -> bool:
    return all(not g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


def per_vertex_clique_cover(masks, cand):
    """Reference: each vertex, in increasing order, joins the first class
    whose members are all its neighbours; returns the class masks."""
    classes = []
    m = cand
    while m:
        lsb = m & -m
        v = lsb.bit_length() - 1
        m ^= lsb
        for idx, cmask in enumerate(classes):
            if cmask & ~masks[v] == 0:
                classes[idx] |= lsb
                break
        else:
            classes.append(lsb)
    return classes


def test_cycle_basics():
    c7 = cycle(7)
    assert c7.vertex_count == 7
    assert c7.edge_count() == 7
    assert c7.has_edge(0, 6) and c7.has_edge(0, 1)
    assert not c7.has_edge(0, 2)
    c3 = cycle(3)
    assert c3.edges() == complete(3).edges()
    with pytest.raises(ValueError):
        cycle(2)


def test_path_and_complete():
    p4 = path(4)
    assert p4.edge_count() == 3
    k5 = complete(5)
    assert k5.edge_count() == 10
    assert one_vertex().vertex_count == 1
    assert zero_graph().vertex_count == 0


def test_labels_must_be_unique():
    with pytest.raises(ValueError):
        ChannelGraph.from_edges(["a", "a"], [])


def test_no_self_loops():
    with pytest.raises(ValueError):
        ChannelGraph.from_edges(["a", "b"], [(0, 0)])


def test_json_round_trip():
    g = cycle(5)
    again = ChannelGraph.from_json(g.to_json())
    assert again == g
    data = json.loads(g.to_json())
    assert set(data) == {"labels", "edges"}


def test_graph_by_name():
    assert graph_by_name("C5").vertex_count == 5
    assert graph_by_name("K3").edge_count() == 3
    assert graph_by_name("P2").edge_count() == 1
    g = graph_by_name("C5+1")
    assert g.vertex_count == 6
    assert g.degree(0) == 0
    assert g.has_edge(1, 5)
    with pytest.raises(ValueError):
        graph_by_name("Q8")


def test_disjoint_union_counts():
    g = disjoint_union(cycle(5), one_vertex())
    assert g.vertex_count == 6
    assert g.edge_count() == 5
    assert g.degree(5) == 0


def test_disjoint_union_label_clash():
    g = disjoint_union(one_vertex("0"), one_vertex("0"))
    assert g.labels == ("0", "0'")


def test_strong_product_pentagon_degree():
    g = strong_product(cycle(5), cycle(5))
    assert g.vertex_count == 25
    # every vertex of C5 x C5 has 3*3 - 1 = 8 neighbors
    assert all(g.degree(v) == 8 for v in range(25))


def test_strong_product_matches_networkx():
    rng = random.Random(7)
    for _ in range(5):
        a = random_graph(rng, rng.randint(2, 5), 0.5)
        b = random_graph(rng, rng.randint(2, 5), 0.5)
        mine = to_networkx(strong_product(a, b))
        theirs = nx.strong_product(to_networkx(a), to_networkx(b))
        relabel = {(u, v): u * b.vertex_count + v for u, v in theirs.nodes}
        assert nx.utils.graphs_equal(mine, nx.relabel_nodes(theirs, relabel))


def test_strong_product_commutes_up_to_relabel():
    rng = random.Random(11)
    a = random_graph(rng, 4, 0.5)
    b = random_graph(rng, 3, 0.5)
    ab = strong_product(a, b)
    ba = strong_product(b, a)
    swap = {v * b.vertex_count + w: w * a.vertex_count + v
            for v in range(a.vertex_count) for w in range(b.vertex_count)}
    assert nx.utils.graphs_equal(
        nx.relabel_nodes(to_networkx(ab), swap), to_networkx(ba))


def test_strong_power_budget():
    with pytest.raises(BudgetExceededError):
        strong_power(cycle(5), 10, max_vertices=10 ** 6)


def test_distinguishable_examples():
    g = graph_by_name("C5+1")
    # 0 is isolated: distinguishable from everything else
    assert distinguishable(g, (0,), (1, 1))
    # 1 and 2 are adjacent on the pentagon
    assert not distinguishable(g, (1, 1), (1, 2))
    assert distinguishable(g, (1, 1), (1, 3))
    with pytest.raises(ValueError):
        distinguishable(g, (1, 1), (1,))
    with pytest.raises(ValueError):
        distinguishable(g, (), (1,))


def test_distinguishable_ignores_suffix():
    g = graph_by_name("C5+1")
    assert not distinguishable(g, (1, 1), (1, 2, 3, 4))


def test_alpha_small_known():
    assert independence_number(cycle(5)).alpha == 2
    assert independence_number(cycle(7)).alpha == 3
    assert independence_number(complete(6)).alpha == 1
    assert independence_number(path(4)).alpha == 2
    assert independence_number(zero_graph()).alpha == 0


def test_alpha_pentagon_plus_isolated():
    res = independence_number(graph_by_name("C5+1"))
    assert res.alpha == 3
    assert res.witness == (0, 1, 3)
    assert res.exact


def test_alpha_pentagon_squared():
    res = independence_number(strong_power(cycle(5), 2))
    assert res.alpha == 5
    assert res.exact
    w = res.witness
    g = strong_power(cycle(5), 2)
    assert all(not g.has_edge(u, v) for u, v in itertools.combinations(w, 2))


def test_alpha_against_networkx_oracle():
    rng = random.Random(42)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
        assert independence_number(g).alpha == oracle_alpha(g)


def test_alpha_budget_gives_lower_bound():
    g = strong_power(cycle(5), 3)
    res = independence_number(g, node_budget=10)
    assert not res.exact
    assert res.alpha <= 10
    full = plain_independence(g)
    assert full.exact
    assert full.alpha == 10
    assert res.alpha <= full.alpha


def test_alpha_seed_witness_checked():
    g = cycle(5)
    with pytest.raises(ValueError):
        independence_number(g, seed_witness=[0, 1])


def test_induced_subgraph():
    g = cycle(5)
    sub, old = induced_subgraph(g, [0, 1, 3])
    assert old == [0, 1, 3]
    assert sub.edge_count() == 1
    assert sub.has_edge(0, 1)


def test_cycle_power_symmetries_are_automorphisms():
    for l in (1, 2, 3):
        g = strong_power(cycle(5), l)
        for p in cycle_power_symmetries(5, l):
            assert is_automorphism(g, p)
    # a non-automorphism is rejected
    g = path(3)
    assert not is_automorphism(g, [1, 0, 2])
    assert not is_automorphism(g, [0, 0, 1])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), st.integers(0, 2 ** 32),
       st.booleans())
def test_is_automorphism_matches_the_mapped_edge_set(n, p, seed, repeat):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    perm = rng.sample(range(n), n)
    if repeat and n > 1:  # not a permutation: one entry taken twice
        i, j = rng.sample(range(n), 2)
        perm[i] = perm[j]
    edges = {frozenset(e) for e in g.edges()}
    mapped = {frozenset((perm[u], perm[v])) for u, v in g.edges()}
    assert is_automorphism(g, perm) == (len(set(perm)) == n and mapped == edges)


def test_alpha_with_symmetry_matches_plain():
    for l in (1, 2, 3):
        g = strong_power(cycle(5), l)
        plain = plain_independence(g)
        sym = independence_number(
            g, transitive_symmetries=cycle_power_symmetries(5, l))
        assert sym.alpha == plain.alpha
        assert sym.exact
        assert 0 in sym.witness
        masks = g.neighbor_masks
        assert all(not masks[u] >> v & 1
                   for u in sym.witness for v in sym.witness)


def test_alpha_symmetry_rejects_bad_permutations():
    g = cycle(5)
    with pytest.raises(ValueError):
        independence_number(g, transitive_symmetries=[[1, 0, 2, 3, 4]])
    # valid automorphism but not transitive: identity only
    with pytest.raises(ValueError):
        independence_number(g, transitive_symmetries=[[0, 1, 2, 3, 4]])


def test_cycle_product_independence_matches_plain_search():
    # the edge-sum bound never disagrees with exhaustive search
    c5 = cycle(5)
    for h in (c5, strong_power(c5, 2), path(4), complete(3)):
        shortcut = cycle_product_independence(5, h)
        plain = plain_independence(strong_product(c5, h))
        assert shortcut.alpha == plain.alpha
        assert shortcut.exact
    # bound tight for the pentagon squared: floor(5 * 2 / 2) = 5
    assert cycle_product_independence(5, c5).alpha == 5


def test_cycle_product_independence_witness_is_independent():
    c5 = cycle(5)
    h = strong_power(c5, 2)
    w2 = independence_number(h).witness
    seed = [a * 25 + b for a in w2 for b in w2]
    res = cycle_product_independence(5, strong_power(c5, 3), seed_witness=seed)
    assert res.alpha == 25 and res.exact
    g4 = strong_power(c5, 4)
    assert all(not g4.has_edge(u, v)
               for u, v in itertools.combinations(res.witness, 2))


def test_cycle_product_independence_rejects_bad_seed():
    c5 = cycle(5)
    with pytest.raises(ValueError):
        cycle_product_independence(5, c5, seed_witness=[0, 1])
    with pytest.raises(ValueError):
        cycle_product_independence(2, c5)


def test_alpha_superadditive_under_product():
    rng = random.Random(5)
    for _ in range(10):
        a = random_graph(rng, rng.randint(2, 5), 0.5)
        b = random_graph(rng, rng.randint(2, 5), 0.5)
        aa = independence_number(a).alpha
        ab = independence_number(b).alpha
        prod = independence_number(strong_product(a, b)).alpha
        assert prod >= aa * ab


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.1, 0.3, 0.5, 0.8, 0.95]),
       st.integers(0, 2 ** 32), st.integers(0, 2 ** 40))
def test_clique_cover_matches_per_vertex_scan(n, p, seed, cand_bits):
    g = random_graph(random.Random(seed), n, p)
    cand = cand_bits & ((1 << n) - 1)
    for c in (cand, (1 << n) - 1):
        assert _clique_cover(g.neighbor_masks, c) == \
            per_vertex_clique_cover(g.neighbor_masks, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.floats(0, 1), st.integers(0, 2 ** 32))
def test_strong_product_matches_networkx_property(na, nb, p, seed):
    rng = random.Random(seed)
    a = random_graph(rng, na, p)
    b = random_graph(rng, nb, p)
    theirs = nx.strong_product(to_networkx(a), to_networkx(b))
    relabel = {(u, v): u * b.vertex_count + v for u, v in theirs.nodes}
    assert nx.utils.graphs_equal(to_networkx(strong_product(a, b)),
                                 nx.relabel_nodes(theirs, relabel))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.floats(0, 1), st.integers(0, 2 ** 32),
       st.integers(0, 2 ** 30))
def test_induced_subgraph_matches_networkx(n, p, seed, keep_bits):
    g = random_graph(random.Random(seed), n, p)
    keep = [v for v in range(n) if keep_bits >> v & 1]
    sub, old = induced_subgraph(g, keep)
    assert old == keep
    assert sub.labels == tuple(g.labels[v] for v in keep)
    theirs = nx.relabel_nodes(to_networkx(g).subgraph(keep),
                              {v: i for i, v in enumerate(keep)})
    assert nx.utils.graphs_equal(to_networkx(sub), theirs)


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(cycle(5), [0, 5])
    with pytest.raises(ValueError):
        induced_subgraph(cycle(5), [-1, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.sets(st.integers(1, 4), min_size=1),
       st.integers(1, 3))
def test_channel_series_prefix_matches_plain_on_circulants(n, steps, l):
    g = circulant(n, steps)
    perms = transitive_automorphisms(g)
    assert perms is not None  # circulants are vertex-transitive
    l = min(l, 2 if n > 4 else 3)
    prefix = channel_series_prefix(g, l)
    plain = [independence_number(strong_power(g, k)) for k in range(1, l + 1)]
    assert prefix.terms == (1,) + tuple(r.alpha for r in plain)
    assert all(prefix.exact)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.floats(0, 1), st.integers(0, 2 ** 32),
       st.integers(1, 2))
def test_channel_series_prefix_matches_plain_with_isolated_vertex(n, p, seed, l):
    g = disjoint_union(random_graph(random.Random(seed), n, p), one_vertex("z"))
    if g.edge_count():
        assert transitive_automorphisms(g) is None
    prefix = channel_series_prefix(g, l)
    plain = [independence_number(strong_power(g, k)) for k in range(1, l + 1)]
    assert prefix.terms == (1,) + tuple(r.alpha for r in plain)


@st.composite
def shuffled_unions(draw):
    """A disjoint union of 1-3 small circulants, paths and isolated vertices,
    vertices shuffled so that components are seldom contiguous, and a power
    small enough for the plain search."""
    l = draw(st.integers(1, 3))
    part = st.one_of(
        st.builds(circulant, st.integers(3, 6 if l < 3 else 4),
                  st.sets(st.integers(1, 3), min_size=1)),
        st.builds(path, st.integers(1, 6 if l < 3 else 3)),
        st.just(one_vertex()))
    parts = draw(st.lists(part, min_size=1, max_size=3))
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    n = g.vertex_count
    if n > (7 if l < 3 else 6):
        l = 1
    perm = draw(st.permutations(range(n)))
    labels = [""] * n
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    return ChannelGraph.from_edges(labels, [(perm[u], perm[v]) for u, v in g.edges()]), l


@settings(max_examples=100, deadline=None)
@given(shuffled_unions())
@example((disjoint_union(cycle(3), path(3)), 2))  # a transitive and a plain factor
def test_channel_series_prefix_matches_plain_on_shuffled_unions(case):
    g, l = case
    prefix = channel_series_prefix(g, l)
    plain = [independence_number(strong_power(g, k)) for k in range(1, l + 1)]
    assert prefix.terms == (1,) + tuple(r.alpha for r in plain)
    assert prefix.exact == (True,) + tuple(r.exact for r in plain)


def test_products_of_one_power_share_the_node_budget():
    # each of the three products C7 x C7 of level 2 takes 9 nodes to reach
    # its section bound floor(7/2 * 3) = 10 from the seed 3 * 3 = 9
    g = disjoint_union(cycle(7), cycle(7))
    assert channel_series_prefix(g, 2, node_budget=27) == \
        channel_series_prefix(g, 2)
    assert channel_series_prefix(g, 2).terms == (1, 6, 40)
    prefix = channel_series_prefix(g, 2, node_budget=26)
    assert prefix.exact == (True, True, False) and prefix.terms[2] <= 40
    assert channel_series_prefix(g, 1, node_budget=1).exact == (True, False)


def test_cover_weights_and_section_bounds():
    assert cover_weight(cycle(5), True)[0] == Fraction(5, 2)
    assert cover_weight(cycle(7), True)[0] == Fraction(7, 2)
    assert cover_weight(complete(4), True)[0] == 1
    assert cover_weight(path(3), False) == (2, 0)
    assert cover_weight(graph_by_name("C5+1"), False) == (4, 0)
    assert section_bound(Fraction(7, 2), 3) == 10  # C7 x C7
    assert section_bound(Fraction(5, 2), 5) == 12  # C5 x C5^2
    assert section_bound(Fraction(5, 2), 10) == 25  # C5 x C5^3


@st.composite
def graphs_plus_isolated(draw):
    """A random graph on 1-6 vertices and an isolated vertex, and a power."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = random_graph(rng, draw(st.integers(1, 6)), draw(st.floats(0, 1)))
    return disjoint_union(g, one_vertex("z")), draw(st.integers(1, 2))


@settings(max_examples=80, deadline=None)
@given(st.one_of(shuffled_unions(), graphs_plus_isolated()))
def test_seed_and_section_bound_enclose_alpha_of_every_product(case):
    g, l = case
    comps = [induced_subgraph(g, c)[0] for c in connected_components(g) if len(c) > 1]
    seen = []
    bounds = automata._bounds

    def record(key, *rest):
        seen.append((key, bounds(key, *rest)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_bounds", record)
        channel_series_prefix(g, l)
    assert [key for key, _ in seen] == [
        key for j in range(1, l + 1)
        for key in itertools.combinations_with_replacement(range(len(comps)), j)]
    for key, (seed, cap) in seen:
        product = comps[key[0]]
        for i in key[1:]:
            product = strong_product(product, comps[i])
        assert seed <= independence_number(product).alpha <= cap


def test_coordinate_swaps_are_automorphisms_fixing_vertex_0():
    c5, c7 = cycle(5), cycle(7)
    for factors in ([c5, c5, c7], [c7, c5, c5], [c5, c7, c7], [c5, c5, c5],
                    [path(3), path(3)], [c5, c7]):
        product = factors[0]
        for f in factors[1:]:
            product = strong_product(product, f)
        swaps = coordinate_swaps(factors)
        assert len(swaps) == sum(a == b for a, b in zip(factors, factors[1:]))
        assert all(is_automorphism(product, p) and p[0] == 0 for p in swaps)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8), st.sets(st.integers(1, 3), min_size=1), st.integers(2, 3))
def test_orbit_branching_keeps_alpha(n, steps, l):
    g = circulant(n, steps)
    l = min(l, 2 if n > 5 else 3)
    power = strong_power(g, l)
    lifts = lift_automorphisms(transitive_automorphisms(g), l)
    plain = _alpha_by_transitivity(power, lifts, 10 ** 8)
    orbits = _alpha_by_transitivity(power, lifts, 10 ** 8,
                                    swaps=coordinate_swaps([g] * l))
    assert orbits.alpha == plain.alpha == len(orbits.witness)
    assert orbits.exact and plain.exact
    assert all(not power.has_edge(u, v)
               for u, v in itertools.combinations(orbits.witness, 2))


def test_orbit_branching_on_the_pentagon_cube():
    # from the seed 2 * 5 = 10 to the section bound floor(5/2 * 5) = 12: the
    # coordinate swaps take the search from 6,410 nodes to 2,054
    c5 = cycle(5)
    power = strong_power(c5, 3)
    args = (power, cycle_power_symmetries(5, 3), 10 ** 8, 10, 12)
    res = _alpha_by_transitivity(*args, swaps=coordinate_swaps([c5] * 3))
    assert (res.alpha, res.exact, res.nodes) == (10, True, 2054)
    res = _alpha_by_transitivity(*args)
    assert (res.alpha, res.exact, res.nodes) == (10, True, 6410)


def test_search_stops_at_the_upper_bound():
    g = strong_power(cycle(5), 2)
    plain = independence_number(g)
    capped = independence_number(g, upper_bound=5)
    assert (plain.alpha, plain.exact, plain.nodes) == (5, True, 21)
    assert (capped.alpha, capped.exact, capped.nodes) == (5, True, 11)
    assert capped.witness == plain.witness  # both lexicographically least
    res = independence_number(strong_power(cycle(5), 3), upper_bound=10,
                              transitive_symmetries=cycle_power_symmetries(5, 3))
    assert (res.alpha, res.exact, res.nodes) == (10, True, 9)


def test_transitive_automorphisms():
    assert transitive_automorphisms(graph_by_name("C5+1")) is None
    assert transitive_automorphisms(path(3)) is None
    for g in (cycle(7), complete(4), circulant(8, [1, 4]),
              strong_power(cycle(4), 2), disjoint_union(cycle(3), cycle(3))):
        perms = transitive_automorphisms(g)
        assert perms and all(is_automorphism(g, p) for p in perms)
        # transitive: the orbit of 0 is everything
        orbit, frontier = {0}, [0]
        while frontier:
            frontier = [p[v] for v in frontier for p in perms if p[v] not in orbit]
            orbit.update(frontier)
        assert orbit == set(range(g.vertex_count))


def test_automorphism_search_out_of_steps_falls_back(monkeypatch):
    import zecap.graphs
    monkeypatch.setattr(zecap.graphs, "_AUTOMORPHISM_STEPS", 3)
    assert transitive_automorphisms(cycle(7)) is None
    assert channel_series_prefix(cycle(7), 2).terms == (1, 3, 10)


def test_lifted_automorphisms_are_automorphisms_of_the_power():
    for g, l in ((cycle(5), 3), (complete(3), 3), (circulant(6, [1, 3]), 2),
                 (disjoint_union(cycle(3), cycle(3)), 2)):
        power = strong_power(g, l)
        lifts = lift_automorphisms(transitive_automorphisms(g), l)
        assert lifts and all(is_automorphism(power, p) for p in lifts)
    assert lift_automorphisms([tuple((v + 1) % 5 for v in range(5))], 2) == \
        cycle_power_symmetries(5, 2)


def test_lifts_to_a_product_of_different_cycles_are_automorphisms():
    factors = [cycle(5), cycle(7), complete(3)]
    product = strong_product(strong_product(factors[0], factors[1]), factors[2])
    lifts = lift_automorphisms([transitive_automorphisms(f) for f in factors])
    assert lifts and all(is_automorphism(product, p) for p in lifts)
    orbit, frontier = {0}, [0]
    while frontier:
        frontier = [p[v] for v in frontier for p in lifts if p[v] not in orbit]
        orbit.update(frontier)
    assert orbit == set(range(product.vertex_count))
    with pytest.raises(ValueError):
        lift_automorphisms([transitive_automorphisms(cycle(5)), []])


def test_alpha_c7_plus_one_squared_is_pinned():
    # the search without symmetry: node count fixed by the degeneracy order
    # and the bound, witness by the lexicographic refinement
    res = independence_number(strong_power(graph_by_name("C7+1"), 2))
    assert (res.alpha, res.exact, res.nodes) == (17, True, 43876)
    assert res.witness == (0, 1, 3, 5, 8, 9, 11, 21, 24, 25, 27, 37, 40, 42,
                           47, 52, 62)


def test_search_work_does_not_hinge_on_the_numbering():
    # in the degeneracy order every numbering of P4 takes the same number of
    # nodes on its cube, and every numbering of C5 x C5 x C5 about the same
    counts = {independence_number(strong_power(relabelled(path(4), perm), 3)).nodes
              for perm in itertools.permutations(range(4))}
    assert counts == {1}
    cube = strong_power(cycle(5), 3)
    counts = [plain_independence(cube).nodes]
    for seed in (1, 2, 3):
        perm = random.Random(seed).sample(range(125), 125)
        res = independence_number(relabelled(cube, perm))
        assert (res.alpha, res.exact) == (10, True)
        counts.append(res.nodes)
    assert max(counts) <= 2 * min(counts)


def test_alpha_of_a_disconnected_square_within_budget():
    # C5 + 4 K1 squared: 81 vertices, alpha(C5 x C5) + 8 alpha(C5) + 16 = 37;
    # searched whole in index order it was not exact after 2 * 10**6 nodes
    g = graph_by_name("C5")
    for label in "abcd":
        g = disjoint_union(g, one_vertex(label))
    res = independence_number(strong_power(g, 2), node_budget=10 ** 5)
    assert (res.alpha, res.exact) == (37, True)


@st.composite
def numbered_graphs(draw):
    """A random graph or random circulant on 1-14 vertices, a relabelling of
    its vertices, and whether it is a circulant."""
    n = draw(st.integers(1, 14))
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        steps = draw(st.sets(st.integers(1, max(1, n // 2)), min_size=1))
        return circulant(n, steps), perm, True
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_graph(rng, n, draw(st.floats(0, 1))), perm, False


@settings(max_examples=60, deadline=None)
@given(numbered_graphs())
@example((cycle(5), [2, 0, 3, 4, 1], True))
@example((circulant(5, {2}), [0, 1, 2, 3, 4], True))
def test_search_witness_is_in_the_callers_numbering(case):
    g, perm, is_circulant = case
    n = g.vertex_count
    moved = [0] * n  # the rotation v -> v + 1 of g, carried to the relabelling
    for v in range(n):
        moved[perm[v]] = perm[(v + 1) % n]
    for g, rotation in ((g, [(v + 1) % n for v in range(n)]),
                        (relabelled(g, perm), moved)):
        alpha = oracle_alpha(g)
        res = _alpha(g, None, 10 ** 8)
        assert res.exact and res.alpha == len(res.witness) == alpha
        assert is_independent(g, res.witness)
        # vertex 0 fixed: the prefix stays in the caller's numbering
        root = (1 << n) - 1 & ~g.neighbor_masks[0] & ~1
        res = _search(g.neighbor_masks, root, [0], 0, math.inf)
        rest = oracle_alpha(induced_subgraph(g, [v for v in range(n) if root >> v & 1])[0])
        assert res.exact and res.alpha == len(res.witness) == 1 + rest
        assert 0 in res.witness and is_independent(g, res.witness)
        if not is_circulant:
            continue
        res = _alpha_by_transitivity(g, [rotation], 10 ** 8)
        assert res.exact and res.alpha == len(res.witness) == alpha
        assert 0 in res.witness
        assert is_independent(g, res.witness)
        if n <= 7:
            # the orbits of the coordinate swap are renumbered with the square
            square = strong_power(g, 2)
            res = _alpha_by_transitivity(square, lift_automorphisms([rotation], 2),
                                         10 ** 8, swaps=coordinate_swaps([g, g]))
            assert res.exact and res.alpha == len(res.witness) == oracle_alpha(square)
            assert is_independent(square, res.witness)


def test_alpha_seed_witness_and_symmetries_are_exclusive():
    with pytest.raises(ValueError):
        independence_number(cycle(5), seed_witness=[0, 2],
                            transitive_symmetries=cycle_power_symmetries(5, 1))


def test_weight_searches_count_against_the_first_power():
    # the clique search on the complement of C5 takes 2 nodes, alpha(C5) 1
    assert channel_series_prefix(cycle(5), 1, node_budget=3).exact == (True, True)
    assert channel_series_prefix(cycle(5), 1, node_budget=2).exact == (True, False)


def test_seed_witness_vertices_must_be_in_range():
    c5 = cycle(5)
    for call, top in ((lambda s: independence_number(c5, seed_witness=s), 5),
                      (lambda s: cycle_product_independence(5, c5, seed_witness=s), 25)):
        for v in (top, -1):
            with pytest.raises(ValueError, match=f"seed vertex {v} is out of range"):
                call([2, v])


@st.composite
def cycle_cofactors(draw):
    """A cycle length n and a cofactor h with |V(h)| <= 60 / n: a random
    circulant, which is vertex-transitive, or a random graph."""
    n = draw(st.integers(3, 7))
    m = draw(st.integers(1, 60 // n))
    if draw(st.booleans()):
        h = circulant(m, draw(st.sets(st.integers(1, max(1, m // 2)), min_size=1)))
    else:
        h = random_graph(random.Random(draw(st.integers(0, 2 ** 32))), m,
                         draw(st.floats(0, 1)))
    return n, h


@settings(max_examples=60, deadline=None)
@given(cycle_cofactors())
@example((3, cycle(5)))
@example((5, strong_power(cycle(3), 2)))
def test_cycle_product_independence_matches_plain_search_property(case):
    n, h = case
    product = strong_product(cycle(n), h)
    res = cycle_product_independence(n, h)
    plain = independence_number(product)
    assert res.exact and plain.exact
    assert res.alpha == plain.alpha == len(res.witness)
    assert all(not product.has_edge(u, v)
               for u, v in itertools.combinations(res.witness, 2))


def test_cycle_product_independence_stops_at_the_floored_bound():
    # floor(7/2 * 3) = 10 = alpha(C7 x C7): alpha(C7) takes 1 node, the
    # weight's clique search 2 and the product search, vertex 0 fixed, 9
    res = cycle_product_independence(7, cycle(7))
    assert (res.alpha, res.exact, res.nodes) == (10, True, 12)
    assert cycle_product_independence(7, cycle(7), node_budget=12).exact
    assert not cycle_product_independence(7, cycle(7), node_budget=11).exact


def test_lexmin_refinement_stops_each_search_at_its_target(monkeypatch):
    # each existence search of the refinement ends at the first set of the
    # size it asks for; together they take 120 nodes on C7 x C7
    import zecap.graphs
    nodes = []
    search = zecap.graphs._search

    def counting(*args):
        res = search(*args)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(zecap.graphs, "_search", counting)
    res = independence_number(strong_power(cycle(7), 2))
    assert (res.alpha, res.exact, res.nodes) == (10, True, 960)
    assert nodes[0] == 960 and sum(nodes[1:]) == 120


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.floats(0, 1), st.integers(0, 2 ** 32))
def test_edges_are_the_adjacent_pairs_in_order(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert g.edges() == [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]


def breadth_first_components(g: ChannelGraph) -> list[list[int]]:
    """Reference: breadth-first from each unplaced vertex, in increasing
    order, taking the neighbours of each vertex in increasing order."""
    placed = set()
    comps = []
    for root in range(g.vertex_count):
        if root in placed:
            continue
        placed.add(root)
        comp = [root]
        i = 0
        while i < len(comp):
            for v in range(g.vertex_count):
                if g.has_edge(comp[i], v) and v not in placed:
                    placed.add(v)
                    comp.append(v)
            i += 1
        comps.append(comp)
    return comps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.floats(0, 0.4), st.integers(0, 2 ** 32))
def test_connected_components_match_breadth_first_search_and_networkx(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    comps = connected_components(g)
    assert comps == breadth_first_components(g)
    assert sorted(map(set, comps), key=min) == sorted(nx.connected_components(to_networkx(g)),
                                                     key=min)
