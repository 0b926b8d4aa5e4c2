"""Graph representation, graph6 I/O, canonical forms, and enumerations."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronbalance import graphs
from perronbalance.graphs import (
    GRAPH_ENUM_CAP,
    MAX_VERTICES,
    TREE_ENUM_CAP,
    Graph,
    Graph6Error,
    RootedKernel,
    _AUTOMORPHISMS,
    _ORDERS,
    _bits,
    _canon,
    _centre_rooted_sequences,
    _graph_canon,
    _tree_canon,
    _tree_centers,
    active_vertices,
    attach_fork,
    attach_path,
    bifork_graph,
    canonical_form,
    canonical_relabel,
    complete_graph,
    cycle_graph,
    diamond_graph,
    e_graph,
    enumerate_connected_graphs,
    enumerate_graph_kernels,
    enumerate_tree_kernels,
    enumerate_trees,
    fork_graph,
    has_open_dominating_vertex,
    has_strictly_dominating_vertex,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from perronbalance.spectral import BETA_TR, min_gamma_table

from oracles import induced, vertex_orbits, write_edge_list

RNG = random.Random(2024)


def random_relabel(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


# -- construction checks -----------------------------------------------------

@pytest.mark.parametrize("n, adj, message", [
    (2, (0b01, 0b01), "self-loop"),
    (2, (0b110, 0b001), "out of range"),
    (3, (0b010, 0b000, 0b000), "asymmetric"),
    (3, (0b110, 0b101, 0b001), "asymmetric"),
    (3, (0b10, 0b01), "length mismatch"),
    (0, (), "vertex count"),
    (MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1), "vertex count"),
])
def test_graph_rejects_invalid_adjacency(n, adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, adj)


def test_graph_accepts_boundary_sizes():
    assert Graph(1, (0,)).n == 1
    full = (1 << MAX_VERTICES) - 1
    k64 = Graph(MAX_VERTICES, tuple(full ^ (1 << v) for v in range(MAX_VERTICES)))
    assert k64.edge_count() == MAX_VERTICES * (MAX_VERTICES - 1) // 2


def _symmetric_by_pairs(adj) -> bool:
    """Reference check: every vertex pair agrees in both rows."""
    return all((adj[u] >> v & 1) == (adj[v] >> u & 1)
               for v in range(len(adj)) for u in range(v))


def test_graph_symmetry_check_matches_pair_reference():
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        adj = [0] * n
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            adj[i] ^= 1 << j            # one direction only
        adj = tuple(adj)
        try:
            Graph(n, adj)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _symmetric_by_pairs(adj)


# -- graph6 ------------------------------------------------------------------

def test_parse_graph6_triangle():
    g = parse_graph6("Bw")
    assert g.n == 3 and sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.n == 4 and g.edge_count() == 6


def test_parse_graph6_empty_graph():
    g = parse_graph6("B?")
    assert g.n == 3 and g.edge_count() == 0


def test_graph6_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_long_form_64_vertices():
    g = path_graph(64)
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("C")          # truncated bit body
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")        # trailing garbage
    with pytest.raises(Graph6Error):
        parse_graph6("\x1f\x1f")   # characters out of range
    with pytest.raises(Graph6Error):
        parse_graph6("~~~~" + "~" * 700)  # too many vertices


@st.composite
def _graphs(draw, max_n=MAX_VERTICES, min_n=1):
    """Any simple graph on min_n..max_n vertices, connected or not."""
    n = draw(st.integers(min_n, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def _trees(draw, max_n=MAX_VERTICES):
    """A tree on 1..max_n vertices: vertex v > 0 hangs from some u < v."""
    n = draw(st.integers(1, max_n))
    return Graph.from_edges(n, [(v, draw(st.integers(0, v - 1))) for v in range(1, n)])


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_graph6_and_edge_list_roundtrip_fuzz(g):
    assert parse_graph6(write_graph6(g)) == g
    assert parse_edge_list(write_edge_list(g)) == g


def _assert_relabel_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    root = data.draw(st.one_of(st.none(), st.integers(0, g.n - 1)))
    moved = g.relabel(perm)
    assert canonical_form(moved) == canonical_form(g)
    if root is not None:
        assert canonical_form(moved, perm[root]) == canonical_form(g, root)


# for graphs that are not trees the search tries the orderings whose columns
# tie the best so far up to the automorphisms it has found, which on a
# symmetric graph of many vertices can still be very many
@settings(max_examples=80, deadline=None)
@given(_graphs(max_n=8), st.data())
def test_canonical_form_relabel_invariance_fuzz(g, data):
    _assert_relabel_invariant(g, data)


@settings(max_examples=80, deadline=None)
@given(_trees(), st.data())
def test_canonical_form_tree_relabel_invariance_fuzz(g, data):
    assert g.is_tree()
    _assert_relabel_invariant(g, data)


def test_edge_list_roundtrip():
    g = attach_path(complete_graph(4), 0, 2)
    assert parse_edge_list(write_edge_list(g)) == g
    assert parse_edge_list("3;").n == 3


# -- constructions --------------------------------------------------------------

def test_attach_path_counts():
    g = attach_path(complete_graph(4), 0, 2)
    assert g.n == 6
    assert g.degree(g.n - 1) == 1
    assert attach_path(complete_graph(4), 1, 0) == complete_graph(4)


def test_attach_path_star_tree():
    g = attach_path(star_graph(5), 0, 5)
    assert g.n == 10 and g.is_tree()
    dist = g.distances_from(0)
    assert [dist.count(d) for d in range(max(dist) + 1)] == [1, 5, 1, 1, 1, 1]


def test_attach_path_induced_subgraph_unchanged():
    h = diamond_graph()
    g = attach_path(h, 2, 3)
    assert induced(g, range(h.n)) == h


def test_attach_path_associativity():
    rng = random.Random(9)
    for _ in range(25):
        h = complete_graph(rng.randint(2, 4))
        v = rng.randrange(h.n)
        a, b = rng.randint(0, 3), rng.randint(1, 3)
        g1 = attach_path(attach_path(h, v, a), h.n + a - 1 if a else v, b)
        g2 = attach_path(h, v, a + b)
        assert canonical_form(g1) == canonical_form(g2)


def test_attach_fork():
    g = attach_fork(complete_graph(4), 0, 5, 2)
    assert g.n == 11
    f52 = attach_fork(Graph(1, (0,)), 0, 5, 2)
    assert f52.n == 8
    # last path vertex has its two leaves
    g2 = attach_fork(complete_graph(4), 0, 3, 2)
    end = 4 + 3 - 1
    assert g2.degree(end) == 2 + 1
    with pytest.raises(ValueError):
        attach_fork(complete_graph(4), 0, 3, 1)


# -- canonical forms ---------------------------------------------------------------

def _exhaustive_refine(g, colors):
    """Reference colour refinement: rounds until the colouring repeats."""
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
                for v in range(g.n)]
        lookup = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [lookup[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _exhaustive_graph_canon(g, root):
    """Reference for _graph_canon: the least code over every ordering inside
    each refined colour class, first minimum in product order."""
    n = g.n
    colors = [0 if v == root else 1 for v in range(n)] if root is not None else [0] * n
    colors = _exhaustive_refine(g, colors)
    cells = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = order = None
    for parts in itertools.product(*[itertools.permutations(c) for c in cells]):
        cand = [v for part in parts for v in part]
        bits = 0
        for j in range(1, n):
            for i in range(j):
                bits = bits << 1 | (g.adj[cand[i]] >> cand[j] & 1)
        if best is None or bits < best:
            best, order = bits, cand
    tag = b"G" if root is None else b"g"
    return tag + n.to_bytes(1, "big") + best.to_bytes((n * n + 7) // 8, "big"), order


def _assert_search_matches_reference(g, roots):
    for root in roots:
        assert _graph_canon(g, root)[:2] == _exhaustive_graph_canon(g, root), (g, root)


def test_graph_canon_matches_exhaustive_small():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for k, p in enumerate(pairs) if m >> k & 1])
            _assert_search_matches_reference(g, [None, *range(n)])


@st.composite
def _near_circulants(draw):
    """A circulant graph on 6..8 vertices with up to two pairs toggled: large
    colour classes, where the pruning has ties to resolve."""
    n = draw(st.integers(6, 8))
    jumps = draw(st.sets(st.integers(1, n // 2)))
    edges = {frozenset((v, (v + d) % n)) for v in range(n) for d in jumps}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pair, max_size=2)):
        if u != v:
            edges ^= {frozenset((u, v))}
    return Graph.from_edges(n, [tuple(e) for e in edges])


@settings(max_examples=120, deadline=None)
@given(st.one_of(_graphs(max_n=8, min_n=6), _near_circulants()), st.data())
def test_graph_canon_matches_exhaustive_fuzz(g, data):
    _assert_search_matches_reference(
        g, [None, data.draw(st.integers(0, g.n - 1))])


def test_graph_canon_matches_exhaustive_large_cells():
    c7 = cycle_graph(7)
    c7_complement = Graph(7, tuple(~row & ~(1 << v) & 127 for v, row in enumerate(c7.adj)))
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    k44 = Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])
    cube = Graph.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    for g in (complete_graph(7), c7, c7_complement, k33, k44, cube, cycle_graph(8)):
        _assert_search_matches_reference(g, [None, 0])


def _group_closure(gens, n):
    """Every product of the permutations gens (image lists) on n points."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for a in gens:
            q = tuple(a[v] for v in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def _brute_force_group(g):
    """Every permutation p with g.relabel(p) == g: the images p[0], p[1],
    ... are chosen in turn, each keeping adjacency to those before it."""
    out = set()

    def extend(p, used):
        k = len(p)
        if k == g.n:
            out.add(tuple(p))
            return
        for v in range(g.n):
            if not used >> v & 1 and all(g.has_edge(k, u) == g.has_edge(v, p[u])
                                         for u in range(k)):
                extend(p + [v], used | 1 << v)

    extend([], 0)
    return out


def test_graph_canon_automorphisms_generate_the_group():
    """On every connected graph <= 6 and every tree <= 8, as enumerated and
    randomly relabelled, unrooted and at every root, the generators _canon
    reports generate exactly the (root-fixing) automorphism group.  Trees
    take theirs from the search of _graph_canon too, so this checks the
    search on every one of them."""
    rng = random.Random(5)
    sources = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    sources += [t for n in range(1, 9) for t in enumerate_trees(n)]
    checked = 0
    for base in sources:
        n = base.n
        for g in (base, random_relabel(base, rng)):
            group = _brute_force_group(g)
            for root in (None, *range(n)):
                want = {p for p in group if root is None or p[root] == root}
                gens = _canon(g, root)[2]()
                assert _group_closure(gens, n) == want, (g, root)
                checked += 1
    assert checked == 2 * sum(g.n + 1 for g in sources)


def test_kept_automorphisms_are_the_search_result():
    """The connected-graph enumeration keeps the generators _canon reports
    for the representatives with a nontrivial group below the cap, which
    are the parents of the next size, trees among them, and nothing for the
    last size.  The tree generator keeps none."""
    _AUTOMORPHISMS.clear()
    enumerate_connected_graphs.cache_clear()
    parents = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    assert not any(g in _AUTOMORPHISMS for g in enumerate_connected_graphs(7))
    assert sum(t.is_tree() for t in parents if t in _AUTOMORPHISMS) > 0
    for g in parents:
        assert _AUTOMORPHISMS.get(g, ()) == tuple(_canon(g, None)[2]())
    kept = dict(_AUTOMORPHISMS)
    enumerate_trees.cache_clear()
    enumerate_trees(9)
    assert _AUTOMORPHISMS == kept


def test_tree_generators_stay_lazy(monkeypatch):
    """A tree's generators come from the search of _graph_canon, run only
    when asked for: from cold caches, the tree lists, the tree kernels and
    a tree table ask for none, so they run no search."""
    searched = []
    search = graphs._graph_canon
    monkeypatch.setattr(graphs, "_graph_canon",
                        lambda g, root: searched.append(g) or search(g, root))
    for cached in (enumerate_trees, enumerate_tree_kernels, _canon, min_gamma_table):
        cached.cache_clear()
    enumerate_trees(12)
    enumerate_tree_kernels()
    min_gamma_table(9, "tree", BETA_TR)
    assert searched == []


def _classes(keys):
    out = {}
    for v, key in enumerate(keys):
        out.setdefault(key, []).append(v)
    return sorted(out.values())


def test_vertex_orbits_are_the_rooted_classes():
    """vertex_orbits splits the vertices of every connected graph <= 6 and
    every tree <= 10, as enumerated and randomly relabelled, exactly as
    rooted canonical forms do."""
    rng = random.Random(6)
    sources = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    sources += [t for n in range(1, 11) for t in enumerate_trees(n)]
    for base in sources:
        for g in (base, random_relabel(base, rng)):
            want = _classes([canonical_form(g, v) for v in range(g.n)])
            assert vertex_orbits(g) == want


# plain augmentation, the oracle for the orbit-pruned enumerations: every
# subset, every leaf position, every root

def _plain_connected_graphs(n):
    if n == 1:
        return (Graph(1, (0,)),)
    out = {}
    for g in _plain_connected_graphs(n - 1):
        for mask in range(1, 1 << (n - 1)):
            h = g.add_vertex(mask)
            out.setdefault(canonical_form(h), h)
    return tuple(h for _, h in sorted(out.items()))


def _plain_trees(n):
    if n == 1:
        return (Graph(1, (0,)),)
    out = {}
    for t in _plain_trees(n - 1):
        for v in range(t.n):
            h = t.add_vertex(1 << v)
            out.setdefault(canonical_form(h), h)
    return tuple(h for _, h in sorted(out.items()))


def _plain_kernels(sources, keep):
    out = {}
    for g in sources:
        for o in range(g.n):
            if keep(RootedKernel(g, o)):
                out.setdefault(canonical_form(g, o), RootedKernel(g, o))
    return tuple(k for _, k in sorted(out.items()))


def test_pruned_enumerations_equal_plain_augmentation():
    """The same classes in the same order for graphs <= 7, trees <= 12 and
    both kernel lists.  Canonical augmentation keeps the candidate it
    accepts and the tree generator labels trees its own way, so the
    labelled representatives may differ from the first ones reached."""
    for n in range(1, 8):
        assert [canonical_form(g) for g in enumerate_connected_graphs(n)] == \
            [canonical_form(g) for g in _plain_connected_graphs(n)], n
    for n in range(1, 13):
        assert [canonical_form(t) for t in enumerate_trees(n)] == \
            [canonical_form(t) for t in _plain_trees(n)], n

    def graph_kernel(k):
        return k.graph.degree(k.root) >= 3 and not (
            has_strictly_dominating_vertex(k) or has_open_dominating_vertex(k))

    plain = _plain_kernels(_plain_connected_graphs(6), graph_kernel)
    assert [k.canonical() for k in enumerate_graph_kernels()] == \
        [k.canonical() for k in plain]
    plain = _plain_kernels(_plain_trees(10), lambda k: k.graph.degree(k.root) >= 3)
    assert [k.canonical() for k in enumerate_tree_kernels()] == \
        [k.canonical() for k in plain]


def _fresh_relabel(g, root=None):
    """canonical_relabel by a new search, whatever the enumerations kept."""
    order = (_tree_canon if g.is_tree() else _graph_canon)(g, root)[1]
    perm = [0] * g.n
    for i, v in enumerate(order):
        perm[v] = i
    return g.relabel(perm)


def test_kept_orders_equal_a_fresh_search():
    """Every table row (graphs on 6 and 7 vertices, trees on 8..12) and
    every kernel is relabelled from the order its enumeration kept, and
    that equals a fresh search on a randomly relabelled copy."""
    rng = random.Random(8)
    rows = [g for n in (6, 7) for g in enumerate_connected_graphs(n)]
    rows += [t for n in range(8, 13) for t in enumerate_trees(n)]
    for g in rows:
        assert (g, None) in _ORDERS
        assert canonical_relabel(g) == _fresh_relabel(random_relabel(g, rng))
    for k in enumerate_graph_kernels() + enumerate_tree_kernels():
        assert (k.graph, k.root) in _ORDERS
        perm = list(range(k.graph.n))
        rng.shuffle(perm)
        moved = _fresh_relabel(k.graph.relabel(perm), perm[k.root])
        assert canonical_relabel(k.graph, k.root) == moved


def test_canonical_relabel_invariance():
    rng = random.Random(13)
    samples = [attach_path(complete_graph(4), 0, 2),
               attach_path(complete_graph(3), 0, 3),
               star_graph(7), cycle_graph(6), path_graph(9),
               attach_path(star_graph(5), 0, 5),
               e_graph("E7hat"), diamond_graph()]
    for g in samples:
        base = canonical_form(g)
        for _ in range(100):
            assert canonical_form(random_relabel(g, rng)) == base


def test_canonical_rooted_invariance():
    rng = random.Random(17)
    g = attach_path(complete_graph(4), 0, 2)
    base = canonical_form(g, 0)
    for _ in range(100):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm), perm[0]) == base


def test_canonical_rooted_distinguishes_roots():
    g = attach_path(complete_graph(3), 0, 3)
    assert canonical_form(g, 0) != canonical_form(g, 5)


def test_canonical_separates_non_isomorphic():
    gs = enumerate_connected_graphs(6)
    assert len({canonical_form(g) for g in gs}) == 112


def test_canonical_relabel_consistency():
    rng = random.Random(21)
    for g in [attach_path(complete_graph(4), 0, 2), star_graph(8),
              cycle_graph(7), attach_path(star_graph(6), 0, 4)]:
        r1 = canonical_relabel(g)
        r2 = canonical_relabel(random_relabel(g, rng))
        assert r1 == r2


# -- kernel predicates ---------------------------------------------------------------

def test_dominating_vertex_examples():
    s4 = star_graph(4)
    assert has_strictly_dominating_vertex(RootedKernel(s4, 1))
    assert not has_strictly_dominating_vertex(RootedKernel(complete_graph(4), 2))
    k4p2 = attach_path(complete_graph(4), 0, 2)
    assert not has_strictly_dominating_vertex(RootedKernel(k4p2, 0))


def test_open_dominating_example():
    # path end: its sole neighbor's open neighborhood strictly contains it
    p4 = path_graph(4)
    assert has_open_dominating_vertex(RootedKernel(p4, 0))
    assert not has_open_dominating_vertex(RootedKernel(complete_graph(4), 0))


def test_active_vertices_examples():
    k3p3 = attach_path(complete_graph(3), 0, 3)
    act = active_vertices(RootedKernel(k3p3, 0), "graph")
    assert sorted(act) == [4, 5]
    assert max(k3p3.distances_from(0)) == 3
    k4p2 = attach_path(complete_graph(4), 0, 2)
    act = active_vertices(RootedKernel(k4p2, 0), "graph")
    assert sorted(act) == [1, 2, 3, 4, 5]
    s5p5 = attach_path(star_graph(5), 0, 5)
    act = active_vertices(RootedKernel(s5p5, 0), "tree")
    assert sorted(act) == [8, 9]
    # the 10-vertex star: eccentricity 1, every vertex active, root included
    act = active_vertices(RootedKernel(star_graph(10), 0), "tree")
    assert act == frozenset(range(10))


# -- enumerations ------------------------------------------------------------------------

def test_connected_graph_counts():
    for n, want in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)]:
        assert len(enumerate_connected_graphs(n)) == want


# independent references for the enumeration counts

def enumerate_connected_graphs_bruteforce(n: int) -> int:
    """Independent class count over all edge subsets; cross-check for n <= 6."""
    if n > 6:
        raise ValueError("brute-force check capped at 6 vertices")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            seen.add(canonical_form(g))
    return len(seen)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group (trees only; used for the labeled
    Cayley-count cross-check of the tree enumeration)."""
    if not g.is_tree():
        raise ValueError("automorphism_count implemented for trees only")

    def count(v: int, parent: int) -> tuple:
        subs = [count(u, v) for u in _bits(g.adj[v]) if u != parent]
        subs.sort(key=lambda s: s[0])
        total = 1
        i = 0
        while i < len(subs):
            j = i
            while j < len(subs) and subs[j][0] == subs[i][0]:
                j += 1
            run = j - i
            fact = 1
            for m in range(2, run + 1):
                fact *= m
            total *= fact
            for k in range(i, j):
                total *= subs[k][1]
            i = j
        code = b"(" + b"".join(s[0] for s in subs) + b")"
        return code, total

    centers = _tree_centers(g)
    if len(centers) == 1:
        return count(centers[0], -1)[1]
    c1, c2 = centers
    code1, n1 = count(c1, c2)
    code2, n2 = count(c2, c1)
    swap = 2 if code1 == code2 else 1
    return n1 * n2 * swap


def test_connected_graph_counts_bruteforce_crosscheck():
    for n in range(1, 7):
        assert enumerate_connected_graphs_bruteforce(n) == \
            len(enumerate_connected_graphs(n))


def test_connected_graph_counts_labelled_crosscheck():
    """Orbit-stabiliser, with no augmentation oracle: for n <= 7 the codes
    are distinct and the sum over the classes of n!/|Aut(G)| is the number
    of labelled connected graphs (OEIS A001187), so every labelled
    connected graph lies in exactly one listed class.  |Aut(G)| closes the
    generators the canonical search returns (at most 7! elements)."""
    labelled = [1, 1, 4, 38, 728, 26704, 1866256]
    for n, want in enumerate(labelled, 1):
        gs = enumerate_connected_graphs(n)
        assert len({canonical_form(g) for g in gs}) == len(gs), n
        total = sum(math.factorial(n) // len(_group_closure(_canon(g, None)[2](), n))
                    for g in gs)
        assert total == want, n


def test_connected_graph_enumeration_search_count(monkeypatch):
    """From cold caches, the connected graphs on up to 7 vertices cost at
    most 1,035 canonical searches: one per accepted class that is not a
    tree, one per tree parent for its generators, and a few for ties on
    the deletion invariant."""
    searched = []
    search = graphs._graph_canon
    monkeypatch.setattr(graphs, "_graph_canon",
                        lambda g, root: searched.append(g) or search(g, root))
    for cached in (enumerate_connected_graphs, _canon):
        cached.cache_clear()
    _AUTOMORPHISMS.clear()
    assert len(enumerate_connected_graphs(7)) == 853
    assert len(searched) <= 1035


def test_connected_graphs_minus_last_vertex_are_representatives():
    """Each representative on n vertices is a representative on n - 1 plus
    vertex n - 1, as a labelled graph: the tables border a graph's char poly
    over the pass of that parent, which the level below has made."""
    for n in range(2, 8):
        below = set(enumerate_connected_graphs(n - 1))
        m = n - 1
        for g in enumerate_connected_graphs(n):
            assert Graph(m, tuple(row & ~(1 << m) for row in g.adj[:m])) in below


def test_augment_raises_on_a_repeated_class(monkeypatch):
    """A class accepted twice is an error, not a silent drop: with every
    candidate taken as its own canonical deletion vertex, two candidates
    from the 3-vertex parents give one class."""
    monkeypatch.setattr(graphs, "_deletion_ties", lambda adj: [len(adj) - 1])
    monkeypatch.setattr(graphs, "_ORDERS", {})
    monkeypatch.setattr(graphs, "_AUTOMORPHISMS", {})
    with pytest.raises(graphs.DuplicateClassError, match="accepted twice"):
        graphs._augment(enumerate_connected_graphs(3))


def test_tree_counts():
    want = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
            11: 235, 12: 551, 13: 1301, 14: 3159}
    for n, w in want.items():
        assert len(enumerate_trees(n)) == w


def test_tree_counts_cayley_crosscheck():
    # distinct codes and sum over classes of n!/|Aut| equal to the labelled
    # count n^(n-2): every labelled tree lies in exactly one listed class,
    # so the list is complete and free of repeats; and the generator gives
    # one level sequence per listed class
    for n in range(3, TREE_ENUM_CAP + 1):
        trees = enumerate_trees(n)
        assert len({canonical_form(t) for t in trees}) == len(trees)
        total = sum(math.factorial(n) // automorphism_count(t) for t in trees)
        assert total == n ** (n - 2), n
        assert sum(1 for _ in _centre_rooted_sequences(n)) == len(trees), n


def test_generated_trees_are_trees():
    for n in range(1, TREE_ENUM_CAP + 1):
        for t in enumerate_trees(n):
            assert t.n == n and t.edge_count() == n - 1 and t.is_connected()


@pytest.mark.parametrize("enumerate_, cap", [
    (enumerate_connected_graphs, GRAPH_ENUM_CAP), (enumerate_trees, TREE_ENUM_CAP)])
def test_enumeration_size_range(enumerate_, cap):
    for n in (0, cap + 1):
        with pytest.raises(ValueError, match="needs 1 <= n <= %d$" % cap):
            enumerate_(n)


def test_enumeration_deterministic_and_sorted():
    a = [write_graph6(g) for g in enumerate_connected_graphs(6)]
    assert all(g.is_connected() for g in enumerate_connected_graphs(6))
    codes = [canonical_form(g) for g in enumerate_connected_graphs(6)]
    assert codes == sorted(codes)
    assert a == [write_graph6(g) for g in enumerate_connected_graphs(6)]


def test_graph_kernel_count_and_members():
    ks = enumerate_graph_kernels()
    assert len(ks) == 155
    codes = {k.canonical() for k in ks}
    k4p2 = RootedKernel(attach_path(complete_graph(4), 0, 2), 0)
    assert k4p2.canonical() in codes
    d = diamond_graph()
    for kern in (RootedKernel(attach_path(complete_graph(3), 0, 3), 0),
                 RootedKernel(attach_path(d, 0, 2), 0),
                 RootedKernel(attach_path(d, 0, 2), 1),
                 RootedKernel(attach_path(d, 1, 2), 1)):
        assert kern.canonical() in codes


def test_graph_kernel_defining_predicate():
    for k in enumerate_graph_kernels():
        assert k.graph.n == 6
        assert k.graph.is_connected()
        assert k.graph.degree(k.root) >= 3
        assert not has_strictly_dominating_vertex(k)
        assert not has_open_dominating_vertex(k)


def test_rejected_candidates_fail_a_condition():
    # audit: every rooted 6-vertex class not kept violates some condition
    kept = {k.canonical() for k in enumerate_graph_kernels()}
    rejected = 0
    for g in enumerate_connected_graphs(6):
        for o in range(6):
            code = canonical_form(g, o)
            k = RootedKernel(g, o)
            bad = (g.degree(o) < 3 or has_strictly_dominating_vertex(k)
                   or has_open_dominating_vertex(k))
            if code in kept:
                assert not bad
            else:
                assert bad
                rejected += 1
    assert rejected > 0


def test_tree_kernel_count_and_members():
    ks = enumerate_tree_kernels()
    assert len(ks) == 194
    codes = {k.canonical() for k in ks}
    assert RootedKernel(attach_path(star_graph(5), 0, 5), 0).canonical() in codes
    assert RootedKernel(attach_path(star_graph(6), 0, 4), 0).canonical() in codes
    assert RootedKernel(star_graph(10), 0).canonical() in codes
    for k in ks:
        assert k.graph.is_tree() and k.graph.n == 10
        assert k.graph.degree(k.root) >= 3


# -- named families -------------------------------------------------------------------------

def test_family_builders():
    assert fork_graph(4) == star_graph(4)
    assert bifork_graph(5).degrees().count(4) == 1
    assert canonical_form(bifork_graph(5)) == canonical_form(star_graph(5))
    assert e_graph("E6").n == 6
    assert e_graph("E6hat").n == 7
    assert e_graph("E7").n == 7
    assert e_graph("E7hat").n == 8
    assert e_graph("E8").n == 8
    assert e_graph("E8hat").n == 9
