"""Small-graph machinery: representation, graph6 I/O, canonical forms, and
exhaustive enumeration of connected graphs, trees, and rooted proof kernels.

Graphs live on at most 64 vertices so each adjacency row fits in one
machine word.  Enumerations are desk-scale and deterministic, with results
sorted by canonical code.  Canonical forms of trees are sorted subtree
codes; other graphs get color refinement and then a search for the least
adjacency code over the orderings the coloring allows.  That search is the
one source of automorphism group generators, which a tree computes only
when they are asked for (_tree_canon).  Connected graphs come from
augmentation plus canonical-form deduplication, trying one augmentation per
orbit of the parent's group.  Trees are generated as centre-rooted
canonical level sequences (Wright, Richmond, Odlyzko & McKay, 1986), one
per class, so no candidate is searched for or dropped.  Every enumeration
keeps each representative's canonical ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

MAX_VERTICES = 64


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[v] is the neighbor bitmask of v."""

    n: int
    adj: tuple

    def __post_init__(self):
        if not (1 <= self.n <= MAX_VERTICES):
            raise ValueError("vertex count out of range: %d" % self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length mismatch")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row >> v & 1:
                raise ValueError("self-loop at %d" % v)
            if row & ~full:
                raise ValueError("edge endpoint out of range")
        # every edge v -> u must come back: O(n + m) over the set bits
        for v, row in enumerate(adj := self.adj):
            while row:
                low = row & -row
                if not adj[low.bit_length() - 1] >> v & 1:
                    raise ValueError("asymmetric adjacency")
                row ^= low

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    def add_vertex(self, neighbors: int = 0) -> "Graph":
        adj = [row | ((neighbors >> v & 1) << self.n) for v, row in enumerate(self.adj)]
        adj.append(neighbors)
        return Graph(self.n + 1, tuple(adj))

    # -- basic queries --------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list:
        return [row.bit_count() for row in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list:
        return _bits(self.adj[v])

    def edges(self) -> list:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in _bits(row):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        full = (1 << self.n) - 1
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= nxt
            if seen == full:
                return True
        return seen == full

    def is_tree(self) -> bool:
        return self.edge_count() == self.n - 1 and self.is_connected()

    def distances_from(self, o: int) -> list:
        dist = [-1] * self.n
        dist[o] = 0
        frontier = [o]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in _bits(self.adj[v]):
                    if dist[u] < 0:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        return dist

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        adj = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in _bits(self.adj[v]):
                row |= 1 << perm[u]
            adj[perm[v]] = row
        return Graph(self.n, tuple(adj))


def _bits(mask: int) -> list:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class RootedKernel:
    """Connected graph with a distinguished root vertex."""

    graph: Graph
    root: int

    def __post_init__(self):
        if not (0 <= self.root < self.graph.n):
            raise ValueError("root out of range")

    def canonical(self) -> bytes:
        return canonical_form(self.graph, self.root)

    def id_string(self) -> str:
        """Stable readable identifier: graph6 of a canonical relabeling with
        the root moved to vertex 0."""
        return write_graph6(canonical_relabel(self.graph, self.root))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

class Graph6Error(ValueError):
    pass


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (bit-exact per the public format)."""
    data = text.strip()
    if not data:
        raise Graph6Error("empty graph6 string")
    raw = [ord(ch) - 63 for ch in data]
    if any(c < 0 or c > 63 for c in raw):
        raise Graph6Error("character out of graph6 range")
    if raw[0] == 63:
        if len(raw) < 4:
            raise Graph6Error("truncated long-form header")
        n = (raw[1] << 12) | (raw[2] << 6) | raw[3]
        body = raw[4:]
    else:
        n = raw[0]
        body = raw[1:]
    if n > MAX_VERTICES:
        raise Graph6Error("graph too large: %d vertices" % n)
    if n == 0:
        raise Graph6Error("empty graph not supported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error("bit body has %d chars, expected %d" % (len(body), need))
    bits = 0
    for c in body:
        bits = bits << 6 | c
    pad = need * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bits >>= pad
    adj = [0] * n
    k = nbits
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    n = g.n
    header = [chr(n + 63)] if n <= 62 else [chr(126), chr((n >> 12) + 63),
                                            chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    bits = 0
    nbits = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            bits = bits << 1 | (g.adj[i] >> j & 1)
    pad = (6 - nbits % 6) % 6
    bits <<= pad
    body = []
    for k in range(((nbits + pad) // 6 - 1) * 6, -1, -6):
        body.append(chr((bits >> k & 63) + 63))
    return "".join(header + body)


def parse_edge_list(text: str) -> Graph:
    """Parse the fixture format "n; u-v, u-v, ..."."""
    try:
        head, _, rest = text.partition(";")
        n = int(head.strip())
        edges = []
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            u, _, v = item.partition("-")
            edges.append((int(u), int(v)))
        return Graph.from_edges(n, edges)
    except (ValueError, IndexError) as exc:
        raise ValueError("bad edge-list text: %s" % exc) from exc


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def attach_path(h: Graph, v: int, k: int) -> Graph:
    """Join a path on k new vertices to h by an edge at v."""
    if not (0 <= v < h.n):
        raise ValueError("attachment vertex out of range")
    if k < 0:
        raise ValueError("negative path length")
    g = h
    last = v
    for _ in range(k):
        g = g.add_vertex(1 << last)
        last = g.n - 1
    return g


def attach_fork(h: Graph, v: int, k: int, leaves: int) -> Graph:
    """Join a path on k new vertices ending in `leaves` pendant leaves."""
    if leaves < 2:
        raise ValueError("fork needs at least 2 leaves")
    if k < 1:
        raise ValueError("fork needs at least 1 path vertex")
    g = attach_path(h, v, k)
    end = g.n - 1
    for _ in range(leaves):
        g = g.add_vertex(1 << end)
    return g


# -- named small graphs -------------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 with n-1 leaves."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def fork_graph(n: int) -> Graph:
    """Path with two extra leaves at one end (star of 3 plus a path)."""
    if n < 4:
        raise ValueError("fork needs >= 4 vertices")
    return attach_path(star_graph(3), 0, n - 3)


def bifork_graph(n: int) -> Graph:
    """Path with two pendant leaves at each end; n=5 gives the 4-leaf star."""
    if n < 5:
        raise ValueError("bifork needs >= 5 vertices")
    core = path_graph(n - 4)
    g = core
    for _ in range(2):
        g = g.add_vertex(1 << 0)
    for _ in range(2):
        g = g.add_vertex(1 << (n - 5))
    return g


def diamond_graph() -> Graph:
    """K4 minus an edge; vertices 0,3 have degree 2 and 1,2 degree 3."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def e_graph(kind: str) -> Graph:
    """The exceptional path-with-one-branch graphs and their one-vertex
    extensions (largest eigenvalue below / exactly 2)."""
    builders = {
        "E6": (5, 2),   # path of 5, leaf at middle
        "E7": (6, 2),
        "E8": (7, 2),
        "E7hat": (7, 3),
        "E8hat": (8, 2),
    }
    if kind == "E6hat":
        g = star_graph(4)
        for arm in (1, 2, 3):
            g = g.add_vertex(1 << arm)
        return g
    plen, at = builders[kind]
    return attach_path(path_graph(plen), at, 1)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _refine_colors(g: Graph, colors: list) -> list:
    """1-dimensional color refinement until stable; colors are small ints
    assigned canonically by sorting signature tuples.

    The input colors must be dense ranks 0..k-1.  Each round ranks the
    signatures (own color first), so it only splits classes and keeps their
    order; a round that does not raise the class count therefore reproduces
    its input, and a discrete coloring is stable."""
    n = g.n
    nbrs = [_bits(row) for row in g.adj]
    count = len(set(colors))
    while count < n:
        get = colors.__getitem__
        sigs = [(c, tuple(sorted(map(get, nb)))) for c, nb in zip(colors, nbrs)]
        order = sorted(set(sigs))
        if len(order) == count:
            break
        lookup = {s: i for i, s in enumerate(order)}
        colors = [lookup[s] for s in sigs]
        count = len(order)
    return colors


def _subtree_walk(g: Graph, root: int) -> tuple:
    """Sorted-subtree code of the tree g rooted at root: "(" then the codes
    of the child subtrees in sorted order, then ")", so that equal codes
    mean rooted-isomorphic subtrees; and the vertices depth first from root
    with the children of each in increasing (code, label) order."""

    def encode(v: int, parent: int) -> tuple:
        # ties on the code compare the walks, which start at distinct labels
        subs = sorted([encode(u, v) for u in _bits(g.adj[v]) if u != parent])
        code = b"(" + b"".join([c for c, _ in subs]) + b")"
        walk = [v]
        for _, w in subs:
            walk += w
        return code, walk

    return encode(root, -1)


def _tree_canon(g: Graph, root: Optional[int]) -> tuple:
    """Code, order and generators (a function, see _canon) of a tree
    (rooted or free): the sorted subtree code and the walk of
    _subtree_walk.  A free tree is rooted at the center with the least
    code, the lower label on a tie.  The generators come from the search
    of _graph_canon, which runs only when they are asked for."""
    gens = lambda: _graph_canon(g, root)[2]()
    if root is not None:
        code, order = _subtree_walk(g, root)
        return b"R" + code, order, gens
    code, order = min(_subtree_walk(g, c) for c in _tree_centers(g))
    return b"T" + code, order, gens


def _tree_centers(g: Graph) -> list:
    if g.n == 1:
        return [0]
    deg = g.degrees()
    removed = [False] * g.n
    leaves = [v for v in range(g.n) if deg[v] == 1]
    remaining = g.n
    while remaining > 2:
        nxt = []
        for v in leaves:
            removed[v] = True
            remaining -= 1
            for u in _bits(g.adj[v]):
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        leaves = nxt
    return [v for v in range(g.n) if not removed[v]]


def _graph_canon(g: Graph, root: Optional[int]) -> tuple:
    """Canonical code, vertex order and a function giving the
    automorphisms: color refinement, then the least code over the orderings
    consistent with the stable coloring.

    The code lists the columns j = 1..n-1 of the relabelled adjacency
    matrix, column j being the bits adj[order[i]][order[j]] for i < j, first
    column most significant.  Slots are filled cell by cell in color order
    and each slot tries the free vertices of its cell in increasing order,
    which visits orderings in the order of the product over the cells of
    their permutations.  A vertex whose column exceeds the best ordering's
    column while the prefix ties the best cannot lead to a smaller code and
    is skipped; a leaf replaces the best only when strictly smaller.

    A leaf whose code equals the best code gives an automorphism,
    best_order[i] -> leaf[i]; it stays one when a later leaf becomes the
    best.  At depth k a vertex is skipped when an automorphism generated by
    those found so far that fix cand[:k] pointwise maps an already tried
    sibling to it: its subtree is the image of that sibling's, so its
    leaves repeat codes already seen, later in the product order.  So the
    result is still the least code over all consistent orderings, with the
    first ordering in that product order that attains it.

    The automorphisms found generate the group of (g, root).  Every
    automorphism preserves the refined coloring, so it maps the first
    minimal leaf B to a minimal leaf L.  By induction on the position of L
    in the product order: if L is visited, B -> L is recorded there; if not,
    a found automorphism s fixing the prefix of L where it was skipped maps
    an earlier minimal leaf s^-1(L) onto L, and B -> L is s after
    B -> s^-1(L).
    """
    n = g.n
    adj = g.adj
    colors = [0] * n
    if root is not None:
        colors = [0 if v == root else 1 for v in range(n)]
    colors = _refine_colors(g, colors)
    cells: dict[int, list] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    slot_cells = [cells[c] for c in sorted(cells) for _ in cells[c]]
    cand = [0] * n
    cols = [0] * n
    best_cols: list = []
    best_order: list = []
    autos: list = []            # automorphisms found, as bytes image lists
    fixed: list = []            # the mask of the fixed points of each

    def search(k: int, tie: bool, used: int) -> bool:
        # tie: the prefix cand[:k] has the same columns as the best so far
        # (false before the first leaf).  Returns whether a new best was
        # found below, which leaves every open prefix tying the new best.
        if k == n:
            if tie:
                perm = bytearray(n)
                for b, v in zip(best_order, cand):
                    perm[b] = v
                autos.append(bytes(perm))
                fixed.append(sum(1 << v for v in range(n) if perm[v] == v))
                return False
            best_cols[:] = cols
            best_order[:] = cand
            return True
        found = False
        prefix = cand[:k]
        tried = 0           # the tried siblings' orbit under `gens`
        gens: list = []     # the found automorphisms fixing cand[:k]
        known = 0           # how many found automorphisms gens has seen
        for v in slot_cells[k]:
            if used >> v & 1:
                continue
            if tried:
                if known < len(autos):
                    gens += [a for a, f in zip(autos[known:], fixed[known:])
                             if used & ~f == 0]
                    known = len(autos)
                if gens:
                    tried = _orbit_closure(tried, gens)
                    if tried >> v & 1:
                        continue
            tried |= 1 << v
            row = adj[v]
            col = 0
            for u in prefix:
                col = col << 1 | (row >> u & 1)
            if tie and col > best_cols[k]:
                continue
            cand[k] = v
            cols[k] = col
            if search(k + 1, tie and col == best_cols[k], used | 1 << v):
                found = tie = True
        return found

    search(0, False, 0)
    bits = 0
    for j in range(1, n):
        bits = bits << j | best_cols[j]
    tag = b"G" if root is None else b"g"
    code = tag + n.to_bytes(1, "big") + bits.to_bytes((n * n + 7) // 8, "big")
    return code, best_order, lambda: autos


def _orbit_closure(mask: int, gens: Sequence[Sequence[int]]) -> int:
    """The set of points (a bitmask) closed under the permutations gens
    (image lists)."""
    stack = _bits(mask)
    while stack:
        v = stack.pop()
        for a in gens:
            u = a[v]
            if not mask >> u & 1:
                mask |= 1 << u
                stack.append(u)
    return mask


@lru_cache(maxsize=1)   # _add_class rereads what canonical_form just computed
def _canon(g: Graph, root: Optional[int]) -> tuple:
    """Code, order and a function building the generators of (g, root)."""
    return (_tree_canon if g.is_tree() else _graph_canon)(g, root)


def canonical_form(g: Graph, root: Optional[int] = None) -> bytes:
    """Canonical byte string: equal iff (rooted-)isomorphic.

    Connected acyclic graphs use the linear-time tree code (_tree_canon);
    everything else uses color refinement and a search over the orderings
    of the color classes (_graph_canon), pruned where a partial code
    already exceeds the best and where an automorphism found so far maps a
    tried branch onto an untried one.  Either pruning skips only leaves
    whose codes are not smaller than one already seen, and no earlier in
    the search order, so the code is the least over every ordering the
    coloring allows.  The generators of the automorphism group (see _canon)
    come from that search alone, for trees too.
    """
    return _canon(g, root)[0]


def canonical_relabel(g: Graph, root: Optional[int] = None) -> Graph:
    """A canonically relabeled copy: isomorphic inputs give identical output.

    When a root is given it lands on vertex 0 of the result.  An enumerated
    representative reuses the ordering its enumeration kept.
    """
    order = _ORDERS.get((g, root))
    if order is None:
        order = _canon(g, root)[1]
    perm = [0] * g.n
    for i, v in enumerate(order):
        perm[v] = i
    return g.relabel(perm)


# ---------------------------------------------------------------------------
# kernels: predicates
# ---------------------------------------------------------------------------

def has_strictly_dominating_vertex(k: RootedKernel) -> bool:
    """True iff some non-root vertex's closed neighborhood strictly contains
    the root's closed neighborhood (impossible for a maximum-weight root)."""
    g, o = k.graph, k.root
    no = g.closed_neighborhood(o)
    for v in range(g.n):
        if v == o:
            continue
        nv = g.closed_neighborhood(v)
        if nv & no == no and nv != no:
            return True
    return False


def has_open_dominating_vertex(k: RootedKernel) -> bool:
    """True iff some non-root vertex's open neighborhood strictly contains
    the root's open neighborhood.

    Like the closed variant, this forces that vertex to outweigh the root in
    the Perron vector of any connected supergraph whose extra vertices
    attach outside the root's neighborhood, so such roots cannot be
    maximum-weight vertices.
    """
    g, o = k.graph, k.root
    no = g.adj[o]
    for v in range(g.n):
        if v == o:
            continue
        nv = g.adj[v]
        if nv & no == no and nv != no:
            return True
    return False


def active_vertices(k: RootedKernel, kind: str) -> frozenset:
    """Kernel vertices that may have neighbors outside the kernel.

    Graph kernels: all non-root vertices when the root's eccentricity is at
    most 2, otherwise everything outside the root's closed neighborhood.
    Tree kernels: vertices at distance >= ecc-1 from the root; for the star
    (eccentricity 1) this includes the root itself.
    """
    g, o = k.graph, k.root
    dist = g.distances_from(o)
    if min(dist) < 0:
        raise ValueError("kernel is disconnected")
    ecc = max(dist)
    if kind == "graph":
        if ecc <= 2:
            return frozenset(v for v in range(g.n) if v != o)
        closed = g.closed_neighborhood(o)
        return frozenset(v for v in range(g.n) if not (closed >> v & 1))
    if kind == "tree":
        return frozenset(v for v in range(g.n) if dist[v] >= ecc - 1)
    raise ValueError("kind must be 'graph' or 'tree'")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

GRAPH_ENUM_CAP = 7
TREE_ENUM_CAP = 14

# Kept by the enumerations: the canonical ordering of each representative,
# keyed by (graph, root), and the automorphism generators _canon gave for
# the connected-graph representatives below the cap with a nontrivial
# group, which are the parents of the next size.
_ORDERS: dict = {}
_AUTOMORPHISMS: dict = {}


def _orbit_minima(points: Iterable[int], gens: Sequence[Sequence[int]]) -> list:
    """The points that are least in their orbit under the group generated
    by gens (image lists), in increasing order."""
    out = []
    seen = 0
    for x in points:
        if not seen >> x & 1:
            out.append(x)
            seen |= _orbit_closure(1 << x, gens)
    return out


def _mask_action(a: Sequence[int]) -> list:
    """The vertex permutation a acting on vertex masks, as an image list
    over the masks of len(a) bits."""
    img = [0] * (1 << len(a))
    for m in range(1, len(img)):
        low = m & -m
        img[m] = img[m ^ low] | 1 << a[low.bit_length() - 1]
    return img


def _add_class(out: dict, g: Graph, root: Optional[int], item):
    """Put item in out under the code of (g, root) unless its class is
    there already.  A new class keeps its canonical ordering and gives back
    the function building its generators (see _canon); else None."""
    code = canonical_form(g, root)
    if code in out:
        return None
    out[code] = item
    _, order, gens = _canon(g, root)
    _ORDERS[g, root] = tuple(order)
    return gens


def _augment(parents: Iterable[Graph]) -> tuple:
    """The classes reached by joining a new vertex to each nonempty vertex
    subset of each parent, sorted by code.  Only the subsets least in their
    orbit under the parent's group are tried; another in the orbit gives an
    isomorphic graph, after the least one, so each class keeps the first
    candidate that reaches it, as trying them all would.  Representatives
    below GRAPH_ENUM_CAP keep their generators for the next size."""
    out: dict[bytes, Graph] = {}
    for g in parents:
        gens = [_mask_action(a) for a in _AUTOMORPHISMS.get(g, ())]
        for mask in _orbit_minima(range(1, 1 << g.n), gens):
            h = g.add_vertex(mask)
            found = _add_class(out, h, None, h)
            if found is not None and h.n < GRAPH_ENUM_CAP and (kept := tuple(found())):
                _AUTOMORPHISMS[h] = kept
    return tuple(h for _, h in sorted(out.items()))


@lru_cache(maxsize=None)
def enumerate_connected_graphs(n: int) -> tuple:
    """All connected graphs on n <= 7 vertices, one per isomorphism class:
    a new vertex joined to every nonempty subset of each (n-1)-vertex
    representative.  Every connected graph has a non-cutting vertex, so
    every class is reached."""
    if not (1 <= n <= GRAPH_ENUM_CAP):
        raise ValueError("connected-graph enumeration needs 1 <= n <= %d" % GRAPH_ENUM_CAP)
    if n == 1:
        return (Graph(1, (0,)),)
    return _augment(enumerate_connected_graphs(n - 1))


def _level_successor(seq: list, p: int) -> None:
    """Beyer-Hedetniemi step at p (seq[p] > 1), in place: with q the parent
    of p, the last position before p one level up, seq[i] becomes
    seq[i - (p - q)] for every i >= p."""
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    for i in range(p, len(seq)):
        seq[i] = seq[i - p + q]


def _centre_rooted_sequences(n: int):
    """The level sequences of the free trees on n vertices, one per tree,
    rooted at a centre, in decreasing lexicographic order (Wright,
    Richmond, Odlyzko & McKay, SIAM J. Comput. 15, 1986).  The list is
    reused: each item holds until the next is asked for.

    A level sequence lists the depths of the vertices in preorder, root at
    depth 0.  It is canonical when every vertex lists its child subtrees in
    nonincreasing order of their sequences; rooted trees then correspond
    one to one to canonical sequences, and in decreasing order the
    successor of one is _level_successor at its last position above depth 1
    (Beyer & Hedetniemi, SIAM J. Comput. 9, 1980).  The rule applied at any
    position p above depth 1 gives the first sequence after all those that
    share seq[:p + 1]: it is the successor of seq[:p + 1] followed by
    leaves of the root, the least canonical sequence with that prefix.

    Split a sequence at the root's second child, m, into the first branch
    seq[1:m] of depth h1 and the rest, of depth h2 (0 if there is no second
    child).  A taller subtree has the larger sequence, so h1 >= h2, and the
    root is a centre iff h2 >= h1 - 1.  When h2 = h1 - 1 the first child is
    the other centre, and the two halves across the central edge, B (the
    first branch, rooted at the first child) and R (the rest), have equal
    height; the rooting is kept iff (|B|, B) <= (|R|, R), sizes first and
    then sequences, which holds for exactly one of the two rootings or, when
    B = R, for both, which give one sequence.  So the kept sequences are
    one per free tree.

    The walk starts from the path rooted at its centre, the largest kept
    sequence (no branch of a centre-rooted tree is deeper than n // 2), and
    ends at the star, which has no position above depth 1.  A kept sequence
    steps to its successor.  A rejected one jumps past every sequence with
    its first branch: those have a rest no larger, hence no taller and of
    the same size, and fail the same test, so the walk goes on at the
    successor taken at p = m - 1, the first branch's last position (above
    depth 1, since a star is kept).
    """
    half = n // 2
    seq = list(range(half + 1)) + list(range(1, n - half))
    while True:
        m = 2
        while m < n and seq[m] != 1:
            m += 1
        h1 = max(seq[1:m], default=0)
        h2 = max(seq[m:], default=0)
        keep = h2 >= h1 - 1
        if keep and h2 < h1:
            first = [d - 1 for d in seq[1:m]]
            rest = [0] + seq[m:]
            keep = (len(first), first) <= (len(rest), rest)
        if keep:
            yield seq
            p = n - 1
            while seq[p] == 1:
                p -= 1
            if p == 0:
                return
        else:
            p = m - 1
        _level_successor(seq, p)


def _tree_from_levels(seq: Sequence[int]) -> Graph:
    """The tree of a level sequence, vertex i at position i: each vertex's
    parent is the last vertex before it one level up."""
    adj = [0] * len(seq)
    last = [0] * len(seq)      # last[d]: the latest vertex at depth d
    for v in range(1, len(seq)):
        d = seq[v]
        u = last[d - 1]
        last[d] = v
        adj[v] |= 1 << u
        adj[u] |= 1 << v
    return Graph(len(seq), tuple(adj))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All trees on n <= 14 vertices, one per isomorphism class, generated
    from their centre-rooted level sequences (_centre_rooted_sequences),
    one sequence per class, with no search.  Each tree takes one canonical
    form (one _tree_canon pass, see _add_class), which keeps its ordering
    for canonical_relabel and gives the code the trees are sorted by."""
    if not (1 <= n <= TREE_ENUM_CAP):
        raise ValueError("tree enumeration needs 1 <= n <= %d" % TREE_ENUM_CAP)
    out: dict[bytes, Graph] = {}
    for seq in _centre_rooted_sequences(n):
        g = _tree_from_levels(seq)
        _add_class(out, g, None, g)
    return tuple(g for _, g in sorted(out.items()))


def _rooted_classes(sources: Iterable[Graph], keep) -> tuple:
    """One rooted kernel per class over the roots that keep(g, o) accepts,
    sorted by code."""
    out: dict[bytes, RootedKernel] = {}
    for g in sources:
        for o in range(g.n):
            if keep(g, o):
                _add_class(out, g, o, RootedKernel(g, o))
    return tuple(k for _, k in sorted(out.items()))


@lru_cache(maxsize=None)
def enumerate_graph_kernels() -> tuple:
    """The rooted 6-vertex kernels: connected, root degree >= 3, and no
    vertex dominating the root in either the closed or open sense.

    Both domination exclusions are sound for maximum-weight roots; together
    they give the 155 rooted classes the verification stage iterates over.
    """
    def keep(g: Graph, o: int) -> bool:
        if g.degree(o) < 3:
            return False
        k = RootedKernel(g, o)
        return not (has_strictly_dominating_vertex(k) or has_open_dominating_vertex(k))

    return _rooted_classes(enumerate_connected_graphs(6), keep)


@lru_cache(maxsize=None)
def enumerate_tree_kernels() -> tuple:
    """The rooted 10-vertex tree kernels: root degree >= 3 (194 classes)."""
    return _rooted_classes(enumerate_trees(10), lambda t, o: t.degree(o) >= 3)
