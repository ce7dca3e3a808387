"""Channel confusability graphs: products, unions and exact independence search.

Vertices are dense integer indices; labels are presentation-only.  Adjacency is
stored as one bitmask per vertex, with no self-loops.  The auto-adjacency
convention needed by word distinguishability tests is applied at the operation
level, never stored.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence


class BudgetExceededError(Exception):
    """A configured search or size budget was exhausted."""


Word = tuple[int, ...]


@dataclass(frozen=True)
class ChannelGraph:
    """Undirected graph over channel inputs; an edge joins confusable inputs."""

    labels: tuple[str, ...]
    neighbor_masks: tuple[int, ...]

    @staticmethod
    def from_edges(labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> "ChannelGraph":
        labels = tuple(str(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        n = len(labels)
        masks = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for {n} vertices")
            if i == j:
                raise ValueError("self-loops are not stored in channel graphs")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return ChannelGraph(labels, tuple(masks))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, m in enumerate(self.neighbor_masks)
                for v in _bits(m >> (u + 1) << (u + 1))]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.neighbor_masks) // 2

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def index_of(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"unknown vertex label {label!r}")
        return self.labels.index(label)

    def to_json(self) -> str:
        return json.dumps({"labels": list(self.labels), "edges": self.edges()})

    @staticmethod
    def from_json(text: str) -> "ChannelGraph":
        data = json.loads(text)
        return ChannelGraph.from_edges(data["labels"], [tuple(e) for e in data["edges"]])

    def word_in_range(self, word: Sequence[int]) -> bool:
        return all(0 <= x < self.vertex_count for x in word)


def zero_graph() -> ChannelGraph:
    return ChannelGraph.from_edges([], [])


def one_vertex(label: str = "0") -> ChannelGraph:
    return ChannelGraph.from_edges([label], [])


def cycle(n: int) -> ChannelGraph:
    """Cycle graph: vertices 0..n-1, edges i -- (i+1 mod n)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return ChannelGraph.from_edges([str(i) for i in range(n)],
                                   [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> ChannelGraph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return ChannelGraph.from_edges([str(i) for i in range(n)],
                                   [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> ChannelGraph:
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    return ChannelGraph.from_edges([str(i) for i in range(n)],
                                   [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(g: ChannelGraph, h: ChannelGraph) -> ChannelGraph:
    """Tagged union of vertex sets; edges are those internal to either graph.

    Labels of ``h`` that clash with labels of ``g`` get a prime suffix.
    """
    taken = set(g.labels)
    h_labels = []
    for lab in h.labels:
        while lab in taken:
            lab = lab + "'"
        taken.add(lab)
        h_labels.append(lab)
    off = g.vertex_count
    edges = g.edges() + [(u + off, v + off) for u, v in h.edges()]
    return ChannelGraph.from_edges(list(g.labels) + h_labels, edges)


def strong_product(g: ChannelGraph, h: ChannelGraph) -> ChannelGraph:
    """AND product: coordinates pairwise adjacent-or-equal, pairs distinct.

    Vertex (v, w) gets index v * |V(h)| + w (row-major), so witnesses are
    reproducible.
    """
    nh = h.vertex_count
    labels = tuple(f"{a},{b}" for a in g.labels for b in h.labels)
    if len(set(labels)) != len(labels):  # labels with commas can collide
        raise ValueError("vertex labels must be unique")
    h_closed = [m | 1 << w for w, m in enumerate(h.neighbor_masks)]
    masks = []
    for v, m in enumerate(g.neighbor_masks):
        # one bit at the start of the block of each v2 adjacent-or-equal to v;
        # times a closed h-neighbourhood (< 2**nh) it fills those blocks
        blocks = 0
        for v2 in _bits(m | 1 << v):
            blocks |= 1 << (nh * v2)
        masks.extend((blocks * hc) ^ (1 << (v * nh + w))
                     for w, hc in enumerate(h_closed))
    return ChannelGraph(labels, tuple(masks))


def strong_power(g: ChannelGraph, l: int, max_vertices: int = 1_000_000) -> ChannelGraph:
    """l-fold iterated strong product of g with itself."""
    if l < 1:
        raise ValueError("strong power exponent must be >= 1")
    _check_power_size(g, l, max_vertices)
    out = g
    for _ in range(l - 1):
        out = strong_product(out, g)
    return out


def _check_power_size(g: ChannelGraph, l: int, max_vertices: int) -> None:
    if g.vertex_count ** l > max_vertices:
        raise BudgetExceededError(
            f"strong power has {g.vertex_count ** l} vertices, budget is {max_vertices}")


def induced_subgraph(g: ChannelGraph, keep: Sequence[int]) -> tuple[ChannelGraph, list[int]]:
    """Subgraph on the given vertices, with the sorted list ``keep`` of their
    old indices: old vertex keep[i] becomes vertex i."""
    keep = sorted(set(int(v) for v in keep))
    if keep and not (0 <= keep[0] and keep[-1] < g.vertex_count):
        raise ValueError(f"vertex out of range for {g.vertex_count} vertices")
    new = {v: i for i, v in enumerate(keep)}
    kept = sum(1 << v for v in keep)
    masks = tuple(sum(1 << new[u] for u in _bits(g.neighbor_masks[v] & kept)) for v in keep)
    return ChannelGraph(tuple(g.labels[v] for v in keep), masks), keep


def is_automorphism(g: ChannelGraph, perm: Sequence[int]) -> bool:
    n = g.vertex_count
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        return False
    bit = [1 << p for p in perm]
    return all(sum(bit[v] for v in _bits(m)) == g.neighbor_masks[p]
               for m, p in zip(g.neighbor_masks, perm))


def lift_automorphisms(perms: Sequence, l: Optional[int] = None) -> list[tuple[int, ...]]:
    """Automorphisms of a strong product from automorphisms of its factors.

    ``perms`` lists, factor by factor, automorphisms of each factor of the
    product as strong_product builds it (left to right); given ``l``, it is
    instead the automorphisms of one factor, and the product is its l-th
    strong power.  Each factor automorphism is applied to its own coordinate
    (a mixed-radix digit of the row-major index), which preserves
    adjacency-or-equality in every coordinate.  When each factor's
    automorphisms act transitively on it, the lifts act transitively on the
    product.  A factor's size is read from its automorphisms, so none may be
    given without any.
    """
    factors = [perms] * l if l is not None else perms
    if not all(factors):
        raise ValueError("every factor needs at least one automorphism")
    sizes = [len(f[0]) for f in factors]
    total = stride = math.prod(sizes)
    out = []
    for f, n in zip(factors, sizes):
        stride //= n
        for p in f:
            out.append(tuple(v + stride * (p[v // stride % n] - v // stride % n)
                             for v in range(total)))
    return out


def cycle_power_symmetries(n: int, l: int) -> list[tuple[int, ...]]:
    """Coordinate-rotation automorphisms of strong_power(cycle(n), l).

    One permutation per coordinate; together they act transitively on the
    vertex set (every digit tuple reaches every other), which licenses the
    symmetry reduction in independence_number.
    """
    return lift_automorphisms([tuple((v + 1) % n for v in range(n))], l)


def coordinate_swaps(factors: Sequence[ChannelGraph]) -> list[tuple[int, ...]]:
    """Automorphisms of the strong product of ``factors`` (built left to
    right) that swap two neighbouring coordinates whose factors are equal.

    Each exchanges two mixed-radix digits of the row-major index, so each
    fixes vertex 0, whose digits are all 0.
    """
    sizes = [f.vertex_count for f in factors]
    total = math.prod(sizes)
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    out = []
    for i in range(len(factors) - 1):
        if factors[i] == factors[i + 1]:
            hi, lo, n = strides[i], strides[i + 1], sizes[i]
            out.append(tuple(v + (v // lo % n - v // hi % n) * (hi - lo)
                             for v in range(total)))
    return out


def connected_components(g: ChannelGraph) -> list[list[int]]:
    """Vertex lists of the connected components of g, ordered by least vertex.

    Each list is in breadth-first order from the component's least vertex,
    neighbours taken in increasing order.
    """
    comps: list[list[int]] = []
    placed = 0
    for root in range(g.vertex_count):
        if placed >> root & 1:
            continue
        placed |= 1 << root
        comp = [root]
        for u in comp:  # grows while it is walked
            m = g.neighbor_masks[u] & ~placed
            placed |= m
            comp.extend(_bits(m))
        comps.append(comp)
    return comps


# at most about 0.3 s on a 2-core x86 VM under Python 3.11; a factor the
# search cannot decide in that many assignments gets the plain search
_AUTOMORPHISM_STEPS = 20_000


def transitive_automorphisms(g: ChannelGraph) -> Optional[list[tuple[int, ...]]]:
    """Automorphisms of g that act transitively on its vertices, or None.

    For each vertex t not yet in the orbit of vertex 0, a backtracking search
    looks for an automorphism taking 0 to t.  It assigns images in
    breadth-first order and keeps only images of the same degree whose
    adjacency to every assigned image matches.  None means g is not
    vertex-transitive, or the search made _AUTOMORPHISM_STEPS assignments
    without deciding; either way callers fall back to a search without
    symmetry.
    """
    n = g.vertex_count
    masks = g.neighbor_masks
    # breadth-first, one component after another, so that most vertices are
    # adjacent to one assigned before them, which narrows their images
    order = [v for comp in connected_components(g) for v in comp]
    position = {v: i for i, v in enumerate(order)}
    steps = 0

    def image_of_order(t: int) -> Optional[list[int]]:
        nonlocal steps
        image: list[int] = []
        used = 0
        # per position: untried images, and the images of its neighbours
        # assigned before it (a valid image has the same degree and is
        # adjacent to exactly those among the images used so far)
        untried = [[1 << t, 0]]
        while untried:
            cand, want = untried[-1]
            if not cand:
                untried.pop()
                if image:
                    used ^= 1 << image.pop()
                continue
            lsb = cand & -cand
            untried[-1][0] ^= lsb
            w = lsb.bit_length() - 1
            u = order[len(image)]
            if masks[w] & used != want or masks[w].bit_count() != masks[u].bit_count():
                continue
            steps += 1
            if steps > _AUTOMORPHISM_STEPS:
                return None
            image.append(w)
            used |= lsb
            if len(image) == n:
                return image
            cand = ((1 << n) - 1) & ~used
            want = 0
            for v in _bits(masks[order[len(image)]]):
                i = position[v]
                if i < len(image):
                    want |= 1 << image[i]
                    cand &= masks[image[i]]
            untried.append([cand, want])
        return None

    perms: list[tuple[int, ...]] = []
    orbit = {0}
    for t in range(n):
        if t in orbit:
            continue
        image = image_of_order(t)
        if image is None:
            return None
        perm = [0] * n
        for x, y in zip(order, image):
            perm[x] = y
        if not is_automorphism(g, perm):
            raise AssertionError("automorphism search built a non-automorphism")
        perms.append(tuple(perm))
        orbit = _orbit(perms, 0)
    return perms


def _orbit(perms: Sequence[Sequence[int]], v: int) -> set[int]:
    """Orbit of v under the group that ``perms`` generate."""
    reach = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for p in perms:
            if p[u] not in reach:
                reach.add(p[u])
                stack.append(p[u])
    return reach


def distinguishable(g: ChannelGraph, a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether two words can never be confused over any channel with graph g.

    Only the length of the shorter word matters; positions are compared under
    the auto-adjacency convention (equal letters are always confusable).
    """
    a, b = tuple(int(x) for x in a), tuple(int(x) for x in b)
    if not a or not b:
        raise ValueError("words must be non-empty")
    if len(a) > len(b):
        raise ValueError("expected |a| <= |b|")
    if not (g.word_in_range(a) and g.word_in_range(b)):
        raise ValueError("word contains out-of-range vertex index")
    return any(x != y and not g.has_edge(x, y) for x, y in zip(a, b))


@dataclass
class IndependenceResult:
    alpha: int
    witness: tuple[int, ...]
    exact: bool
    nodes: int = 0


def _greedy_independent_set(masks: Sequence[int], cand: int) -> list[int]:
    """An independent set within ``cand``, taking low degrees inside it first."""
    order = sorted(_bits(cand), key=lambda v: ((masks[v] & cand).bit_count(), v))
    chosen = []
    blocked = 0
    for v in order:
        if not blocked >> v & 1:
            chosen.append(v)
            blocked |= masks[v] | (1 << v)
    return chosen


def _clique_cover(masks: Sequence[int], cand: int) -> list[int]:
    """Greedy partition of the candidate set into cliques, one class at a time.

    Each class takes the lowest remaining candidate, then again and again the
    lowest candidate adjacent to all members so far (``q &= masks[v]``).  That
    is the partition a scan in increasing index order gives when it puts each
    vertex into the first class whose members are all its neighbours, so it
    depends on the numbering.  Returns the class masks in order; a vertex in
    class k certifies that once only classes 1..k remain, at most k
    independent vertices can still be picked.
    """
    classes = []
    while cand:
        cls = 0
        q = cand
        while q:
            lsb = q & -q
            cls |= lsb
            q &= masks[lsb.bit_length() - 1]
        cand ^= cls
        classes.append(cls)
    return classes


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a mask, lowest first."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _degeneracy_order(masks: Sequence[int], cand: int) -> list[int]:
    """The vertices of ``cand``, last peeled first, when the vertex with the
    most neighbours among those left is peeled again and again; ties go to
    more neighbours in all of ``cand``, then to the lower index."""
    n = cand.bit_length()
    # in base n, the digits of a key: neighbours left, neighbours in cand, n-1-v
    key = {v: (masks[v] & cand).bit_count() * (n * n + n) + n - 1 - v for v in _bits(cand)}
    peeled = []
    while key:
        v = max(key, key=key.get)
        del key[v]
        peeled.append(v)
        cand ^= 1 << v
        for u in _bits(masks[v] & cand):
            key[u] -= n * n
    return peeled[::-1]


class _Budget(Exception):
    pass


class _Reached(Exception):
    pass


def _search(masks: Sequence[int], cand: int, prefix: list[int], lower: int,
            node_budget: float, upper_bound: Optional[int] = None,
            orbits: Optional[dict[int, int]] = None) -> IndependenceResult:
    """Branch and bound for an independent set larger than ``lower`` that
    extends the independent ``prefix`` by vertices of the mask ``cand``, none
    of them adjacent to the prefix.

    Each node bounds its candidates by a greedy clique cover in the
    _degeneracy_order of ``cand``, which node counts depend on and proven
    values do not.  The search ends when it has refuted every larger set
    (exact), when its incumbent reaches ``upper_bound`` (exact, the caller's
    bound being proven), or after ``node_budget`` nodes (not exact).  The
    first incumbent is the prefix and a greedy set in ``cand``; ``lower`` may
    exceed its size when it is a value known without a witness, and then
    stays the result unless the search beats it.

    ``orbits`` maps each candidate to the mask of its orbit under
    automorphisms of the graph that fix the prefix; the root then branches
    on one vertex per orbit.  After the branch that takes v, the branches
    still to come exclude all of v's orbit: a larger set that meets the
    orbit maps onto one that takes v.
    """
    best_set = sorted(prefix + _greedy_independent_set(masks, cand))
    best = max(lower, len(best_set))
    if not cand:
        return IndependenceResult(best, tuple(best_set), True, 0)
    if upper_bound is None:
        upper_bound = len(prefix) + cand.bit_count() + 1  # never reached
    order = _degeneracy_order(masks, cand)
    new_bit = {v: 1 << i for i, v in enumerate(order)}
    local = [sum(new_bit[u] for u in _bits(masks[v] & cand)) for v in order]
    if orbits:
        orbits = [sum(new_bit[u] for u in _bits(orbits[v])) for v in order]
    nodes = 0

    def expand(cand: int, chosen: list[int],
               orbit_of: Optional[list[int]] = None) -> None:
        # chosen is in the caller's numbering, cand in the search's;
        # orbit_of, given at the root only, drops each orbit after its branch
        nonlocal best, best_set, nodes
        nodes += 1
        if nodes > node_budget:
            raise _Budget
        if best >= upper_bound:
            raise _Reached
        classes = _clique_cover(local, cand)
        size = len(chosen)
        # best only grows, so the classes k <= best - size are never branched on
        for k in range(len(classes), best - size, -1):
            cls = classes[k - 1]
            while cls:
                v = cls.bit_length() - 1
                cls ^= 1 << v
                if not cand >> v & 1:  # dropped with an orbit
                    continue
                if size + k <= best:
                    return
                cand ^= 1 << v
                chosen.append(order[v])
                if size + 1 > best:
                    best = size + 1
                    best_set = sorted(chosen)
                    if best >= upper_bound:
                        raise _Reached
                sub = cand & ~local[v]
                if sub:
                    expand(sub, chosen)
                chosen.pop()
                if orbit_of:
                    cand &= ~orbit_of[v]

    exact = True
    try:
        expand((1 << len(order)) - 1, list(prefix), orbits)
    except _Budget:
        exact = False
    except _Reached:
        pass
    return IndependenceResult(best, tuple(best_set), exact, nodes)


def _checked_seed(g: ChannelGraph, seed_witness: Optional[Sequence[int]]) -> list[int]:
    """``seed_witness`` sorted, once it is checked to be an independent set
    of g; an empty list for None."""
    seed = sorted(int(v) for v in seed_witness or ())
    blocked = 0
    for v in seed:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"seed vertex {v} is out of range for "
                             f"{g.vertex_count} vertices")
        if blocked >> v & 1:
            raise ValueError("seed witness is not an independent set")
        blocked |= g.neighbor_masks[v] | (1 << v)
    return seed


# independence_number refines the witness of an exact search of a graph this
# small to the lexicographically least maximum independent set
_LEXMIN_MAX_VERTICES = 100


def independence_number(g: ChannelGraph,
                        node_budget: int = 10 ** 8,
                        seed_witness: Optional[Sequence[int]] = None,
                        transitive_symmetries: Optional[Sequence[Sequence[int]]] = None,
                        upper_bound: Optional[int] = None) -> IndependenceResult:
    """Exact maximum independent set by branch-and-bound with bitset masks.

    The bound is a greedy clique cover in a degeneracy order (_search), which
    node counts depend on and proven values do not.  On budget exhaustion the
    best incumbent is returned with ``exact=False``.  An exact search of a
    graph of at most 100 vertices without ``transitive_symmetries`` returns
    the lexicographically least maximum independent set.

    ``transitive_symmetries`` takes permutations that are verified to be
    automorphisms acting transitively on the vertices; then some maximum
    independent set contains vertex 0, so the search is restricted to its
    non-neighbors, typically shrinking the tree by the orbit factor; it
    takes no ``seed_witness``.

    ``upper_bound`` is a proven bound alpha(g) <= upper_bound, such as a
    section bound; the search stops once its incumbent reaches it, and the
    result is then exact.  It is taken on trust: a wrong bound gives a
    wrong answer.
    """
    n = g.vertex_count
    if n == 0:
        return IndependenceResult(0, (), True, 0)
    perms = None
    if transitive_symmetries is not None:
        if seed_witness is not None:
            raise ValueError("give seed_witness or transitive_symmetries, not both")
        perms = [tuple(int(x) for x in p) for p in transitive_symmetries]
        for p in perms:
            if not is_automorphism(g, p):
                raise ValueError("symmetry is not a graph automorphism")
    res = _alpha(g, perms, node_budget, 0, upper_bound, seed=_checked_seed(g, seed_witness))
    if perms is None and res.exact and n <= _LEXMIN_MAX_VERTICES:
        res.witness = tuple(_lexmin_refine(g.neighbor_masks, n, res.alpha))
    return res


def _alpha(g: ChannelGraph, perms: Optional[Sequence[Sequence[int]]],
           node_budget: float, lower: int = 0, upper_bound: Optional[int] = None,
           swaps: Sequence[Sequence[int]] = (), seed: Sequence[int] = ()) -> IndependenceResult:
    """The one search behind every alpha: with vertex 0 fixed when ``perms``
    are automorphisms acting transitively on g (_alpha_by_transitivity,
    which alone takes ``swaps``), over all of g otherwise.  The result is at
    least ``lower`` and the length of the independent ``seed``, which is its
    witness unless the search beats it.
    """
    lower = max(lower, len(seed))
    if perms is None:
        res = _search(g.neighbor_masks, (1 << g.vertex_count) - 1, [], lower,
                      node_budget, upper_bound)
    else:
        res = _alpha_by_transitivity(g, perms, node_budget, lower, upper_bound, swaps)
    if len(res.witness) < len(seed):
        res.witness = tuple(seed)
    return res


def cover_weight(g: ChannelGraph, transitive: bool,
                 node_budget: int = 10 ** 8) -> tuple[Fraction, int]:
    """The weight of a fractional clique cover of g, at least its fractional
    clique cover number, and the branch-and-bound nodes spent finding it.

    For a vertex-transitive g (``transitive``) that number is |V|/omega(g),
    with omega the independence number of the complement, searched exactly;
    a search cut by ``node_budget`` gives a smaller omega and so still a
    valid, weaker weight.  Otherwise the weight is the number of classes of
    the greedy clique cover of all vertices, an integral cover.
    """
    n = g.vertex_count
    if not transitive:
        return Fraction(len(_clique_cover(g.neighbor_masks, (1 << n) - 1))), 0
    full = (1 << n) - 1
    co = ChannelGraph(g.labels, tuple(full & ~m & ~(1 << v)
                                      for v, m in enumerate(g.neighbor_masks)))
    omega = _alpha(co, None, node_budget)
    return Fraction(n, omega.alpha), omega.nodes


def section_bound(weight: Fraction, alpha_rest: int) -> int:
    """floor(weight * alpha_rest), a bound on alpha(F boxtimes H).

    ``weight`` is that of a fractional clique cover of F and ``alpha_rest``
    is at least alpha(H).  The sections of an independent set of F boxtimes
    H over the vertices of one clique of F are jointly independent in H, so
    their sizes sum to at most alpha(H); weighting the cliques of the cover
    and summing gives the bound (Shannon, 1956).
    """
    return weight.numerator * alpha_rest // weight.denominator


def cycle_product_independence(n: int, h: ChannelGraph,
                               node_budget: int = 10 ** 8,
                               seed_witness: Optional[Sequence[int]] = None) -> IndependenceResult:
    """alpha of cycle(n) boxtimes h, searched up to the section bound
    floor(w alpha(h)), with w = cover_weight(cycle(n)): n/2, or 1 for the
    triangle.  A seed of that size ends the product search at its root.
    When transitive_automorphisms finds automorphisms of h, both
    searches fix vertex 0, the product's by the lifts of the rotation of
    cycle(n) and of h's automorphisms.
    """
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    c = cycle(n)
    product = strong_product(c, h)
    seed = _checked_seed(product, seed_witness)
    perms = transitive_automorphisms(h) or None
    rh = _alpha(h, perms, node_budget)
    weight, spent = cover_weight(c, True, node_budget - rh.nodes)
    spent += rh.nodes
    lifts = lift_automorphisms([cycle_power_symmetries(n, 1), perms]) if perms else None
    res = _alpha(product, lifts, node_budget - spent, 0,
                 section_bound(weight, rh.alpha) if rh.exact else None, seed=seed)
    res.nodes += spent
    return res


def _alpha_by_transitivity(g: ChannelGraph, perms: Sequence[Sequence[int]],
                           node_budget: float, lower: int = 0,
                           upper_bound: Optional[int] = None,
                           swaps: Sequence[Sequence[int]] = ()) -> IndependenceResult:
    """Fix vertex 0 in the solution; ``perms`` must be automorphisms of g.

    Callers verify them (independence_number) or build them as lifts of
    verified factor automorphisms (automata.channel_series_prefix).  Some
    maximum independent set then contains 0, so the search extends the
    prefix [0] by the non-neighbours of 0.  ``swaps`` are automorphisms
    that fix vertex 0 (coordinate_swaps); the root branches on one vertex
    per orbit of the group they generate.
    """
    n = g.vertex_count
    if len(_orbit(perms, 0)) != n:
        raise ValueError("symmetries do not act transitively on the vertices")
    root = (1 << n) - 1 & ~g.neighbor_masks[0] & ~1
    orbits = None
    if swaps:
        # the swaps fix 0, so they map its non-neighbours onto themselves
        orbits = {}
        for v in range(n):
            if root >> v & 1 and v not in orbits:
                members = _orbit(swaps, v)
                orbits.update(dict.fromkeys(members, sum(1 << w for w in members)))
    return _search(g.neighbor_masks, root, [0], lower, node_budget, upper_bound, orbits)


def _lexmin_refine(masks: Sequence[int], n: int, alpha: int) -> list[int]:
    """Lexicographically least maximum independent set, given exact alpha."""
    prefix: list[int] = []
    cand = (1 << n) - 1
    while len(prefix) < alpha:
        for v in _bits(cand):
            trial_cand = cand & ~masks[v] & ~(1 << v)
            # is there a maximum independent set that extends prefix + [v]?
            if _search(masks, trial_cand, prefix + [v], alpha - 1, math.inf, alpha).alpha == alpha:
                prefix.append(v)
                cand = trial_cand
                break
        else:
            raise AssertionError("lexmin refinement lost the optimum")
    return prefix


_NAMED = re.compile(r"^(C(?P<cyc>\d+)(?P<plus>\+1)?|K(?P<comp>\d+)|P(?P<pth>\d+))$")


def graph_by_name(name: str) -> ChannelGraph:
    """Built-in graphs addressable from the CLI: C<n>, C<n>+1, K<n>, P<n>."""
    m = _NAMED.match(name.strip())
    if not m:
        raise ValueError(f"unknown graph name {name!r}")
    if m.group("cyc"):
        g = cycle(int(m.group("cyc")))
        if m.group("plus"):
            # isolated vertex labelled 0, cycle relabelled 1..n
            n = int(m.group("cyc"))
            g = ChannelGraph.from_edges(
                [str(i) for i in range(n + 1)],
                [(1 + i, 1 + (i + 1) % n) for i in range(n)])
        return g
    if m.group("comp"):
        return complete(int(m.group("comp")))
    return path(int(m.group("pth")))
