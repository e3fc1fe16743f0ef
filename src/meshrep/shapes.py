"""Combinatorics of A_n quivers, posets, and the mesh category Z A_n.

The mesh category on n+2 levels is modelled as the poset of pairs (k, l),
0 <= l <= n+1, with (k, l) <= (k', l') iff k <= k' and k + l <= k' + l'.
Once all squares commute there is at most one morphism between two
vertices, so order-theoretic reachability captures the whole category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Element = object  # hashable labels; products use tuples


# ---------------------------------------------------------------------------
# finite posets presented by covering relations


class Poset:
    """Finite poset with named elements and explicit covering relations."""

    def __init__(self, elements: Sequence[Element], covers: Iterable[Tuple[Element, Element]],
                 name: str = "poset"):
        self.elements: Tuple[Element, ...] = tuple(elements)
        self.covers: Tuple[Tuple[Element, Element], ...] = tuple(covers)
        self.name = name
        idx = {e: i for i, e in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise ValueError("duplicate elements")
        for a, b in self.covers:
            if a not in idx or b not in idx:
                raise ValueError(f"cover {a}->{b} uses unknown element")
        self._index = idx
        self._leq_cache: Optional[Dict[Element, FrozenSet[Element]]] = None
        self._zero_reps: Dict[object, object] = {}  # field -> the shared Rep.zero over self

    def _up_sets(self) -> Dict[Element, FrozenSet[Element]]:
        if self._leq_cache is None:
            succ: Dict[Element, List[Element]] = {e: [] for e in self.elements}
            for a, b in self.covers:
                succ[a].append(b)
            order = self._topo_order(succ)
            up: Dict[Element, Set[Element]] = {}
            for e in reversed(order):
                s: Set[Element] = {e}
                for t in succ[e]:
                    s |= up[t]
                up[e] = s
            self._leq_cache = {e: frozenset(s) for e, s in up.items()}
        return self._leq_cache

    def _topo_order(self, succ) -> List[Element]:
        seen: Dict[Element, int] = {}
        out: List[Element] = []

        def visit(e, stack):
            state = seen.get(e, 0)
            if state == 1:
                raise ValueError("covers contain a cycle")
            if state == 2:
                return
            seen[e] = 1
            for t in succ[e]:
                visit(t, stack)
            seen[e] = 2
            out.append(e)

        for e in self.elements:
            visit(e, set())
        return out[::-1]

    def leq(self, a: Element, b: Element) -> bool:
        return b in self._up_sets()[a]

    def linear_extension(self) -> List[Element]:
        succ: Dict[Element, List[Element]] = {e: [] for e in self.elements}
        for a, b in self.covers:
            succ[a].append(b)
        return self._topo_order(succ)

    def opposite(self) -> "Poset":
        return Poset(self.elements, [(b, a) for a, b in self.covers], name=f"{self.name}^op")

    def product(self, other: "Poset", name: Optional[str] = None) -> "Poset":
        elems = [(a, b) for a in self.elements for b in other.elements]
        covers = [((a, b), (a2, b)) for (a, a2) in self.covers for b in other.elements]
        covers += [((a, b), (a, b2)) for a in self.elements for (b, b2) in other.covers]
        return Poset(elems, covers, name=name or f"{self.name}x{other.name}")

    def __contains__(self, e):
        return e in self._index

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({self.name}, {len(self.elements)} elements)"


def point_poset() -> Poset:
    return Poset([()], [], name="pt")


# ---------------------------------------------------------------------------
# line quivers


@dataclass(frozen=True)
class LineQuiver:
    """An orientation of the A_n line graph.

    orientation[i] is 'F' if the edge between vertices i+1 and i+2 points
    forward (i+1 -> i+2) and 'B' if it points backward.  Vertices are 1..n.
    """

    n: int
    orientation: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.orientation) != self.n - 1 or any(c not in "FB" for c in self.orientation):
            raise ValueError(f"orientation must be {self.n - 1} chars of F/B")

    @staticmethod
    def linear(n: int) -> "LineQuiver":
        return LineQuiver(n, "F" * (n - 1))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def arrows(self) -> List[Tuple[int, int]]:
        out = []
        for i, c in enumerate(self.orientation):
            u, v = i + 1, i + 2
            out.append((u, v) if c == "F" else (v, u))
        return out

    def neighbors(self, v: int) -> List[int]:
        return [w for w in (v - 1, v + 1) if 1 <= w <= self.n]

    def _check_vertex(self, v: int):
        if v not in self.vertices:
            raise ValueError(f"vertex {v} is not in 1..{self.n}")

    def is_sink(self, v: int) -> bool:
        self._check_vertex(v)
        return all(t == v for (s, t) in self.arrows() if v in (s, t))

    def is_source(self, v: int) -> bool:
        self._check_vertex(v)
        return all(s == v for (s, t) in self.arrows() if v in (s, t))

    def sinks(self) -> List[int]:
        return [v for v in self.vertices if self.is_sink(v)]

    def sources(self) -> List[int]:
        return [v for v in self.vertices if self.is_source(v)]

    def reflect(self, a: int) -> "LineQuiver":
        """Reverse the orientation of all edges adjacent to a (a sink or source)."""
        if not (self.is_sink(a) or self.is_source(a)):
            raise ValueError(f"vertex {a} is neither a sink nor a source")
        o = list(self.orientation)
        for i in (a - 2, a - 1):
            if 0 <= i < self.n - 1:
                o[i] = "F" if o[i] == "B" else "B"
        return LineQuiver(self.n, "".join(o))

    def reversed(self) -> "LineQuiver":
        """Mirror image: vertex v <-> n+1-v, arrow directions carried along."""
        return LineQuiver(self.n, self.orientation[::-1])

    def opposite(self) -> "LineQuiver":
        flipped = "".join("F" if c == "B" else "B" for c in self.orientation)
        return LineQuiver(self.n, flipped)

    def poset(self) -> Poset:
        """The path poset; one shared instance per orientation, as a Poset never changes."""
        p = _LINE_POSETS.get((self.n, self.orientation))
        if p is None:
            p = _LINE_POSETS[self.n, self.orientation] = Poset(
                list(self.vertices), self.arrows(), name=f"A{self.n}({self.orientation})")
        return p

    def __str__(self):
        return f"A{self.n}[{self.orientation}]"


_LINE_POSETS: Dict[Tuple[int, str], Poset] = {}


def all_orientations(n: int) -> List[LineQuiver]:
    return [LineQuiver(n, "".join(bits)) for bits in itertools.product("FB", repeat=n - 1)]


def admissible_sequence(q: LineQuiver) -> List[int]:
    """A total order of the vertices, each a sink of the successively reflected
    quiver.  Deterministic: always take the largest available sink."""
    seq: List[int] = []
    cur = q
    remaining = set(q.vertices)
    while remaining:
        cands = [v for v in cur.sinks() if v in remaining]
        if not cands:
            raise RuntimeError("no admissible sink found (should not happen)")
        a = max(cands)
        seq.append(a)
        remaining.discard(a)
        cur = cur.reflect(a)
    if cur != q:
        raise RuntimeError("admissible sequence did not return to the original quiver")
    return seq


def admissible_source_sequence(q: LineQuiver) -> List[int]:
    return admissible_sequence(q.opposite())


def is_admissible_sequence(q: LineQuiver, seq: Sequence[int]) -> bool:
    if sorted(seq) != list(q.vertices):
        return False
    cur = q
    for a in seq:
        if not cur.is_sink(a):
            return False
        cur = cur.reflect(a)
    return cur == q


# ---------------------------------------------------------------------------
# the mesh category


def check_level(n: int, l: int):
    if not 0 <= l <= n + 1:
        raise ValueError(f"level {l} out of band for n={n}")


def mesh_map_f(n: int, v: Tuple[int, int]) -> Tuple[int, int]:
    k, l = v
    check_level(n, l)
    return (k + l, n + 1 - l)


def mesh_map_t(n: int, v: Tuple[int, int]) -> Tuple[int, int]:
    k, l = v
    check_level(n, l)
    return (k - 1, l)


def mesh_map_s(n: int, v: Tuple[int, int]) -> Tuple[int, int]:
    k, l = v
    check_level(n, l)
    return (k + l - 1, n + 1 - l)


def mesh_map_f_inv(n: int, v: Tuple[int, int]) -> Tuple[int, int]:
    k, l = v
    check_level(n, l)
    # f(k', l') = (k, l) solves to l' = n+1-l, k' = k - (n+1-l)
    return (k - (n + 1 - l), n + 1 - l)


def mesh_leq(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] <= b[0] and a[0] + a[1] <= b[0] + b[1]


def boundary_between(n: int, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """True if every mesh morphism a -> b is zero because it factors through
    the vanishing boundary rows."""
    if not mesh_leq(a, b):
        return True
    for k in range(a[0], b[0] + 1):
        for l in (0, n + 1):
            if mesh_leq(a, (k, l)) and mesh_leq((k, l), b):
                return True
    return False


@dataclass(frozen=True)
class MeshWindow:
    """The finite slice of the mesh category with kmin <= k <= kmax."""

    n: int
    kmin: int
    kmax: int

    def __post_init__(self):
        if self.kmin > self.kmax:
            raise ValueError("empty window")

    def vertices(self) -> List[Tuple[int, int]]:
        return [(k, l) for k in range(self.kmin, self.kmax + 1) for l in range(self.n + 2)]

    def interior(self) -> List[Tuple[int, int]]:
        return [(k, l) for (k, l) in self.vertices() if 0 < l < self.n + 1]

    def __contains__(self, v: Tuple[int, int]) -> bool:
        k, l = v
        return self.kmin <= k <= self.kmax and 0 <= l <= self.n + 1

    def covers(self) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
        out = []
        for v in self.vertices():
            k, l = v
            if l + 1 <= self.n + 1:
                out.append((v, (k, l + 1)))
            if l - 1 >= 0 and k + 1 <= self.kmax:
                out.append((v, (k + 1, l - 1)))
        return out

    def poset(self) -> Poset:
        return Poset(self.vertices(), self.covers(),
                     name=f"M{self.n}[{self.kmin},{self.kmax}]")

    def squares(self) -> List[Tuple[Tuple[int, int], ...]]:
        """All complete diamonds (left, top, bottom, right) in the window."""
        out = []
        for k in range(self.kmin, self.kmax):
            for l in range(1, self.n + 1):
                out.append(((k, l), (k, l + 1), (k + 1, l - 1), (k + 1, l)))
        return out


def default_window(n: int, domains: int = 1) -> MeshWindow:
    """Window [-1, n+2] extended by (domains-1) extra fundamental domains."""
    return MeshWindow(n, -1, n + 2 + (domains - 1) * (n + 1))


# ---------------------------------------------------------------------------
# embeddings of line quivers into the mesh


def embedding_columns(q: LineQuiver) -> Dict[int, int]:
    """Canonical column k_v for each vertex: the vertex on level n goes to
    column 0 and k_v = k_{v+1} + 1 across each backward edge."""
    k = {q.n: 0}
    for v in range(q.n - 1, 0, -1):
        back = q.orientation[v - 1] == "B"
        k[v] = k[v + 1] + (1 if back else 0)
    return k


def embed_iQ(q: LineQuiver) -> Dict[int, Tuple[int, int]]:
    """Canonical level-respecting embedding of q into the mesh on n levels."""
    cols = embedding_columns(q)
    return {v: (cols[v], v) for v in q.vertices}


def is_valid_embedding(q: LineQuiver, emb: Dict[int, Tuple[int, int]]) -> bool:
    """Arrows of q must land on mesh arrows; levels are the vertex indices."""
    for v in q.vertices:
        if emb[v][1] != v:
            return False
    for (u, v) in q.arrows():
        ku, lu = emb[u]
        kv, lv = emb[v]
        if lv == lu + 1 and kv != ku:  # up arrow
            return False
        if lv == lu - 1 and kv != ku + 1:  # down arrow
            return False
    return True


def reflection_embeddings(q: LineQuiver, a: int) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, int]]]:
    """Embeddings (i_Q, i_Q') for the reflection at a sink a: they agree off a
    and send a to adjacent columns.  i_Q is the canonical embedding; i_Q' is
    canonical for all sinks a < n and a t-translate of the canonical one when
    a = n (no global section satisfies the compatibility at the top vertex)."""
    if not q.is_sink(a):
        raise ValueError(f"{a} is not a sink")
    emb = embed_iQ(q)
    emb2 = dict(emb)
    k, l = emb[a]
    emb2[a] = (k - 1, l)
    if not is_valid_embedding(q.reflect(a), emb2):
        raise RuntimeError("reflected embedding invalid (bug)")
    return emb, emb2


def satisfies_rel_embed(q: LineQuiver, a: int, emb_q: Dict[int, Tuple[int, int]],
                        emb_q2: Dict[int, Tuple[int, int]]) -> bool:
    for v in q.vertices:
        if v == a:
            k, l = emb_q[a]
            if emb_q2[a] != (k - 1, l):
                return False
        elif emb_q2[v] != emb_q[v]:
            return False
    return True


def reflection_path(src: LineQuiver, dst: LineQuiver) -> List[int]:
    """Shortest sequence of sink reflections turning src into dst (BFS,
    smallest sink first for determinism)."""
    if src.n != dst.n:
        raise ValueError("vertex count mismatch")
    if src == dst:
        return []
    frontier = {src.orientation: []}
    seen = {src.orientation}
    while frontier:
        nxt: Dict[str, List[int]] = {}
        for orient, path in sorted(frontier.items()):
            quiv = LineQuiver(src.n, orient)
            for a in sorted(quiv.sinks()):
                r = quiv.reflect(a)
                if r.orientation == dst.orientation:
                    return path + [a]
                if r.orientation not in seen:
                    seen.add(r.orientation)
                    nxt[r.orientation] = path + [a]
        frontier = nxt
    raise RuntimeError("orientations not connected by reflections (should not happen)")


# ---------------------------------------------------------------------------
# the symmetry group G_n = < f, t | ft = tf, f^2 = t^-(n+1) >


@dataclass(frozen=True)
class SymmetryElem:
    """Normal form t^a f^b with b in {0, 1}."""

    n: int
    a: int = 0
    b: int = 0

    def __post_init__(self):
        if self.b not in (0, 1):
            raise ValueError("f-parity must be 0 or 1")

    @staticmethod
    def identity(n: int) -> "SymmetryElem":
        return SymmetryElem(n)

    @staticmethod
    def f(n: int) -> "SymmetryElem":
        return SymmetryElem(n, 0, 1)

    @staticmethod
    def t(n: int) -> "SymmetryElem":
        return SymmetryElem(n, 1, 0)

    @staticmethod
    def s(n: int) -> "SymmetryElem":
        return SymmetryElem(n, 1, 1)

    def __mul__(self, other: "SymmetryElem") -> "SymmetryElem":
        if self.n != other.n:
            raise ValueError("mixing symmetry groups")
        a = self.a + other.a
        b = self.b + other.b
        if b >= 2:
            a -= self.n + 1  # f^2 = t^-(n+1)
            b -= 2
        return SymmetryElem(self.n, a, b)

    def inverse(self) -> "SymmetryElem":
        if self.b == 0:
            return SymmetryElem(self.n, -self.a, 0)
        # (t^a f)^-1 = f^-1 t^-a = f t^(n+1) t^-a
        return SymmetryElem(self.n, self.n + 1 - self.a, 1)

    def power(self, m: int) -> "SymmetryElem":
        out = SymmetryElem.identity(self.n)
        base = self if m >= 0 else self.inverse()
        for _ in range(abs(m)):
            out = out * base
        return out

    def apply(self, v: Tuple[int, int]) -> Tuple[int, int]:
        for _ in range(self.b):
            v = mesh_map_f(self.n, v)
        return (v[0] - self.a, v[1])

    def __str__(self):
        return f"t^{self.a}" + ("·f" if self.b else "")


def group_mul(x: SymmetryElem, y: SymmetryElem, n: Optional[int] = None) -> SymmetryElem:
    """Multiplication in G_n in normal form."""
    if n is not None and (x.n != n or y.n != n):
        raise ValueError("group elements for a different n")
    return x * y


def group_normal_form(n: int, t_exp: int, f_exp: int) -> SymmetryElem:
    """Normal form of t^a f^b under f^2 = t^-(n+1)."""
    return SymmetryElem(n, t_exp, 0) * SymmetryElem.f(n).power(f_exp)


def group_structure(n: int) -> str:
    """Abstract isomorphism type of G_n."""
    return "Z + Z/2" if n % 2 == 1 else "Z"


def group_generator_check(n: int) -> bool:
    """For even n the single generator is f·t^(n/2); verify it generates."""
    if n % 2 == 1:
        u = SymmetryElem(n, (n + 1) // 2, 1)
        return (u * u) == SymmetryElem.identity(n)
    g = SymmetryElem(n, n // 2, 1)
    return (g * g) == SymmetryElem(n, -1, 0) and g.power(n + 1) == SymmetryElem.f(n)


# ---------------------------------------------------------------------------
# twisted arrow categories, sieves and cosieves


@dataclass(frozen=True)
class TwistedArrowCategory:
    poset: Poset

    @property
    def objects(self) -> List[Tuple[Element, Element]]:
        return [(a, b) for a in self.poset.elements for b in self.poset.elements
                if self.poset.leq(a, b)]

    def source(self, ob: Tuple[Element, Element]) -> Element:
        return ob[0]

    def target(self, ob: Tuple[Element, Element]) -> Element:
        return ob[1]


def twisted_arrow(p: Poset) -> TwistedArrowCategory:
    return TwistedArrowCategory(p)


def sieve_of_diagonal(q: LineQuiver) -> Set[Tuple[int, int]]:
    """Pairs (a, b) with a <= b in the path order: the support of D_Q."""
    p = q.poset()
    return {(a, b) for a in q.vertices for b in q.vertices if p.leq(a, b)}


def cosieve_of_diagonal(q: LineQuiver) -> Set[Tuple[int, int]]:
    """Pairs (a, b) with b <= a in the path order: the support of I_Q."""
    p = q.poset()
    return {(a, b) for a in q.vertices for b in q.vertices if p.leq(b, a)}


# ---------------------------------------------------------------------------
# functoriality of the mesh construction in monotone maps A_m -> A_n


def _alpha_hat(m: int, n: int, alpha: Dict[int, int]) -> Callable[[int], int]:
    def tilde(i: int) -> int:
        if i == 0:
            return 0
        return alpha[i]

    def hat(x: int) -> int:
        q, i = divmod(x, m + 1)
        return tilde(i) + (n + 1) * q

    return hat


def induced_alpha(m: int, n: int, alpha: Dict[int, int]) -> Callable[[Tuple[int, int]], Tuple[int, int]]:
    """The map M_m -> M_n induced by a monotone alpha: {1..m} -> {1..n}.

    Arc model: a vertex (k, l) corresponds to the arc (k, k+l) in Z; alpha is
    extended (n+1)-periodically and applied to both endpoints.  This is the
    unique choice compatible with the embedding squares, boundary
    preservation, and f-equivariance.
    """
    if sorted(alpha.keys()) != list(range(1, m + 1)):
        raise ValueError("alpha must be defined on 1..m")
    vals = [alpha[i] for i in range(1, m + 1)]
    if any(not 1 <= v <= n for v in vals) or any(a > b for a, b in zip(vals, vals[1:])):
        raise ValueError("alpha must be monotone into 1..n")
    hat = _alpha_hat(m, n, alpha)

    def push(v: Tuple[int, int]) -> Tuple[int, int]:
        k, l = v
        check_level(m, l)
        return (hat(k), hat(k + l) - hat(k))

    return push
