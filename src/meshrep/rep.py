"""Finite-dimensional representations of line quivers and product shapes.

A Rep assigns a dimension to every element of a finite poset shape and a
matrix to every covering relation, with all parallel composites equal.  Over
line quivers we get interval decomposition (one sweep along the line that
reduces the structure maps arrow by arrow, as in zigzag persistence, with the
generalized rank lim -> colim as its test oracle), hom and Ext^1 spaces, and
the standard projective / injective / simple families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .linalg import (FieldSpec, Matrix, complement_columns, inverse, invertible_member,
                     kernel_basis, rref, solve, split_vector, sylvester_system)
from .shapes import Element, LineQuiver, Poset

Cover = Tuple[Element, Element]


class Rep:
    """A functor from a finite poset shape into f.d. vector spaces.

    Immutable: only the constructor writes dims and mats, which lets zero reps
    and the zero blocks of missing covers be shared."""

    def __init__(self, shape: Poset, field: FieldSpec, dims: Dict[Element, int],
                 mats: Dict[Cover, Matrix], validate: bool = True):
        self.shape = shape
        self.field = field
        self.dims = {e: int(dims.get(e, 0)) for e in shape.elements}
        self.mats = {}
        for cov in shape.covers:
            a, b = cov
            m = mats.get(cov)
            if m is None:
                m = Matrix.zeros(field, self.dims[b], self.dims[a])
            if (m.nrows, m.ncols) != (self.dims[b], self.dims[a]):
                raise ValueError(f"map on {cov} has shape {m.nrows}x{m.ncols}, "
                                 f"expected {self.dims[b]}x{self.dims[a]}")
            self.mats[cov] = m
        if validate:
            self.validate()

    # -- structure -------------------------------------------------------

    def dim(self, e: Element) -> int:
        return self.dims[e]

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def path_map(self, a: Element, b: Element) -> Matrix:
        """The composite along a monotone path a -> b: from each element the
        first cover that stays below b.  Every path gives the same composite,
        as a Rep commutes."""
        if not self.shape.leq(a, b):
            raise ValueError(f"no morphism {a} -> {b}")
        if a == b:
            return Matrix.identity(self.field, self.dims[a])
        if (a, b) in self.mats:
            return self.mats[(a, b)]
        out, e = None, a
        while e != b:
            cov = next((u, v) for (u, v) in self.shape.covers if u == e and self.shape.leq(v, b))
            out = self.mats[cov] if out is None else self.mats[cov] @ out
            e = cov[1]
        return out

    def validate(self):
        """Check commutativity: composites are path-independent."""
        succ: Dict[Element, List[Element]] = {}
        for (u, v) in self.shape.covers:
            succ.setdefault(u, []).append(v)
        order = self.shape.linear_extension()
        for a in self.shape.elements:
            if self.dims[a] == 0:
                continue
            reached: Dict[Element, Matrix] = {a: Matrix.identity(self.field, self.dims[a])}
            for e in order:
                if e not in reached:
                    continue
                for v in succ.get(e, []):
                    m = self.mats[(e, v)] @ reached[e]
                    if v in reached:
                        if reached[v] != m:
                            raise ValueError(f"commutativity fails between {a} and {v}")
                    else:
                        reached[v] = m

    def is_zero(self) -> bool:
        return not any(self.dims.values())  # dims are never negative

    def __eq__(self, other):
        return (isinstance(other, Rep) and self.shape.elements == other.shape.elements
                and self.dims == other.dims and self.mats == other.mats)

    def __repr__(self):
        return f"Rep({self.shape.name}, dims={[self.dims[e] for e in self.shape.elements]})"

    # -- constructions -----------------------------------------------------

    @staticmethod
    def zero(shape: Poset, field: FieldSpec) -> "Rep":
        """The zero rep; one shared instance per shape instance and field."""
        z = shape._zero_reps.get(field)
        if z is None:
            z = shape._zero_reps[field] = Rep(shape, field, {}, {}, validate=False)
        return z

    def direct_sum(self, other: "Rep") -> "Rep":
        if self.shape is not other.shape and (self.shape.elements != other.shape.elements
                                              or set(self.shape.covers) != set(other.shape.covers)):
            raise ValueError("shape mismatch")
        dims = {e: self.dims[e] + other.dims[e] for e in self.shape.elements}
        mats = {}
        for cov in self.shape.covers:
            a, b = cov
            mats[cov] = Matrix.block(
                self.field,
                [[self.mats[cov], None], [None, other.mats[cov]]],
                [self.dims[b], other.dims[b]], [self.dims[a], other.dims[a]])
        return Rep(self.shape, self.field, dims, mats, validate=False)

    def dual(self, target_shape: Optional[Poset] = None) -> "Rep":
        """Linear dual over the opposite shape (maps transposed)."""
        opp = target_shape if target_shape is not None else self.shape.opposite()
        mats = {}
        for (a, b), m in self.mats.items():
            mats[(b, a)] = m.transpose()
        return Rep(opp, self.field, dict(self.dims), mats, validate=False)


def direct_sum(reps: Sequence[Rep], shape: Poset, field: FieldSpec) -> Rep:
    """The sum of reps over shape, one block-diagonal matrix per cover; zero
    summands add nothing and a single nonzero one is returned itself."""
    reps = [r for r in reps if not r.is_zero()]
    if len(reps) < 2:
        return reps[0] if reps else Rep.zero(shape, field)
    diagonal = range(len(reps))
    mats = {(a, b): Matrix.block(field, [[r.mats[(a, b)] if k == n else None for n in diagonal]
                                         for k, r in enumerate(reps)],
                                 [r.dims[b] for r in reps], [r.dims[a] for r in reps])
            for (a, b) in shape.covers}
    return Rep(shape, field, {e: sum(r.dims[e] for r in reps) for e in shape.elements}, mats,
               validate=False)


# ---------------------------------------------------------------------------
# interval modules and friends over line quivers


@dataclass(frozen=True, order=True)
class Interval:
    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i <= self.j:
            raise ValueError(f"bad interval [{self.i},{self.j}]")

    def __str__(self):
        return f"M[{self.i},{self.j}]"


def interval_module(q: LineQuiver, i: int, j: int, field: FieldSpec) -> Rep:
    """Indecomposable with support [i, j], identity maps inside."""
    if not (1 <= i <= j <= q.n):
        raise ValueError(f"bad interval [{i},{j}] for n={q.n}")
    shape = q.poset()
    dims = {v: 1 if i <= v <= j else 0 for v in q.vertices}
    mats = {}
    for (u, v) in q.arrows():
        if dims[u] and dims[v]:
            mats[(u, v)] = Matrix.identity(field, 1)
    return Rep(shape, field, dims, mats, validate=False)


def all_intervals(n: int) -> List[Interval]:
    return [Interval(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def simple(q: LineQuiver, v: int, field: FieldSpec) -> Rep:
    return interval_module(q, v, v, field)


def projective(q: LineQuiver, v: int, field: FieldSpec) -> Rep:
    """P_v: supported on the vertices reachable from v."""
    itv = projective_interval(q, v)
    return interval_module(q, itv.i, itv.j, field)


def interval_presentation(q: LineQuiver, itv: Interval
                          ) -> Tuple[List[int], List[Tuple[int, List[Tuple[int, int]]]]]:
    """The minimal projective resolution 0 -> P1 -> P0 -> M[i,j] -> 0 as
    (tops, relations).  P0 is the sum of the P_v over the tops v of [i,j],
    the vertices with no arrow into them from inside [i,j].  P1 has one
    relation (w, [(v, sign), ...]) per summand P_w, mapped by sign times the
    inclusion P_w ⊂ P_v into each listed top v:
    - the valley w between two consecutive tops v < v', the sink of [v, v'],
      with +1 into v and -1 into v';
    - i - 1 if the arrow i -> i-1 exists, into the first top;
    - j + 1 if the arrow j -> j+1 exists, into the last top.
    These P_w are the parts of the supports of P0 that overlap or leave
    [i,j], so at every vertex dim P0 - dim P1 = dim M[i,j]."""
    i, j = itv.i, itv.j

    def points_into(u: int, v: int) -> bool:
        """Whether q has the arrow u -> v (u, v adjacent)."""
        return q.orientation[min(u, v) - 1] == ("F" if u < v else "B")

    inside = range(i, j + 1)
    tops = [v for v in inside if not any(points_into(u, v) for u in (v - 1, v + 1) if u in inside)]
    relations: List[Tuple[int, List[Tuple[int, int]]]] = []
    for v, v2 in zip(tops, tops[1:]):
        valley = next(w for w in range(v + 1, v2) if not points_into(w, w + 1))
        relations.append((valley, [(v, 1), (v2, -1)]))
    if i > 1 and points_into(i, i - 1):
        relations.append((i - 1, [(tops[0], 1)]))
    if j < q.n and points_into(j, j + 1):
        relations.append((j + 1, [(tops[-1], 1)]))
    return tops, relations


def injective(q: LineQuiver, v: int, field: FieldSpec) -> Rep:
    """I_v: supported on the vertices from which v is reachable."""
    itv = injective_interval(q, v)
    return interval_module(q, itv.i, itv.j, field)


def projective_interval(q: LineQuiver, v: int) -> Interval:
    p = q.poset()
    up = sorted(w for w in q.vertices if p.leq(v, w))
    return Interval(min(up), max(up))


def injective_interval(q: LineQuiver, v: int) -> Interval:
    p = q.poset()
    down = sorted(w for w in q.vertices if p.leq(w, v))
    return Interval(min(down), max(down))


# ---------------------------------------------------------------------------
# hom spaces


def _hom_kernel(x: Rep, y: Rep) -> Tuple[List[Tuple[int, int]], Matrix]:
    """(shapes, kernel): the intertwiners x -> y are the split_vector blocks
    of shapes, one per element of the shape in order, of the members of the
    column span of kernel.  Solves y(a->b) . phi_a = phi_b . x(a->b) over
    all covers."""
    if x.shape.elements != y.shape.elements:
        raise ValueError("shape mismatch")
    if x.field != y.field:
        raise ValueError("field mismatch")
    field = x.field
    elems = x.shape.elements
    shapes = [(y.dims[e], x.dims[e]) for e in elems]
    if not any(r * c for r, c in shapes):
        return shapes, Matrix.zeros(field, 0, 0)
    idx = {e: i for i, e in enumerate(elems)}
    sys = sylvester_system(field, shapes, [(idx[a], y.mats[(a, b)], idx[b], x.mats[(a, b)])
                                           for (a, b) in x.shape.covers])
    return shapes, kernel_basis(sys)


def hom_space(x: Rep, y: Rep) -> List[Dict[Element, Matrix]]:
    """Basis of the space of intertwiners x -> y."""
    shapes, kernel = _hom_kernel(x, y)
    return [dict(zip(x.shape.elements, split_vector(x.field, col, shapes)))
            for col in zip(*kernel.rows())]


def hom_dim(x: Rep, y: Rep) -> int:
    return len(hom_space(x, y))


def euler_form(q: LineQuiver, dx: Dict[int, int], dy: Dict[int, int]) -> int:
    """<dim x, dim y> = sum_v x_v y_v - sum_{arrows u->v} x_u y_v."""
    total = sum(dx[v] * dy[v] for v in q.vertices)
    for (u, v) in q.arrows():
        total -= dx[u] * dy[v]
    return total


def ext1_dim(q: LineQuiver, x: Rep, y: Rep) -> int:
    """dim Ext^1 from the length-1 projective resolution of x:
    0 -> Hom(x,y) -> Hom(P0,y) -> Hom(P1,y) -> Ext^1(x,y) -> 0."""
    return hom_dim(x, y) - euler_form(q, x.dims, y.dims)


# ---------------------------------------------------------------------------
# interval decomposition over line quivers


def generalized_rank(rep: Rep, a: int, b: int) -> int:
    """Rank of the canonical map lim -> colim over the window [a, b].

    The canonical map evaluates a section at any single window element and
    takes its class in the colimit (all choices agree there).  Sections are
    the families of column vectors with M x_u = x_v along every window arrow
    u -> v.  The colimit is the sum of the values modulo the relations
    x - M x (x at u, M x at v), which are the rows of the system x_u = x_v M
    in row vectors.  The rank is that of the evaluation at the first window
    element modulo the relations.
    """
    window = [v for v in rep.shape.elements if a <= v <= b]
    field = rep.field
    idx = {v: i for i, v in enumerate(window)}
    dims = [rep.dims[v] for v in window]
    arrows = [(idx[u], rep.mats[(u, v)], idx[v]) for (u, v) in rep.shape.covers
              if u in idx and v in idx]
    limit = sylvester_system(field, [(d, 1) for d in dims], [(u, m, v, None) for u, m, v in arrows])
    sections = kernel_basis(limit)
    relations = sylvester_system(field, [(1, d) for d in dims],
                                 [(u, None, v, m) for u, m, v in arrows]).transpose()
    at_first = sections.rows()[:dims[0]]
    zeros = [[0] * sections.ncols for _ in range(sections.nrows - dims[0])]
    ev = Matrix(field, sections.nrows, sections.ncols, at_first + zeros)
    return len(complement_columns(relations, ev))


def decompose(q: LineQuiver, x: Rep) -> Dict[Interval, int]:
    """Interval multiplicities by one sweep along the line, as in zigzag
    persistence; valid in any orientation.

    After vertex k, the columns of B_k form a basis of x_k, column c being the
    value at k of a summand I[b_c, k] of x restricted to 1..k, born at b_c.
    Replacing column c by c + t c' is a change of that decomposition exactly
    when Hom(I[b_c, k], I[b_c', k]) is nonzero.  Such a map is the identity
    on the overlap and zero off it, so only the square at the arrow between
    the later birth b and b - 1 can fail, and it reads 1 = 0 unless
    b_c' > b_c with the arrow b_c' -> b_c' - 1, or b_c' < b_c with the arrow
    b_c - 1 -> b_c.  Hence the order ≺ below: first the births whose arrow
    points back, latest first, then vertex 1 and the births whose arrow
    points forward, earliest first.  A column may absorb any column lower in
    ≺, and no other.

    - Forward arrow f: x_k -> x_(k+1).  rref([f B_k | I]), columns ascending
      in ≺: a non-pivot of the left block is f of a combination of lower
      columns, so its summand ends at k; the left pivots carry their births
      on, and the pivots of I complete B_(k+1) with columns born at k + 1.
    - Backward arrow g: x_(k+1) -> x_k.  G solves B_k G = g, and
      rref([G^T | I]) runs with the columns of G^T descending in ≺: a
      non-pivot column is, after absorbing higher ones, outside the image of
      g, so its summand ends at k.  The rows of the right block are the new
      B_(k+1): preimages of the survivors (the pivot rows, each the image of
      its summand up to lower non-pivots, which it may absorb), then a basis
      of ker g, born at k + 1.

    At vertex n every remaining column ends.  The generalized rank (lim ->
    colim over a window, generalized_rank) gives the same multiplicities by
    inclusion-exclusion and is kept as the test oracle.

    A thin x (every dimension at most 1, as in every indecomposable over
    A_n) skips the sweep and is read as its runs, whose soundness
    _thin_intervals proves.  In one benchmark-size suite_kernels call
    (perfbench seed 1) 908 of the 912 inputs are thin; suite_census at seed
    11 and benchmark size sends 75 thin and 165 thick inputs, so it runs both.
    """
    shape = q.poset()
    if x.shape.elements != shape.elements or set(x.shape.covers) != set(shape.covers):
        raise ValueError(f"a representation over {x.shape.name} cannot be decomposed over {q}")
    if all(d <= 1 for d in x.dims.values()):
        return _thin_intervals(q, x)
    field = x.field

    def precedence(b: int) -> Tuple[int, int]:
        """Sorts births ascending in ≺."""
        return (0, -b) if b > 1 and q.orientation[b - 2] == "B" else (1, b)

    out: Counter = Counter()
    basis, births = Matrix.identity(field, x.dims[1]), [1] * x.dims[1]
    for k in range(1, q.n):
        d, m = x.dims[k + 1], len(births)
        eye = Matrix.identity(field, d)
        forward = q.orientation[k - 1] == "F"
        cols = sorted(range(m), key=lambda c: precedence(births[c]), reverse=not forward)
        if forward:
            left = x.mats[(k, k + 1)] @ basis.submatrix(range(basis.nrows), cols)
            _, pivots = rref(Matrix.hstack(field, [left, eye], nrows=d))
            kept = [t for t in pivots if t < m]
            basis = Matrix.hstack(field, [left.submatrix(range(d), kept),
                                          eye.submatrix(range(d), [t - m for t in pivots if t >= m])],
                                  nrows=d)
        else:
            coords = solve(basis, x.mats[(k + 1, k)])
            left = coords.submatrix(cols, range(d)).transpose()
            red, pivots = rref(Matrix.hstack(field, [left, eye], nrows=d))
            kept = [t for t in pivots if t < m]
            basis = red.submatrix(range(d), range(m, m + d)).transpose()
        survivors = set(kept)
        for t, c in enumerate(cols):
            if t not in survivors:
                out[Interval(births[c], k)] += 1
        births = [births[cols[t]] for t in kept] + [k + 1] * (d - len(kept))
    for b in births:
        out[Interval(b, q.n)] += 1
    return dict(sorted(out.items()))


def _thin_intervals(q: LineQuiver, x: Rep) -> Dict[Interval, int]:
    """The decomposition of a thin x: one interval per maximal run of
    vertices of dimension 1 joined by nonzero arrows.  Each arrow of a run
    is a nonzero scalar, and a run is a path in a tree, so rescaling the
    basis vector of each vertex by the product of the scalars from the start
    of the run makes every arrow of the run the identity: the run is an
    interval module.  A zero arrow, or a vertex of dimension 0, joins
    nothing, so x is the direct sum of its runs."""
    out, birth, arrows = {}, 0, q.arrows()
    for k in q.vertices:
        if x.dims[k]:
            birth = birth or k
            if k == q.n or not x.dims[k + 1] or x.mats[arrows[k - 1]].is_zero():
                out[Interval(birth, k)] = 1
                birth = 0
    return out


def assemble(q: LineQuiver, multiset: Dict[Interval, int], field: FieldSpec) -> Rep:
    reps = []
    for itv, m in sorted(multiset.items()):
        reps.extend(interval_module(q, itv.i, itv.j, field) for _ in range(m))
    return direct_sum(reps, q.poset(), field)


# ---------------------------------------------------------------------------
# isomorphism testing


def find_isomorphism(x: Rep, y: Rep, seed: int = 0) -> Optional[Dict[Element, Matrix]]:
    """An invertible intertwiner x -> y, or None: linalg.invertible_member
    over the hom space, which says how it searches."""
    if x.dims != y.dims:
        return None
    shapes, kernel = _hom_kernel(x, y)
    found = invertible_member(x.field, shapes, Matrix.zeros(x.field, kernel.nrows, 1), kernel,
                              seed)
    return None if found is None else dict(zip(x.shape.elements, found))


# ---------------------------------------------------------------------------
# random representations (for the test suites)


def random_rep(q: LineQuiver, field: FieldSpec, rng: np.random.Generator,
               max_dim: int = 3) -> Rep:
    dims = {v: int(rng.integers(0, max_dim + 1)) for v in q.vertices}
    mats = {}
    for (u, v) in q.arrows():
        mats[(u, v)] = Matrix.random(field, dims[v], dims[u], rng)
    return Rep(q.poset(), field, dims, mats, validate=False)


def random_interval_sum(q: LineQuiver, field: FieldSpec, rng: np.random.Generator,
                        max_total: int = 6) -> Tuple[Rep, Dict[Interval, int]]:
    """A random direct sum of intervals, conjugated by random base change."""
    multiset: Dict[Interval, int] = {}
    count = int(rng.integers(1, max_total + 1))
    for _ in range(count):
        i = int(rng.integers(1, q.n + 1))
        j = int(rng.integers(i, q.n + 1))
        itv = Interval(i, j)
        multiset[itv] = multiset.get(itv, 0) + 1
    plain = assemble(q, multiset, field)
    # conjugate by random invertible base changes at each vertex
    changes = {}  # vertex -> (g, g^-1)
    for v in q.vertices:
        d = plain.dims[v]
        while v not in changes:
            g = Matrix.random(field, d, d, rng)
            try:
                changes[v] = g, inverse(g)
            except ValueError:  # singular: draw again
                pass
    mats = {}
    for (u, v) in q.arrows():
        (gv, _), (_, gu_inv) = changes[v], changes[u]
        mats[(u, v)] = gv @ plain.mats[(u, v)] @ gu_inv if plain.dims[u] and plain.dims[v] \
            else Matrix.zeros(field, plain.dims[v], plain.dims[u])
    twisted = Rep(q.poset(), field, dict(plain.dims), mats, validate=False)
    return twisted, multiset
