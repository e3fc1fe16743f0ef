"""The bimodule (profunctor) calculus over path algebras.

A bimodule is a chain complex of representations of P x R^op for finite
posets P, R; canceling tensor products are computed from the standard
two-term bimodule resolution when the middle shape is hereditary (line
quivers, trees) and from the normalized bar resolution of the incidence
algebra otherwise (needed for the commutative-square middle).  The bar route
doubles as an independent oracle for the hereditary route.  Both lay out
their total complex with derived.block_complex, as every complex of the
package is laid out: one part per chain of the resolution, the external
tensor of two slices.  boxtimes is that external tensor, read on the
product shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Tuple, Union

from .derived import (ChainMap, Complex, Grid, RepMap, block_complex, homology_rep, identity_at,
                      linear_dual_complex, negated, restrict, slices)
from .linalg import FieldSpec, Matrix
from .rep import Rep, find_isomorphism
from .shapes import LineQuiver, Poset, point_poset

ShapeLike = Union[LineQuiver, Poset, None]


def as_poset(s: ShapeLike) -> Poset:
    if s is None:
        return point_poset()
    if isinstance(s, LineQuiver):
        return s.poset()
    return s


@dataclass
class Bimodule:
    """A bounded complex of reps of left x right^op."""

    left: ShapeLike
    right: ShapeLike
    complex: Complex

    @property
    def left_poset(self) -> Poset:
        return as_poset(self.left)

    @property
    def right_poset(self) -> Poset:
        return as_poset(self.right)

    def shape(self) -> Poset:
        return self.complex.shape

    def entry_dims(self, a, b) -> Dict[int, int]:
        """Graded homology dims of the entry complex at (a, b)."""
        from .derived import homology_dims
        return homology_dims(self.complex, (a, b))

    def entry_pattern(self) -> Dict[Tuple, Dict[int, int]]:
        out = {}
        for a in self.left_poset.elements:
            for b in self.right_poset.elements:
                dims = self.entry_dims(a, b)
                if dims:
                    out[(a, b)] = dims
        return out

    def total_dim(self) -> int:
        return self.complex.total_dim()

    def shift(self, m: int) -> "Bimodule":
        return Bimodule(self.left, self.right, self.complex.shift(m))


def check_middle(right: ShapeLike, left: ShapeLike):
    """Raise unless a tensor over right and left is defined: the two shapes
    must have the same elements and the same covers."""
    a, b = as_poset(right), as_poset(left)
    if a.elements != b.elements or set(a.covers) != set(b.covers):
        raise ValueError("middle shapes do not match")


def bimodule_shape(left: ShapeLike, right: ShapeLike) -> Poset:
    return as_poset(left).product(as_poset(right).opposite())


def _treelike(p: Poset) -> bool:
    """True if the free category on the covers has no relations (at most one
    cover path between any two elements): then the incidence algebra is the
    hereditary path algebra of the Hasse quiver.  Two cover paths with the
    same ends part at an element with two cover successors below the common
    end, so this holds iff no element has two cover successors with a common
    upper bound."""
    return not any(a == b and any(p.leq(c, e) and p.leq(d, e) for e in p.elements)
                   for (a, c), (b, d) in combinations(p.covers, 2))


# ---------------------------------------------------------------------------
# identity and duality bimodules


def indicator_bimodule(shape: ShapeLike, support, field: FieldSpec) -> Bimodule:
    """Entry k on the support, identity structure maps inside it."""
    p = as_poset(shape)
    prod = bimodule_shape(shape, shape)
    dims = {}
    for (a, b) in prod.elements:
        dims[(a, b)] = 1 if (a, b) in support else 0
    mats = {}
    for cov in prod.covers:
        (a1, b1), (a2, b2) = cov
        if dims[(a1, b1)] and dims[(a2, b2)]:
            mats[cov] = Matrix.identity(field, 1)
    rep = Rep(prod, field, dims, mats, validate=False)
    return Bimodule(shape, shape, Complex.from_rep(rep))


def identity_prof(shape: ShapeLike, field: FieldSpec) -> Bimodule:
    """The identity profunctor I: entry k at (a, b) iff b <= a."""
    p = as_poset(shape)
    support = {(a, b) for a in p.elements for b in p.elements if p.leq(b, a)}
    return indicator_bimodule(shape, support, field)


def duality_module(shape: ShapeLike, field: FieldSpec) -> Bimodule:
    """The canonical duality bimodule D: entry k at (a, b) iff a <= b."""
    p = as_poset(shape)
    support = {(a, b) for a in p.elements for b in p.elements if p.leq(a, b)}
    return indicator_bimodule(shape, support, field)


def linear_dual(m: Bimodule) -> Bimodule:
    """Entrywise vector-space dual with the two factors swapped."""
    dualc = linear_dual_complex(m.complex)  # over (L x R^op)^op = L^op x R
    target = bimodule_shape(m.right, m.left)  # R x L^op: swap coordinates
    return Bimodule(m.right, m.left, restrict(dualc, target, lambda e: (e[1], e[0])))


def from_left_complex(q: ShapeLike, c: Complex) -> Bimodule:
    """View a plain complex over q as a bimodule over q x point^op."""
    return Bimodule(q, None, restrict(c, bimodule_shape(q, None), lambda e: e[0]))


def from_right_complex(q: ShapeLike, c: Complex) -> Bimodule:
    """View a complex over the opposite poset of q as a bimodule point x q^op."""
    return Bimodule(None, q, restrict(c, bimodule_shape(None, q), lambda e: e[1]))


def to_left_complex(m: Bimodule) -> Complex:
    """Inverse of from_left_complex (right shape must be the point)."""
    return restrict(m.complex, as_poset(m.left), lambda a: (a, ()))


# ---------------------------------------------------------------------------
# canceling tensor product


def _chain_summands(mid: Poset, method: str) -> List[Tuple[int, Tuple]]:
    """Bar-degree-labeled chains of the middle poset used in the resolution."""
    elems = list(mid.elements)
    out: List[Tuple[int, Tuple]] = [(0, (w,)) for w in elems]
    if method == "hereditary":
        for (u, v) in mid.covers:
            out.append((1, (u, v)))
        return out
    # normalized bar: all strict chains
    level = [(w,) for w in elems]
    k = 1
    while True:
        nxt = []
        for ch in level:
            for w in elems:
                if mid.leq(ch[-1], w) and ch[-1] != w:
                    nxt.append(ch + (w,))
        if not nxt:
            break
        out.extend((k, ch) for ch in nxt)
        level = nxt
        k += 1
    return out


def _external(a: Complex, b: Complex, shape: Poset) -> Complex:
    """a ⊠ b over shape = a.shape x b.shape: in degree t the sum over the
    pairs (i, j) with i + j = t, i ascending, of a_i ⊠ b_j, whose entry at
    (p, r) is a_i(p) (x) b_j(r), first factor major, with the differential
    dA (x) 1 + (-1)^i 1 (x) dB."""
    field = a.field
    pairs = [(i, j) for i in a.degrees() for j in b.degrees()]
    index = {ij: n for n, ij in enumerate(pairs)}

    def part(x: Rep, y: Rep) -> Complex:
        mats = {}
        for cov in shape.covers:
            (p1, r1), (p2, r2) = cov
            mats[cov] = (Matrix.identity(field, x.dims[p1]).kron(y.mats[(r1, r2)]) if p1 == p2
                         else x.mats[(p1, p2)].kron(Matrix.identity(field, y.dims[r1])))
        dims = {(p, r): x.dims[p] * y.dims[r] for (p, r) in shape.elements}
        return Complex.from_rep(Rep(shape, field, dims, mats, validate=False))

    def diff(t: int) -> Grid:
        grid: Grid = [[None] * len(pairs) for _ in pairs]
        for col, (i, j) in enumerate(pairs):
            if i + j != t:
                continue
            if (i - 1, j) in index and i in a.diffs:
                da, y = a.diffs[i], b.term(j)
                grid[index[(i - 1, j)]][col] = {
                    (p, r): da[p].kron(Matrix.identity(field, y.dims[r])) for (p, r) in shape.elements}
            if (i, j - 1) in index and j in b.diffs:
                db, x = b.diffs[j], a.term(i)
                grid[index[(i, j - 1)]][col] = {
                    (p, r): Matrix.identity(field, x.dims[p]).kron(db[r] if i % 2 == 0 else -db[r])
                    for (p, r) in shape.elements}
        return grid

    parts = [(part(a.term(i), b.term(j)), i + j) for (i, j) in pairs]
    if not parts:
        return Complex.zero(shape, field)
    return block_complex(parts, sorted({i + j for (i, j) in pairs}), diff)


def _external_map(f: ChainMap, g: ChainMap, shape: Poset, t: int) -> RepMap:
    """f ⊠ g in degree t for chain maps f: a -> a' and g: b -> b', from
    _external(a, b, shape) to _external(a', b', shape): block diagonal over
    the pairs (i, j), with the block f_i(p) (x) g_j(r) at (p, r)."""
    def pairs(a: Complex, b: Complex) -> List[Tuple[int, int]]:
        return [(i, t - i) for i in a.degrees() if t - i in b.terms]

    rows, cols = pairs(f.tgt, g.tgt), pairs(f.src, g.src)
    grid = [[(f.comp(i), g.comp(j)) if (i, j) == col else None for col in cols] for i, j in rows]
    row_dims = [(f.tgt.terms[i].dims, g.tgt.terms[j].dims) for i, j in rows]
    col_dims = [(f.src.terms[i].dims, g.src.terms[j].dims) for i, j in cols]
    return {(p, r): Matrix.block(f.src.field, [[None if b is None else b[0][p].kron(b[1][r])
                                                for b in row] for row in grid],
                                 [x[p] * y[r] for x, y in row_dims], [x[p] * y[r] for x, y in col_dims])
            for (p, r) in shape.elements}


def cancel_tensor(m: Bimodule, n: Bimodule, method: str = "auto") -> Bimodule:
    """The canceling tensor product m (x)_[mid] n.

    method: "hereditary" (two-term standard resolution; middle must be
    treelike), "bar" (normalized bar resolution of the incidence algebra;
    always valid, used as the independence oracle), or "auto".

    The total complex is one block_complex over the chains ch of the
    resolution, each the external tensor m(-, ch[-1]) ⊠ n(ch[0], -) shifted
    by its bar degree k.  Face i of a chain goes to the chain without ch[i],
    with the sign (-1)^(d - k + i) in total degree d; the two end faces act
    on one factor by the middle actions, an inner face is the identity.
    """
    check_middle(m.right, n.left)
    mid = as_poset(n.left)
    if method == "auto":
        method = "hereditary" if _treelike(mid) else "bar"
    if method == "hereditary" and not _treelike(mid):
        raise ValueError("hereditary resolution needs a treelike middle shape")

    field = m.complex.field
    target = bimodule_shape(m.left, n.right)

    # m(-, w) over the left poset with the contravariant action
    # mact(v, u): m(-, v) -> m(-, u), and n(w, -) over the opposite right
    # poset with the covariant action nact(u, v): n(u, -) -> n(v, -)
    mslice, mact = slices(m.complex, m.left_poset, lambda w, a: (a, w))
    nslice, nact = slices(n.complex, n.right_poset.opposite(), lambda w, b: (w, b))

    # the external tensors, each built once: many chains share their two ends
    @lru_cache(maxsize=None)
    def ext(v, u) -> Complex:
        return _external(mslice(v), nslice(u), target)

    summands = _chain_summands(mid, method)
    index = {ch: col for col, (_, ch) in enumerate(summands)}
    parts = [(ext(ch[-1], ch[0]), k) for k, ch in summands]

    def diff(d: int) -> Grid:
        grid: Grid = [[None] * len(parts) for _ in parts]
        for col, ((e, k), (_, ch)) in enumerate(zip(parts, summands)):
            t = d - k
            if t not in e.terms:
                continue
            grid[col][col] = e.diffs.get(t)
            for i in range(k + 1 if k else 0):
                if i == 0:
                    blk = _external_map(ChainMap.identity(mslice(ch[-1])), nact(ch[0], ch[1]),
                                        target, t)
                elif i == k:
                    blk = _external_map(mact(ch[-1], ch[-2]), ChainMap.identity(nslice(ch[0])),
                                        target, t)
                else:
                    blk = identity_at(e.terms[t])
                grid[index[ch[:i] + ch[i + 1:]]][col] = blk if (t + i) % 2 == 0 else negated(blk)
        return grid

    degs = sorted({t + k for e, k in parts for t in e.degrees()})
    return Bimodule(m.left, n.right, block_complex(parts, degs, diff))


def bar_tensor_oracle(m: Bimodule, n: Bimodule) -> Bimodule:
    """The full normalized bar realization of the derived coend."""
    return cancel_tensor(m, n, method="bar")


def boxtimes(m1: Bimodule, m2: Bimodule) -> Bimodule:
    """External tensor of bimodules: entries multiply, shapes take products.

    The result is a bimodule over (L1 x L2) x (R1 x R2)^op; it is the kernel
    of the boxtimes of the corresponding functors.  It is _external of the
    two complexes, the tensor that cancel_tensor takes at each chain, whose
    entry at ((a1, b1), (a2, b2)) is m1(a1, b1) (x) m2(a2, b2), read at
    ((a1, a2), (b1, b2))."""
    l1, l2 = m1.left_poset, m2.left_poset
    r1, r2 = m1.right_poset, m2.right_poset
    left = l1.product(l2, name=f"{l1.name}*{l2.name}")
    right = r1.product(r2, name=f"{r1.name}*{r2.name}")
    c1, c2 = m1.complex, m2.complex
    t = _external(c1, c2, c1.shape.product(c2.shape))

    def at(e):
        (a1, a2), (b1, b2) = e
        return (a1, b1), (a2, b2)
    return Bimodule(left, right, restrict(t, left.product(right.opposite()), at))


# ---------------------------------------------------------------------------
# quasi-isomorphism comparison


def bimodules_quasi_isomorphic(a: Bimodule, b: Bimodule, seed: int = 0) -> bool:
    """Degreewise comparison of homology bimodules via explicit isomorphisms."""
    ca, cb = a.complex, b.complex
    if ca.shape.elements != cb.shape.elements:
        return False
    degs = sorted(set(ca.degrees()) | set(cb.degrees()))
    if not degs:
        return True
    for d in range(min(degs), max(degs) + 1):
        ha = homology_rep(ca, d)
        hb = homology_rep(cb, d)
        if ha.dims != hb.dims:
            return False
        if not ha.is_zero() and find_isomorphism(ha, hb, seed=seed) is None:
            return False
    return True
