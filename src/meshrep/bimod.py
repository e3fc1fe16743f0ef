"""The bimodule (profunctor) calculus over path algebras.

A bimodule is a chain complex of representations of P x R^op for finite
posets P, R; canceling tensor products are computed from the standard
two-term bimodule resolution when the middle shape is hereditary (line
quivers, trees) and from the normalized bar resolution of the incidence
algebra otherwise (needed for the commutative-square middle).  The bar route
doubles as an independent oracle for the hereditary route.  The external
tensor boxtimes is the canceling tensor over a point, read on the product
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from .derived import (ChainMap, Complex, homology_rep, linear_dual_complex, restrict,
                      restrict_map)
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
    hereditary path algebra of the Hasse quiver."""
    succ: Dict = {}
    for (a, b) in p.covers:
        succ.setdefault(a, []).append(b)

    def count_paths(a, b):
        if a == b:
            return 1
        return sum(count_paths(c, b) for c in succ.get(a, []) if p.leq(c, b))

    for a in p.elements:
        for b in p.elements:
            if p.leq(a, b) and count_paths(a, b) > 1:
                return False
    return True


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
    maxlen = len(elems)
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


def cancel_tensor(m: Bimodule, n: Bimodule, method: str = "auto") -> Bimodule:
    """The canceling tensor product m (x)_[mid] n.

    method: "hereditary" (two-term standard resolution; middle must be
    treelike), "bar" (normalized bar resolution of the incidence algebra;
    always valid, used as the independence oracle), or "auto".
    """
    check_middle(m.right, n.left)
    mid = as_poset(n.left)
    if method == "auto":
        method = "hereditary" if _treelike(mid) else "bar"
    if method == "hereditary" and not _treelike(mid):
        raise ValueError("hereditary resolution needs a treelike middle shape")

    field = m.complex.field
    target = bimodule_shape(m.left, n.right)
    leftp, rightp = m.left_poset, n.right_poset.opposite()

    # m(-, w) over the left poset and n(w, -) over the opposite right poset
    mslices = {w: restrict(m.complex, leftp, lambda a, w=w: (a, w)) for w in mid.elements}
    nslices = {w: restrict(n.complex, rightp, lambda b, w=w: (w, b)) for w in mid.elements}
    summands = _chain_summands(mid, method)
    # the external tensor m(-, ch[-1]) x n(ch[0], -) at each chain
    tensors = {ch: (mslices[ch[-1]], nslices[ch[0]]) for (_, ch) in summands}
    tensor_degs = {ch: (a.degrees(), set(b.degrees())) for ch, (a, b) in tensors.items()}

    def pairs(ch: Tuple, d: int) -> List[Tuple[int, int]]:
        adegs, bdegs = tensor_degs[ch]
        return [(i, d - i) for i in adegs if (d - i) in bdegs]

    # vertical maps between tensors induced by middle actions, each built once:
    # many chains and target blocks share the same pair u <= v
    @lru_cache(maxsize=None)
    def n_action(u, v) -> ChainMap:
        """The covariant action n(u, -) -> n(v, -)."""
        return restrict_map(n.complex, nslices[u], nslices[v], lambda b: (u, b), lambda b: (v, b))

    @lru_cache(maxsize=None)
    def m_action(u, v) -> ChainMap:
        """The contravariant action m(-, v) -> m(-, u)."""
        return restrict_map(m.complex, mslices[v], mslices[u], lambda a: (a, v), lambda a: (a, u))

    def face_map(ch: Tuple, i: int) -> Tuple[Tuple, Optional[ChainMap], Optional[ChainMap]]:
        """Target chain and the (left, right) chain maps to apply."""
        k = len(ch) - 1
        if i == 0:
            return ch[1:], None, n_action(ch[0], ch[1])
        if i == k:
            return ch[:-1], m_action(ch[-2], ch[-1]), None
        return ch[:i] + ch[i + 1:], None, None

    # total complex ----------------------------------------------------------
    degs_all = set()
    for (k, ch) in summands:
        a, b = tensors[ch]
        for i in a.degrees():
            for j in b.degrees():
                degs_all.add(i + j + k)
    if not degs_all:
        return Bimodule(m.left, n.right, Complex.zero(target, field))
    dmin, dmax = min(degs_all), max(degs_all)

    # offsets: for each total degree d and element e, blocks indexed by
    # (k, ch, (i, j)) with i + j = d - k
    def layout(d):
        offs = {}
        dims = {}
        for e in target.elements:
            t = 0
            loc = {}
            for (k, ch) in summands:
                a, b = tensors[ch]
                for (i, j) in pairs(ch, d - k):
                    p, r = e
                    sz = a.term(i).dims[p] * b.term(j).dims[r]
                    if sz:
                        loc[(k, ch, i, j)] = (t, sz)
                        t += sz
            offs[e] = loc
            dims[e] = t
        return offs, dims

    layouts = {d: layout(d) for d in range(dmin, dmax + 1)}

    terms = {}
    for d in range(dmin, dmax + 1):
        offs, dims = layouts[d]
        mats = {}
        for (e1, e2) in target.covers:
            rows = dims[e2]
            colsd = dims[e1]
            out = Matrix.zeros(field, rows, colsd).rows()
            p1, r1 = e1
            p2, r2 = e2
            for (key, (c0, csz)) in offs[e1].items():
                k, ch, i, j = key
                if key not in offs[e2]:
                    continue
                r0, rsz = offs[e2][key]
                a, b = tensors[ch]
                if p1 == p2:
                    blk = Matrix.identity(field, a.term(i).dims[p1]).kron(b.term(j).mats[(r1, r2)])
                else:
                    blk = a.term(i).mats[(p1, p2)].kron(Matrix.identity(field, b.term(j).dims[r1]))
                bb = blk.rows()
                for rr in range(blk.nrows):
                    for cc in range(blk.ncols):
                        out[r0 + rr][c0 + cc] = bb[rr][cc]
            mats[(e1, e2)] = Matrix.from_rows(field, out) if rows and colsd \
                else Matrix.zeros(field, rows, colsd)
        terms[d] = Rep(target, field, {e: dims[e] for e in target.elements}, mats, validate=False)

    diffs = {}
    for d in range(dmin + 1, dmax + 1):
        offs_s, dims_s = layouts[d]
        offs_t, dims_t = layouts[d - 1]
        phi = {}
        for e in target.elements:
            p, r = e
            out = Matrix.zeros(field, dims_t[e], dims_s[e]).rows()

            def put(r0, c0, blk):
                bb = blk.rows()
                for rr in range(blk.nrows):
                    for cc in range(blk.ncols):
                        out[r0 + rr][c0 + cc] += bb[rr][cc]

            for (key, (c0, csz)) in offs_s[e].items():
                k, ch, i, j = key
                a, b = tensors[ch]
                ai = a.term(i).dims[p]
                bj = b.term(j).dims[r]
                # internal differential: dA (x) id
                tkey = (k, ch, i - 1, j)
                if tkey in offs_t[e]:
                    put(offs_t[e][tkey][0], c0, a.diff(i)[p].kron(Matrix.identity(field, bj)))
                # internal: (-1)^i id (x) dB
                tkey = (k, ch, i, j - 1)
                if tkey in offs_t[e]:
                    blk = Matrix.identity(field, ai).kron(b.diff(j)[r])
                    put(offs_t[e][tkey][0], c0, blk if i % 2 == 0 else -blk)
                # bar faces with the (-1)^(i+j) total-complex twist
                mdeg = i + j
                sign_tot = 1 if mdeg % 2 == 0 else -1
                for face_i in range(k + 1):
                    if k == 0:
                        break
                    ch2, mleft, nright = face_map(ch, face_i)
                    tkey = (k - 1, ch2, i, j)
                    if tkey not in offs_t[e]:
                        continue
                    sign = sign_tot * (1 if face_i % 2 == 0 else -1)
                    if mleft is not None:
                        blk = mleft.comp(i)[p].kron(Matrix.identity(field, bj))
                    elif nright is not None:
                        blk = Matrix.identity(field, ai).kron(nright.comp(j)[r])
                    else:
                        blk = Matrix.identity(field, ai).kron(Matrix.identity(field, bj))
                    put(offs_t[e][tkey][0], c0, blk if sign == 1 else -blk)
            phi[e] = Matrix.from_rows(field, out) if dims_t[e] and dims_s[e] \
                else Matrix.zeros(field, dims_t[e], dims_s[e])
        diffs[d] = phi
    return Bimodule(m.left, n.right, Complex(target, field, terms, diffs, validate=False))


def bar_tensor_oracle(m: Bimodule, n: Bimodule) -> Bimodule:
    """The full normalized bar realization of the derived coend."""
    return cancel_tensor(m, n, method="bar")


def boxtimes(m1: Bimodule, m2: Bimodule) -> Bimodule:
    """External tensor of bimodules: entries multiply, shapes take products.

    The result is a bimodule over (L1 x L2) x (R1 x R2)^op; it is the kernel
    of the boxtimes of the corresponding functors.  It is the tensor over a
    point of m1 as a left and m2 as a right module, whose entry at
    ((a1, b1), (a2, b2)) is m1(a1, b1) (x) m2(a2, b2), read at
    ((a1, a2), (b1, b2))."""
    l1, l2 = m1.left_poset, m2.left_poset
    r1, r2 = m1.right_poset, m2.right_poset
    left = l1.product(l2, name=f"{l1.name}*{l2.name}")
    right = r1.product(r2, name=f"{r1.name}*{r2.name}")
    c1, c2 = m1.complex, m2.complex
    t = cancel_tensor(from_left_complex(c1.shape, c1), from_right_complex(c2.shape.opposite(), c2))

    def at(e):
        (a1, a2), (b1, b2) = e
        return (a1, b1), (a2, b2)
    return Bimodule(left, right, restrict(t.complex, left.product(right.opposite()), at))


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


def homology_pattern(b: Bimodule) -> Dict[int, Dict]:
    out = {}
    c = b.complex
    degs = c.degrees()
    for d in range(min(degs), max(degs) + 1) if degs else []:
        h = homology_rep(c, d)
        if not h.is_zero():
            out[d] = {e: h.dims[e] for e in c.shape.elements if h.dims[e]}
    return out
