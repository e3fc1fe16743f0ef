"""Reflection, Coxeter, AR-translation, Serre, and transport functors.

All functors act on chain complexes over (line quiver) x (spectator shape);
with the spectator equal to a point this is the plain derived category of
the quiver, with spectator Q^op it computes bimodule kernels.  Everything is
computed at chain level; object-level pipelines renormalize to homology
between steps (sound over the hereditary line-quiver direction only when
the spectator is trivial).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .derived import ChainMap, Complex, DerivedObject, minimize, normalize, vertex_key
from .linalg import FieldSpec, Matrix
from .rep import Interval, Rep, all_intervals, interval_module
from .shapes import (LineQuiver, Poset, admissible_sequence, admissible_source_sequence,
                     embed_iQ, reflection_path)


def _spec_elems(spectator: Optional[Poset]):
    return [None] if spectator is None else list(spectator.elements)


def quiver_shape(q: LineQuiver, spectator: Optional[Poset]) -> Poset:
    base = q.poset()
    if spectator is None:
        return base
    return base.product(spectator)


def reflect_plus_obj(q: LineQuiver, a: int, c: Complex,
                     spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_a^+ at chain level: the value at the sink a becomes the fiber of the
    map from the sum of its neighbours, with the fiber projections as the new
    arrows out of the (now source) vertex a."""
    if not q.is_sink(a):
        raise ValueError(f"{a} is not a sink of {q}")
    q2 = q.reflect(a)
    return q2, _reflect_core(q, q2, a, c, spectator, plus=True)


def reflect_minus_obj(q: LineQuiver, b: int, c: Complex,
                      spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_b^- at chain level: the value at the source b becomes the cone of the
    map into the sum of its neighbours."""
    if not q.is_source(b):
        raise ValueError(f"{b} is not a source of {q}")
    q2 = q.reflect(b)
    return q2, _reflect_core(q, q2, b, c, spectator, plus=False)


def _reflect_core(q: LineQuiver, q2: LineQuiver, a: int, c: Complex,
                  spectator: Optional[Poset], plus: bool) -> Complex:
    field = c.field
    shape2 = quiver_shape(q2, spectator)
    nbrs = sorted(q.neighbors(a))
    signs = {b: (1 if i == 0 else -1) for i, b in enumerate(nbrs)}

    degs = c.degrees()
    if not degs:
        return Complex.zero(shape2, field)
    lo, hi = min(degs), max(degs)
    rng = range(lo - 1, hi + 2)

    def dims_at(d, v, r):
        return c.term(d).dims[vertex_key(v, r, spectator)]

    def new_dims(d, v, r):
        if v != a:
            return dims_at(d, v, r)
        if plus:
            # fiber: (sum of neighbours)_d + a_{d+1}
            return sum(dims_at(d, b, r) for b in nbrs) + dims_at(d + 1, a, r)
        # cone: a_{d-1} + (sum of neighbours)_d
        return dims_at(d - 1, a, r) + sum(dims_at(d, b, r) for b in nbrs)

    def a_row_dims(d, r):
        if plus:
            return [dims_at(d, b, r) for b in nbrs] + [dims_at(d + 1, a, r)]
        return [dims_at(d - 1, a, r)] + [dims_at(d, b, r) for b in nbrs]

    # terms -----------------------------------------------------------------
    terms: Dict[int, Rep] = {}
    spec_covers = [] if spectator is None else spectator.covers
    for d in rng:
        dims = {}
        for v in q.vertices:
            for r in _spec_elems(spectator):
                dims[vertex_key(v, r, spectator)] = new_dims(d, v, r)
        mats = {}
        for (x, y) in shape2.covers:
            if spectator is None:
                vx, rx, vy, ry = x, None, y, None
            else:
                (vx, rx), (vy, ry) = x, y
            if vx != a and vy != a:
                mats[(x, y)] = c.term(d).mats[(x, y)]
            elif vx == a and vy == a:
                # spectator cover at the modified vertex: block diagonal
                grid = []
                for i, sb in enumerate(a_row_dims(d, rx)):
                    row = [None] * len(a_row_dims(d, rx))
                    row[i] = _a_block_spec_map(c, q, a, nbrs, d, rx, ry, i, spectator, plus)
                    grid.append(row)
                mats[(x, y)] = Matrix.block(field, grid, a_row_dims(d, ry), a_row_dims(d, rx))
            elif plus and vx == a:
                # new arrow a -> b: projection onto the b coordinate
                j = nbrs.index(vy)
                cols = a_row_dims(d, rx)
                tgt = dims_at(d, vy, rx)
                grid = [[Matrix.identity(field, tgt) if i == j else None for i in range(len(cols))]]
                mats[(x, y)] = Matrix.block(field, grid, [tgt], cols)
            elif (not plus) and vy == a:
                # new arrow b -> a: inclusion into the b coordinate
                j = 1 + nbrs.index(vx)
                rows = a_row_dims(d, ry)
                src = dims_at(d, vx, ry)
                grid = [[Matrix.identity(field, src)] if i == j else [None] for i in range(len(rows))]
                mats[(x, y)] = Matrix.block(field, grid, rows, [src])
            else:
                raise RuntimeError("unexpected cover in reflected shape")
        terms[d] = Rep(shape2, field, dims, mats, validate=False)

    # differentials ----------------------------------------------------------
    diffs: Dict[int, Dict] = {}
    for d in rng:
        phi = {}
        # each differential read once per degree: an absent one is a new dict of zeros
        cd, ca = c.diff(d), c.diff(d + 1 if plus else d - 1)
        for v in q.vertices:
            for r in _spec_elems(spectator):
                key = vertex_key(v, r, spectator)
                if v != a:
                    phi[key] = cd[key]
                else:
                    phi[key] = _a_diff_block(c, a, nbrs, signs, d, r, spectator, plus, cd, ca)
        diffs[d] = phi
    return Complex(shape2, field, terms, diffs, validate=False)


def _arrow_map(c: Complex, d: int, src, tgt, spectator, r) -> Matrix:
    return c.term(d).mats[(vertex_key(src, r, spectator), vertex_key(tgt, r, spectator))]


def _a_block_spec_map(c: Complex, q: LineQuiver, a: int, nbrs, d: int, rx, ry,
                      slot: int, spectator, plus: bool) -> Matrix:
    """Diagonal block of the spectator structure map at the modified vertex."""
    if plus:
        if slot < len(nbrs):
            v, dd = nbrs[slot], d
        else:
            v, dd = a, d + 1
    else:
        if slot == 0:
            v, dd = a, d - 1
        else:
            v, dd = nbrs[slot - 1], d
    return c.term(dd).mats[(vertex_key(v, rx, spectator), vertex_key(v, ry, spectator))]


def _a_diff_block(c: Complex, a: int, nbrs, signs, d: int, r, spectator, plus: bool,
                  cd: Dict, ca: Dict) -> Matrix:
    """The differential at the modified vertex a, from cd = c.diff(d) and ca,
    the differential at a of degree d + 1 (plus) or d - 1 (minus)."""
    field = c.field

    def dims_at(dd, v):
        return c.term(dd).dims[vertex_key(v, r, spectator)]

    if plus:
        # fib_d = (+)X_b_d  +  X_a_{d+1};  d(u, v) = (d u, -psi(u) - d v)
        rows = [dims_at(d - 1, b) for b in nbrs] + [dims_at(d, a)]
        cols = [dims_at(d, b) for b in nbrs] + [dims_at(d + 1, a)]
        grid = []
        for i, b in enumerate(nbrs):
            row = [None] * (len(nbrs) + 1)
            row[i] = cd[vertex_key(b, r, spectator)]
            grid.append(row)
        last = []
        for i, b in enumerate(nbrs):
            m = _arrow_map(c, d, b, a, spectator, r)
            last.append(m.scale(-signs[b]))
        last.append(-ca[vertex_key(a, r, spectator)])
        grid.append(last)
        return Matrix.block(field, grid, rows, cols)
    # cone_d = X_a_{d-1} + (+)X_b_d; d(x, u) = (-d x, psi(x) + d u)
    rows = [dims_at(d - 2, a)] + [dims_at(d - 1, b) for b in nbrs]
    cols = [dims_at(d - 1, a)] + [dims_at(d, b) for b in nbrs]
    grid = [[-ca[vertex_key(a, r, spectator)]] + [None] * len(nbrs)]
    for i, b in enumerate(nbrs):
        m = _arrow_map(c, d - 1, a, b, spectator, r)
        row = [m.scale(signs[b])] + [None] * len(nbrs)
        row[1 + i] = cd[vertex_key(b, r, spectator)]
        grid.append(row)
    return Matrix.block(field, grid, rows, cols)


def reflect_map(q: LineQuiver, a: int, phi: ChainMap,
                spectator: Optional[Poset] = None, plus: bool = True) -> ChainMap:
    """The functorial action of s_a^± on a chain map."""
    q2, src2 = (reflect_plus_obj if plus else reflect_minus_obj)(q, a, phi.src, spectator)
    _, tgt2 = (reflect_plus_obj if plus else reflect_minus_obj)(q, a, phi.tgt, spectator)
    nbrs = sorted(q.neighbors(a))
    field = phi.src.field
    comps = {}
    degs = sorted(set(src2.degrees()) | set(tgt2.degrees()))
    for d in degs:
        comp = {}
        for v in q.vertices:
            for r in _spec_elems(spectator):
                key = vertex_key(v, r, spectator)
                if v != a:
                    comp[key] = phi.comp(d)[key]
                else:
                    if plus:
                        parts = [phi.comp(d)[vertex_key(b, r, spectator)] for b in nbrs] \
                            + [phi.comp(d + 1)[vertex_key(a, r, spectator)]]
                    else:
                        parts = [phi.comp(d - 1)[vertex_key(a, r, spectator)]] \
                            + [phi.comp(d)[vertex_key(b, r, spectator)] for b in nbrs]
                    dims_r = [p.nrows for p in parts]
                    dims_c = [p.ncols for p in parts]
                    grid = [[parts[i] if i == j else None for j in range(len(parts))]
                            for i in range(len(parts))]
                    comp[key] = Matrix.block(field, grid, dims_r, dims_c)
        comps[d] = comp
    return ChainMap(src2, tgt2, comps)


# ---------------------------------------------------------------------------
# object-level pipelines (with renormalization over the hereditary direction)


def _tidy(q: LineQuiver, c: Complex, spectator: Optional[Poset]) -> Complex:
    if spectator is None and not c.is_zero_object():
        return minimize(c)
    return c


def reflect_plus(q: LineQuiver, a: int, c: Complex,
                 spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    q2, out = reflect_plus_obj(q, a, c, spectator)
    return q2, _tidy(q2, out, spectator)


def reflect_minus(q: LineQuiver, b: int, c: Complex,
                  spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    q2, out = reflect_minus_obj(q, b, c, spectator)
    return q2, _tidy(q2, out, spectator)


def coxeter_plus(q: LineQuiver, c: Complex, spectator: Optional[Poset] = None,
                 sequence: Optional[List[int]] = None) -> Complex:
    """Phi^+: composite of s_a^+ along an admissible sequence of sinks."""
    seq = sequence if sequence is not None else admissible_sequence(q)
    cur_q, cur = q, c
    for a in seq:
        cur_q, cur = reflect_plus(cur_q, a, cur, spectator)
    if cur_q != q:
        raise RuntimeError("sequence was not admissible")
    return cur


def coxeter_minus(q: LineQuiver, c: Complex, spectator: Optional[Poset] = None,
                  sequence: Optional[List[int]] = None) -> Complex:
    seq = sequence if sequence is not None else admissible_source_sequence(q)
    cur_q, cur = q, c
    for b in seq:
        cur_q, cur = reflect_minus(cur_q, b, cur, spectator)
    if cur_q != q:
        raise RuntimeError("sequence was not admissible")
    return cur


def tau(q: LineQuiver, c: Complex, spectator: Optional[Poset] = None) -> Complex:
    """Auslander-Reiten translation = Phi^+."""
    return coxeter_plus(q, c, spectator)


def serre(q: LineQuiver, c: Complex, spectator: Optional[Poset] = None) -> Complex:
    """S = Sigma . Phi^+."""
    return coxeter_plus(q, c, spectator).shift(1)


def serre_inverse(q: LineQuiver, c: Complex, spectator: Optional[Poset] = None) -> Complex:
    return coxeter_minus(q, c, spectator).shift(-1)


def serre_power(q: LineQuiver, c: Complex, m: int, spectator: Optional[Poset] = None) -> Complex:
    cur = c
    for _ in range(abs(m)):
        cur = serre(q, cur, spectator) if m > 0 else serre_inverse(q, cur, spectator)
    return cur


def transport(q: LineQuiver, q2: LineQuiver, c: Complex,
              spectator: Optional[Poset] = None) -> Complex:
    """The strong stable equivalence D^Q -> D^Q' as a composite of positive
    reflections along the canonical reflection path."""
    path = reflection_path(q, q2)
    cur_q, cur = q, c
    for a in path:
        cur_q, cur = reflect_plus(cur_q, a, cur, spectator)
    return cur


def untransport(q: LineQuiver, q2: LineQuiver, c: Complex,
                spectator: Optional[Poset] = None) -> Complex:
    """Inverse of transport(q, q2, .): negative reflections along the
    reversed path (takes complexes over q2 back to q)."""
    path = reflection_path(q, q2)
    cur_q, cur = q2, c
    for a in reversed(path):
        cur_q, cur = reflect_minus(cur_q, a, cur, spectator)
    if cur_q != q:
        raise RuntimeError("untransport did not return to source quiver")
    return cur


def transport_embedding(q: LineQuiver, q2: LineQuiver) -> Dict[int, Tuple[int, int]]:
    """The embedding of q2 into the mesh tracked along the canonical
    reflection path, starting from the canonical embedding of q.  The
    restriction of the coherent AR diagram of X along this embedding is
    exactly transport(q, q2, X)."""
    emb = dict(embed_iQ(q))
    cur = q
    for a in reflection_path(q, q2):
        k, l = emb[a]
        emb[a] = (k - 1, l)
        cur = cur.reflect(a)
    return emb


# -- normalized functors on canonical forms ---------------------------------


def serre_on_object(q: LineQuiver, obj: DerivedObject, field: FieldSpec,
                    power: int = 1) -> DerivedObject:
    from .derived import object_complex
    return normalize(q, serre_power(q, object_complex(q, obj, field), power))


class SerreTable:
    """S as a permutation with shifts of the indecomposables of D^b(kQ):
    images[itv] = (delta, itv2) when S M[itv] = Sigma^delta M[itv2]."""

    def __init__(self, q: LineQuiver, field: FieldSpec):
        self.images: Dict[Interval, Tuple[int, Interval]] = {}
        for itv in all_intervals(q.n):
            img = normalize(q, serre(q, Complex.from_rep(interval_module(q, itv.i, itv.j, field))))
            if not img.indecomposable():
                raise RuntimeError(f"Serre image of {itv} is not indecomposable: {img}")
            delta, itv2, _ = img.summands[0]
            self.images[itv] = (delta, itv2)
        self.preimages = {itv2: (-delta, itv) for itv, (delta, itv2) in self.images.items()}

    def power(self, itv: Interval, j: int) -> Tuple[int, Interval]:
        """(delta, itv2) with S^j M[itv] = Sigma^delta M[itv2], for any integer j."""
        table = self.images if j >= 0 else self.preimages
        delta, cur = 0, itv
        for _ in range(abs(j)):
            d, cur = table[cur]
            delta += d
        return delta, cur
