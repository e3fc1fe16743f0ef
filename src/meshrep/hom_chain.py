"""Chain-level hom spaces: projective models, chain maps modulo homotopy.

Needed wherever an actual morphism (not just a dimension) in the derived
category has to be realized: mesh triangles, triangle fillers, suspension
identifications.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

from .derived import ChainMap, Complex, DerivedObject, block_complex, block_map, object_complex
from .linalg import (FieldSpec, Matrix, complement_columns, kernel_basis, split_vector,
                     sylvester_system)
from .rep import Rep, interval_module
from .shapes import LineQuiver


def projective_resolution(q: LineQuiver, x: Rep) -> Tuple[Rep, Rep, Dict, Dict]:
    """The standard hereditary resolution 0 -> P1 -> P0 -> X -> 0.

    P0 = sum_w P_w (x) X_w, P1 = sum_{arrows u->v} P_v (x) X_u; the
    differential sends the (u->v) block to the v-block via X(alpha) and to
    the u-block via the support inclusion P_v c P_u, with a minus sign.
    Returns (P1, P0, d: P1 -> P0, aug: P0 -> X) as reps and rep maps.
    """
    field = x.field
    shape = q.poset()
    verts = list(q.vertices)
    arrows = q.arrows()
    supp = {v: {w: shape.leq(v, w) for w in verts} for v in verts}  # P_v support

    # dims of P0 and P1 at each vertex y
    p0_dims = {y: sum(x.dims[w] for w in verts if supp[w][y]) for y in verts}
    p1_dims = {y: sum(x.dims[u] for (u, v) in arrows if supp[v][y]) for y in verts}

    def p0_off(y):
        offs, t = {}, 0
        for w in verts:
            if supp[w][y]:
                offs[w] = t
                t += x.dims[w]
        return offs, t

    def p1_off(y):
        offs, t = {}, 0
        for (u, v) in arrows:
            if supp[v][y]:
                offs[(u, v)] = t
                t += x.dims[u]
        return offs, t

    def ident_block(rows, cols, roff, coff, size, out):
        for i in range(size):
            out[roff + i][coff + i] = 1

    # structure maps of P0, P1 along covers y -> y2 (support inclusions)
    p0_mats, p1_mats = {}, {}
    for (y, y2) in q.arrows():
        o1, t1 = p0_off(y)
        o2, t2 = p0_off(y2)
        rowsm = [[0] * t1 for _ in range(t2)]
        for w in verts:
            if supp[w][y] and supp[w][y2]:
                ident_block(t2, t1, o2[w], o1[w], x.dims[w], rowsm)
        p0_mats[(y, y2)] = Matrix.from_rows(field, rowsm) if t2 and t1 else Matrix.zeros(field, t2, t1)
        o1, t1 = p1_off(y)
        o2, t2 = p1_off(y2)
        rowsm = [[0] * t1 for _ in range(t2)]
        for (u, v) in arrows:
            if supp[v][y] and supp[v][y2]:
                ident_block(t2, t1, o2[(u, v)], o1[(u, v)], x.dims[u], rowsm)
        p1_mats[(y, y2)] = Matrix.from_rows(field, rowsm) if t2 and t1 else Matrix.zeros(field, t2, t1)

    p0 = Rep(shape, field, p0_dims, p0_mats, validate=False)
    p1 = Rep(shape, field, p1_dims, p1_mats, validate=False)

    # differential P1 -> P0 and augmentation P0 -> X
    diff = {}
    aug = {}
    for y in verts:
        o1, t1 = p1_off(y)
        o0, t0 = p0_off(y)
        rowsm = [[0] * t1 for _ in range(t0)]
        for (u, v) in arrows:
            if not supp[v][y]:
                continue
            # to the v block via X(alpha): X_u -> X_v
            xa = x.mats[(u, v)].rows()
            for i in range(x.dims[v]):
                for jj in range(x.dims[u]):
                    rowsm[o0[v] + i][o1[(u, v)] + jj] += xa[i][jj]
            # to the u block via the inclusion P_v -> P_u (identity on X_u)
            if supp[u][y]:
                for i in range(x.dims[u]):
                    rowsm[o0[u] + i][o1[(u, v)] + i] -= 1
        diff[y] = Matrix.from_rows(field, rowsm) if t0 and t1 else Matrix.zeros(field, t0, t1)
        arows = [[0] * t0 for _ in range(x.dims[y])]
        for w in verts:
            if supp[w][y]:
                pm = x.path_map(w, y).rows()
                for i in range(x.dims[y]):
                    for jj in range(x.dims[w]):
                        arows[i][o0[w] + jj] += pm[i][jj]
        aug[y] = Matrix.from_rows(field, arows) if x.dims[y] and t0 else Matrix.zeros(field, x.dims[y], t0)
    return p1, p0, diff, aug


def projective_model(q: LineQuiver, obj: DerivedObject, field: FieldSpec) -> Tuple[Complex, ChainMap]:
    """(P, aug: P -> model(obj)) with P a complex of projectives quasi-iso to obj:
    the sum of one standard resolution per summand copy, laid out in the order
    of object_complex, and the block-diagonal augmentation into that model."""
    shape = q.poset()
    model = object_complex(q, obj, field)
    pieces: List[Complex] = []
    augs: List[Tuple[int, Dict]] = []  # (degree s, augmentation P0 -> x) per piece
    for (s, itv, mult) in obj.summands:
        p1, p0, diff, aug = projective_resolution(q, interval_module(q, itv.i, itv.j, field))
        pieces += [Complex(shape, field, {s: p0, s + 1: p1}, {s + 1: diff}, validate=False)] * mult
        augs += [(s, aug)] * mult
    total = Complex.zero(shape, field)
    if pieces:
        total = block_complex(
            [(p, 0) for p in pieces], sorted({d for p in pieces for d in p.degrees()}),
            lambda d: [[p.diff(d) if i == j else None for j, p in enumerate(pieces)]
                       for i in range(len(pieces))] if any(d in p.diffs for p in pieces) else None)
    # the augmentation lands in degree s of the model, one row block per piece of degree s
    comps: Dict[int, Dict] = {}
    for d in total.degrees():
        rows = [(k, a) for k, (s, a) in enumerate(augs) if s == d]
        comps[d] = {e: Matrix.block(field, [[a[e] if j == k else None for j in range(len(pieces))]
                                            for k, a in rows],
                                    [a[e].nrows for _, a in rows],
                                    [p.term(d).dims[e] for p in pieces])
                    for e in shape.elements}
    return total, ChainMap(total, model, comps)


def chain_map_space(cx: Complex, cy: Complex) -> List[ChainMap]:
    """Basis of chain maps cx -> cy (degreewise rep maps commuting with d)."""
    field, shape = cx.field, cx.shape
    degs = sorted(set(cx.degrees()) | set(cy.degrees()))
    slots = [(d, e) for d in degs for e in shape.elements]
    shapes = [(cy.term(d).dims[e], cx.term(d).dims[e]) for d, e in slots]
    if not any(r * c for r, c in shapes):
        return []
    idx = {s: i for i, s in enumerate(slots)}
    # rep-map constraints per degree
    eqs = [(idx[(d, a)], cy.term(d).mats[(a, b)], idx[(d, b)], cx.term(d).mats[(a, b)])
           for d in degs for (a, b) in shape.covers]
    # differential constraints: dY f_d = f_{d-1} dX
    for d in degs:
        if d - 1 in degs:
            dx, dy = cx.diff(d), cy.diff(d)
            eqs += [(idx[(d, e)], dy[e], idx[(d - 1, e)], dx[e]) for e in shape.elements]
    sys = sylvester_system(field, shapes, eqs)
    out = []
    for col in zip(*kernel_basis(sys).rows()):
        comps: Dict[int, Dict] = {}
        for (d, e), m in zip(slots, split_vector(field, col, shapes)):
            comps.setdefault(d, {})[e] = m
        out.append(ChainMap(cx, cy, comps))
    return out


def _flatten(cm: ChainMap, degs, shape) -> List:
    return [x for d in degs for e in shape.elements for row in cm.comp(d)[e].rows() for x in row]


def nullhomotopic_space(cx: Complex, cy: Complex) -> List[ChainMap]:
    """Spanning set of null-homotopic chain maps d h + h d."""
    field, shape = cx.field, cx.shape
    degs = sorted(set(cx.degrees()) | set(cy.degrees()))
    out = []
    # homotopies are rep maps cx_d -> cy_{d+1} with no differential constraint
    from .rep import hom_space
    h_basis = []
    for d in degs:
        for phi in hom_space(cx.term(d), cy.term(d + 1)):
            h_basis.append((d, phi))
    for (d, phi) in h_basis:
        comps: Dict[int, Dict] = {}
        for dd in degs:
            comps[dd] = {}
            for e in shape.elements:
                m = Matrix.zeros(field, cy.term(dd).dims[e], cx.term(dd).dims[e])
                if dd == d:
                    m = m + cy.diff(d + 1)[e] @ phi[e]
                if dd == d + 1:
                    m = m + phi[e] @ cx.diff(d + 1)[e]
                comps[dd][e] = m
        out.append(ChainMap(cx, cy, comps))
    return out


def hom_class_data(cx: Complex, cy: Complex):
    """(dimension of Hom_K(cx, cy), list of representatives spanning it):
    the chain maps that extend the null-homotopic span, chosen greedily."""
    field, shape = cx.field, cx.shape
    degs = sorted(set(cx.degrees()) | set(cy.degrees()))
    maps = chain_map_space(cx, cy)
    if not maps:
        return 0, []
    cand = Matrix.from_rows(field, [_flatten(cm, degs, shape) for cm in maps]).transpose()
    nulls = [_flatten(n, degs, shape) for n in nullhomotopic_space(cx, cy)]
    sub = Matrix.from_rows(field, nulls).transpose() if nulls else Matrix.zeros(field, cand.nrows, 0)
    reps = [maps[i] for i in complement_columns(sub, cand)]
    return len(reps), reps


def hom_class_representative(cx: Complex, cy: Complex) -> Optional[ChainMap]:
    dim, reps = hom_class_data(cx, cy)
    return reps[0] if reps else None


def tuple_into_sum(maps: List[ChainMap]) -> ChainMap:
    """Combine chain maps with a common source into a map to the direct sum."""
    if not maps:
        raise ValueError("need at least one map")
    src = maps[0].src
    tgt = reduce(Complex.direct_sum, [m.tgt for m in maps])
    return block_map(src, [(src, 0)], tgt, [(m.tgt, 0) for m in maps],
                     sorted(set(src.degrees()) | set(tgt.degrees())),
                     lambda d: [[m.comp(d)] for m in maps])
