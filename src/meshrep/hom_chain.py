"""Chain-level hom spaces: projective models, chain maps modulo homotopy.

Needed wherever an actual morphism (not just a dimension) in the derived
category has to be realized: mesh triangles, triangle fillers, suspension
identifications.  A projective model is the sum of the minimal resolutions
of rep.interval_presentation, one per interval summand, laid out by
derived.presentation_cone as in tilting.apply_bimodule.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, List, Optional, Tuple

from .bimod import identity_prof
from .derived import (ChainMap, Complex, DerivedObject, Grid, RepMap, block_map, object_complex,
                      presentation_cone, slices)
from .linalg import (FieldSpec, Matrix, complement_columns, kernel_basis, split_vector,
                     sylvester_system)
from .rep import Rep, interval_module
from .shapes import LineQuiver


def _on_common_support(src: Rep, tgt: Rep) -> RepMap:
    """The map between two interval modules that is the identity where both
    are nonzero and zero elsewhere."""
    return {e: Matrix.identity(src.field, 1) if src.dims[e] and tgt.dims[e]
            else Matrix.zeros(src.field, tgt.dims[e], src.dims[e]) for e in src.shape.elements}


# The columns P_v of identity_prof(q, field) and its action, as derived.slices
# returns them, per (n, orientation, field): projective_model reads a few of
# them on every call, and they depend on nothing else.  A Complex and a
# ChainMap never change, so every caller may share them.
_PROJECTIVES: Dict[Tuple[int, str, FieldSpec], Tuple[Callable, Callable]] = {}


def _projectives(q: LineQuiver, field: FieldSpec) -> Tuple[Callable, Callable]:
    """(proj, inclusion): proj(v) is P_v, inclusion(w, v) the map P_w -> P_v."""
    key = (q.n, q.orientation, field)
    if key not in _PROJECTIVES:
        _PROJECTIVES[key] = slices(identity_prof(q, field).complex, q.poset(),
                                   lambda v, a: (a, v))
    return _PROJECTIVES[key]


def projective_model(q: LineQuiver, obj: DerivedObject, field: FieldSpec) -> Tuple[Complex, ChainMap]:
    """(P, aug: P -> model(obj)) with P a complex of projectives quasi-iso to obj:
    derived.presentation_cone of the projectives P_v themselves and the
    inclusions P_w ⊂ P_v, read as the columns I_Q(-, v) and the action of
    the identity profunctor, the sum of the minimal resolutions of the
    summand copies, and the augmentation that sends each P_v of a P0 onto
    the copy of M[i,j] in object_complex it resolves, the identity on their
    common support."""
    model = object_complex(q, obj, field)
    proj, inclusion = _projectives(q, field)
    p, parts, tops = presentation_cone(q, obj, proj, inclusion, q.poset(), field)
    copies = [(Complex.from_rep(interval_module(q, itv.i, itv.j, field)), s)
              for (s, itv, mult) in obj.summands for _ in range(mult)]
    first = len(parts) - len(tops)  # the column of the first P0 part

    def grid(d: int) -> Grid:
        out: Grid = [[None] * len(parts) for _ in copies]
        for t, (k, v) in enumerate(tops):
            m, s = copies[k]
            if s == d:
                out[k][first + t] = _on_common_support(proj(v).term(0), m.term(0))
        return out

    return p, block_map(p, parts, model, copies, p.degrees(), grid)


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
