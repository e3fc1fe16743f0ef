"""Reflection, Coxeter, AR-translation, Serre, and transport functors.

All functors act on chain complexes over (line quiver) x (spectator shape);
with the spectator equal to a point this is the plain derived category of
the quiver, with spectator Q^op it computes bimodule kernels.

Two routes compute a reflection.  The chain-level one (reflect_plus_obj,
reflect_minus_obj, reflect_map) builds the fiber or cone of the map psi at
the reflected vertex from split, block_map and glue; it serves spectators,
whose bimodule kernels are not formal over the product, maps, and as the
test oracle of the other route.  The object-level one (reflect_plus,
reflect_minus without a spectator, and through them the Coxeter, Serre and
transport pipelines) replaces the complex by its homology (minimize) and
reflects each homology rep by the kernel and the cokernel of psi, as
Bernstein, Gelfand and Ponomarev do: over the hereditary A_n every complex
is formal, so this is the same object up to quasi-isomorphism.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

from .derived import (ChainMap, Complex, DerivedObject, block_map, cone, fiber, glue, identity_at,
                      minimize, negated, normalize, split, vertex_key)
from .linalg import FieldSpec, Matrix, kernel_cokernel
from .rep import Interval, Rep, all_intervals, interval_module
from .shapes import (LineQuiver, Poset, admissible_sequence, admissible_source_sequence,
                     embed_iQ, reflection_path)


def _spec_elems(spectator: Optional[Poset]):
    return [None] if spectator is None else list(spectator.elements)


def reflect_plus_obj(q: LineQuiver, a: int, c: Complex,
                     spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_a^+ at chain level: the value at the sink a becomes the fiber of the
    map from the sum of its neighbours, with the coordinate projections as the
    new arrows out of the (now source) vertex a."""
    q2 = _reflected(q, a, plus=True)
    return q2, _reflect_core(q, q2, a, c, spectator, plus=True)


def reflect_minus_obj(q: LineQuiver, b: int, c: Complex,
                      spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_b^- at chain level: the value at the source b becomes the cone of the
    map into the sum of its neighbours, with the coordinate inclusions as the
    new arrows into the (now sink) vertex b."""
    q2 = _reflected(q, b, plus=False)
    return q2, _reflect_core(q, q2, b, c, spectator, plus=False)


def _reflected(q: LineQuiver, a: int, plus: bool) -> LineQuiver:
    """q with the arrows at a reversed, once a is checked to be a sink (plus)
    or a source (minus)."""
    if not (q.is_sink(a) if plus else q.is_source(a)):
        raise ValueError(f"{a} is not a {'sink' if plus else 'source'} of {q}")
    return q.reflect(a)


def _reflect_core(q: LineQuiver, q2: LineQuiver, a: int, c: Complex,
                  spectator: Optional[Poset], plus: bool) -> Complex:
    """The value at a becomes fib(psi: (+)_b X_b -> X_a), parts [(X_b, 0)...,
    (X_a, -1)], with the coordinate projections as the arrows a -> b (plus),
    or cone(psi: X_a -> (+)_b X_b), parts [(X_a, 1), (X_b, 0)...], with the
    coordinate inclusions as the arrows b -> a (minus).  psi is the arrow of
    the first neighbour b minus the arrow of the second."""
    values, arrows = split(c, q.poset(), spectator)
    xa, nbrs = values[a], sorted(q.neighbors(a))
    xs = [values[b] for b in nbrs]
    total = reduce(Complex.direct_sum, xs, Complex.zero(xa.shape, c.field))
    nbr_parts = [(x, 0) for x in xs]
    signed = [arrows.pop((b, a) if plus else (a, b)) for b in nbrs]

    def psi_blocks(d):
        return [f.comp(d) if i == 0 else negated(f.comp(d)) for i, f in enumerate(signed)]

    if plus:
        psi = block_map(total, nbr_parts, xa, [(xa, 0)], total.degrees(), lambda d: [psi_blocks(d)])
        values[a], layout = fiber(psi), nbr_parts + [(xa, -1)]
    else:
        psi = block_map(xa, [(xa, 0)], total, nbr_parts, xa.degrees(),
                        lambda d: [[blk] for blk in psi_blocks(d)])
        values[a], layout = cone(psi), [(xa, 1)] + nbr_parts
    for i, (b, x) in enumerate(zip(nbrs, xs)):
        def unit(d, x=x, slot=i if plus else i + 1):
            return [identity_at(x.term(d)) if j == slot else None for j in range(len(layout))]

        if plus:  # the projection onto the b coordinate
            arrows[(a, b)] = block_map(values[a], layout, x, [(x, 0)], x.degrees(),
                                       lambda d, u=unit: [u(d)])
        else:  # the inclusion of the b coordinate
            arrows[(b, a)] = block_map(x, [(x, 0)], values[a], layout, x.degrees(),
                                       lambda d, u=unit: [[blk] for blk in u(d)])
    return glue(q2.poset(), spectator, values, arrows)


def reflect_map(q: LineQuiver, a: int, phi: ChainMap,
                spectator: Optional[Poset] = None, plus: bool = True) -> ChainMap:
    """The functorial action of s_a^± on a chain map: phi away from a, and at
    a phi on each part of the fiber (plus) or cone (minus), block diagonally."""
    reflect = reflect_plus_obj if plus else reflect_minus_obj
    _, src2 = reflect(q, a, phi.src, spectator)
    _, tgt2 = reflect(q, a, phi.tgt, spectator)
    nbr_parts = [(b, 0) for b in sorted(q.neighbors(a))]
    layout = nbr_parts + [(a, -1)] if plus else [(a, 1)] + nbr_parts
    comps = {}
    for d in sorted(set(src2.degrees()) | set(tgt2.degrees())):
        comps[d] = dict(phi.comp(d))
        for r in _spec_elems(spectator):
            blocks = [phi.comp(d - s)[vertex_key(v, r, spectator)] for v, s in layout]
            grid = [[m if i == j else None for j in range(len(blocks))] for i, m in enumerate(blocks)]
            comps[d][vertex_key(a, r, spectator)] = Matrix.block(
                phi.src.field, grid, [m.nrows for m in blocks], [m.ncols for m in blocks])
    return ChainMap(src2, tgt2, comps)


# ---------------------------------------------------------------------------
# object-level pipelines: reflections of homology reps


def _reflect_homology(q: LineQuiver, q2: LineQuiver, a: int, c: Complex, plus: bool) -> Complex:
    """s_a^+ (plus) or s_a^- of minimize(c), one homology rep H_d at a time,
    with b1 < b2 the neighbours of a and psi_d the row [H_(b1,a), -H_(b2,a)]
    (plus) or the column [H_(a,b1); -H_(a,b2)] (minus) of its arrows at a:
    - plus: the value at a in degree d is ker psi_d + coker psi_(d+1), and
      each arrow a -> b the rows of block b of the kernel basis, zero on the
      cokernel;
    - minus: the value at a in degree d is ker psi_(d-1) + coker psi_d, and
      each arrow b -> a zero into the kernel and the projection of
      kernel_cokernel(psi_d) on the columns of block b.
    Every other value and arrow is H_d's own Matrix.  These are the bases in
    which minimize reads the homology of the fiber or cone of _reflect_core
    (kernel first; unit vectors extend im psi), so the result equals
    minimize(reflect_*_obj(q, a, minimize(c))) matrix for matrix.  Over the
    hereditary A_n, c is quasi-isomorphic to minimize(c), so both are s_a^±(c)."""
    m, nbrs, f = minimize(c), sorted(q.neighbors(a)), c.field
    ker, proj = {}, {}
    for d, h in m.terms.items():
        blocks = [h.mats[(b, a) if plus else (a, b)] for b in nbrs]
        blocks[1:] = [-x for x in blocks[1:]]
        psi = (Matrix.hstack(f, blocks, nrows=h.dims[a]) if plus
               else Matrix.vstack(f, blocks, ncols=h.dims[a]))
        ker[d], proj[d] = kernel_cokernel(psi)
    lag = 0 if plus else 1  # degree d holds ker psi_(d-lag) + coker psi_(d+1-lag)
    terms = {}
    for d in sorted({e + s for e in ker for s in (lag - 1, lag)}):
        h, k, p = m.term(d), ker.get(d - lag), proj.get(d + 1 - lag)
        nk, nc = (k.ncols if k is not None else 0), (p.nrows if p is not None else 0)
        mats, start = dict(h.mats), 0
        for b in nbrs:  # block b of psi's columns (plus) or rows (minus) is H_d at b
            w = h.dims[b]
            if w and plus:
                mats[(a, b)] = Matrix.block(f, [[k.submatrix(range(start, start + w), range(nk)), None]],
                                            [w], [nk, nc])
            elif w:
                mats[(b, a)] = Matrix.block(f, [[None], [p.submatrix(range(nc), range(start, start + w))]],
                                            [nk, nc], [w])
            start += w
        terms[d] = Rep(q2.poset(), f, {**h.dims, a: nk + nc}, mats, validate=False)
    return Complex(q2.poset(), f, terms, {}, validate=False)


def reflect_plus(q: LineQuiver, a: int, c: Complex,
                 spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_a^+ on objects: _reflect_homology without a spectator, with zero
    differentials; reflect_plus_obj over a spectator."""
    if spectator is not None:
        return reflect_plus_obj(q, a, c, spectator)
    q2 = _reflected(q, a, plus=True)
    return q2, _reflect_homology(q, q2, a, c, plus=True)


def reflect_minus(q: LineQuiver, b: int, c: Complex,
                  spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_b^- on objects: _reflect_homology without a spectator, with zero
    differentials; reflect_minus_obj over a spectator."""
    if spectator is not None:
        return reflect_minus_obj(q, b, c, spectator)
    q2 = _reflected(q, b, plus=False)
    return q2, _reflect_homology(q, q2, b, c, plus=False)


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
