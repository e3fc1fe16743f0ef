"""Reflection, Coxeter, AR-translation, Serre, and transport functors.

All functors act on chain complexes over (line quiver) x (spectator shape);
with the spectator equal to a point this is the plain derived category of
the quiver, with spectator Q^op it computes bimodule kernels.  Everything is
computed at chain level; object-level pipelines renormalize to homology
between steps (sound over the hereditary line-quiver direction only when
the spectator is trivial).
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

from .derived import (ChainMap, Complex, DerivedObject, block_map, cone, fiber, glue, identity_at,
                      minimize, negated, normalize, split, vertex_key)
from .linalg import FieldSpec, Matrix
from .rep import Interval, all_intervals, interval_module
from .shapes import (LineQuiver, Poset, admissible_sequence, admissible_source_sequence,
                     embed_iQ, reflection_path)


def _spec_elems(spectator: Optional[Poset]):
    return [None] if spectator is None else list(spectator.elements)


def reflect_plus_obj(q: LineQuiver, a: int, c: Complex,
                     spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_a^+ at chain level: the value at the sink a becomes the fiber of the
    map from the sum of its neighbours, with the coordinate projections as the
    new arrows out of the (now source) vertex a."""
    if not q.is_sink(a):
        raise ValueError(f"{a} is not a sink of {q}")
    q2 = q.reflect(a)
    return q2, _reflect_core(q, q2, a, c, spectator, plus=True)


def reflect_minus_obj(q: LineQuiver, b: int, c: Complex,
                      spectator: Optional[Poset] = None) -> Tuple[LineQuiver, Complex]:
    """s_b^- at chain level: the value at the source b becomes the cone of the
    map into the sum of its neighbours, with the coordinate inclusions as the
    new arrows into the (now sink) vertex b."""
    if not q.is_source(b):
        raise ValueError(f"{b} is not a source of {q}")
    q2 = q.reflect(b)
    return q2, _reflect_core(q, q2, b, c, spectator, plus=False)


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
