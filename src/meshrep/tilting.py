"""Universal tilting bimodules: APR, iterated, Coxeter, Serre/Nakayama
kernels, AR constructors, Yoneda windows, tilting and Picard checks.

Kernels of functors are extracted by applying the chain-level functor in the
first variable to the identity profunctor; tensoring with the kernel must
then reproduce the functor on every object, which the test suites check.
apply_bimodule computes that tensor from the minimal projective resolution
of each interval summand of the object, as a cone of slices of the kernel;
bimodule (x) bimodule stays with bimod.cancel_tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .armesh import ARDiagram, build_ar, mesh_object
from .bimod import (Bimodule, bimodules_quasi_isomorphic, cancel_tensor, check_middle,
                    duality_module, identity_prof)
from .derived import (ChainMap, Complex, cone, derived_hom_graded, glue, is_acyclic, normalize,
                      presentation_cone, slices, split)
from .linalg import FieldSpec, Matrix
from .rep import all_intervals, simple
from .functors import (SerreTable, coxeter_minus, coxeter_plus, reflect_minus_obj,
                       reflect_plus_obj, transport)
from .shapes import LineQuiver, MeshWindow, Poset, embed_iQ, mesh_map_s


def _spectator(q: LineQuiver) -> Poset:
    return q.poset().opposite()


def apr_tilt(q: LineQuiver, a: int, field: FieldSpec) -> Tuple[Bimodule, Bimodule]:
    """(T^+_a over Q' x Q^op, T^-_a over Q x Q'^op) for a sink a of q."""
    if not q.is_sink(a):
        raise ValueError(f"{a} is not a sink")
    q2 = q.reflect(a)
    iq = identity_prof(q, field)
    _, tplus = reflect_plus_obj(q, a, iq.complex, spectator=_spectator(q))
    iq2 = identity_prof(q2, field)
    _, tminus = reflect_minus_obj(q2, a, iq2.complex, spectator=_spectator(q2))
    return Bimodule(q2, q, tplus), Bimodule(q, q2, tminus)


def iter_tilt(q2: LineQuiver, q: LineQuiver, field: FieldSpec) -> Bimodule:
    """T_{Q', Q}: the kernel of transport(q -> q2) (positive reflections
    along the canonical path)."""
    return functor_kernel(q, lambda qq, c, s: transport(qq, q2, c, s), field, target=q2)


def coxeter_bimodule(q: LineQuiver, sign: int, field: FieldSpec) -> Bimodule:
    """C_Q^+ (sign=+1) or C_Q^- (sign=-1)."""
    return functor_kernel(q, coxeter_plus if sign > 0 else coxeter_minus, field)


def serre_bimodule(q: LineQuiver, field: FieldSpec) -> Bimodule:
    """Sigma(C_Q^+); by the Serre-Nakayama theorem this is D_Q."""
    return coxeter_bimodule(q, +1, field).shift(1)


def functor_kernel(q: LineQuiver, fn: Callable, field: FieldSpec,
                   target: Optional[LineQuiver] = None) -> Bimodule:
    """Kernel of a chain-level functor: fn applied in the first variable to
    I_Q (fn takes (q, complex, spectator) and returns a complex)."""
    iq = identity_prof(q, field)
    out = fn(q, iq.complex, _spectator(q))
    return Bimodule(target or q, q, out)


def apply_bimodule(t: Bimodule, q: LineQuiver, x: Complex) -> Complex:
    """(t (x)_[q] x) as a plain complex over the left shape of t, up to
    quasi-isomorphism.

    The derived tensor may be computed from any projective resolution of x
    (Rickard 1991).  Over the hereditary path algebra of the line quiver q,
    x is quasi-isomorphic to the sum of its shifted homologies (Happel 1988),
    the shifted intervals Sigma^s M[i,j] of normalize(q, x), and each
    interval has the minimal resolution 0 -> P1 -> P0 -> M[i,j] -> 0 of
    rep.interval_presentation.  By Yoneda t (x) P_w is the slice t(-, w),
    and the inclusion P_w ⊂ P_v (v <= w) becomes the action t(-, w) ->
    t(-, v) of t.  So the result is derived.presentation_cone of these:
    the cone of one block map from the sum of the P1 slices to the sum of
    the P0 slices, each shifted by s.  cancel_tensor(t,
    from_left_complex(q, x)) computes the same object from the two-term
    bimodule resolution of I_Q and is the test reference."""
    check_middle(t.right, q)
    value, action = slices(t.complex, t.left_poset, lambda w, a: (a, w))
    return presentation_cone(q, normalize(q, x), value, action, t.left_poset, t.complex.field)[0]


# ---------------------------------------------------------------------------
# AR constructors and Yoneda windows


def ar_constructor(q: LineQuiver, field: FieldSpec,
                   window: Optional[MeshWindow] = None) -> ARDiagram:
    """AR_Q = F_Q(I_Q): the coherent AR quiver of the identity profunctor,
    a bimodule over (window) x Q^op."""
    iq = identity_prof(q, field)
    return build_ar(q, iq.complex, window=window, spectator=_spectator(q))


def ar_constructor_restriction(d: ARDiagram, q: LineQuiver,
                               embedding: Dict[int, Tuple[int, int]]) -> Bimodule:
    """(i x id)-restriction of an AR constructor to a quiver embedding."""
    c = d.restrict(q, embedding)
    return Bimodule(q, d.q, c)


def yoneda_window(q: LineQuiver, window: MeshWindow) -> Dict[Tuple, Dict[int, int]]:
    """The Yoneda bimodule U_n as a graded dimension table on the window:
    entry (u, v) = graded dims of RHom(A(v), A(u)) for the attached mesh
    objects, zero on the boundary."""
    out: Dict[Tuple, Dict[int, int]] = {}
    n = q.n
    objs = {u: mesh_object(q, u) for u in window.interior()}
    for u in window.vertices():
        for v in window.vertices():
            if u[1] in (0, n + 1) or v[1] in (0, n + 1):
                out[(u, v)] = {}
                continue
            out[(u, v)] = derived_hom_graded(q, objs[v], objs[u])
    return out


def yoneda_restriction_is_identity(q: LineQuiver, table: Dict[Tuple, Dict[int, int]]) -> bool:
    emb = embed_iQ(q)
    p = q.poset()
    for a in q.vertices:
        for b in q.vertices:
            want = {0: 1} if p.leq(b, a) else {}
            if table[(emb[a], emb[b])] != want:
                return False
    return True


def yoneda_serre_twist_holds(q: LineQuiver, window: MeshWindow,
                             table: Dict[Tuple, Dict[int, int]]) -> bool:
    """U_n |> S = (s x id)^* U_n on dimension tables: the degree-reversed
    transpose at (u, v) equals the entry at (s(u), v)."""
    n = q.n
    for u in window.interior():
        su = mesh_map_s(n, u)
        if su not in window or su[1] in (0, n + 1):
            continue
        for v in window.interior():
            dual = {-d: m for d, m in table[(v, u)].items()}
            if dual != table[(su, v)]:
                return False
    return True


# ---------------------------------------------------------------------------
# tilting characterization


@dataclass
class TiltingReport:
    perfect: bool
    rigid: bool
    generator: bool
    invertible: bool

    def all_pass(self) -> bool:
        return self.perfect and self.rigid and self.generator and self.invertible


def tilting_check(t: Bimodule, field: FieldSpec,
                  inverse: Optional[Bimodule] = None) -> TiltingReport:
    """Perfect / rigid / generator for the underlying left complex, and
    invertibility against a candidate inverse bimodule."""
    ql: LineQuiver = t.left
    qr: LineQuiver = t.right
    column = slices(t.complex, t.left_poset, lambda b, a: (a, b))[0]
    cols = {b: normalize(ql, column(b)) for b in qr.vertices}
    # perfect: each column is quasi-isomorphic to a bounded complex of
    # projectives, witnessed by a projective model whose augmentation has an
    # acyclic cone (hom_chain is imported here, as in armesh, so that
    # importing the package does not load it)
    from .hom_chain import projective_model
    perfect = all(is_acyclic(cone(projective_model(ql, c, field)[1])) for c in cols.values())
    # rigid: derived self-hom concentrated in degree 0
    rigid = True
    for b1 in qr.vertices:
        for b2 in qr.vertices:
            graded = derived_hom_graded(ql, cols[b1], cols[b2])
            if any(d != 0 and v for d, v in graded.items()):
                rigid = False
    # generator: every simple is hit by some shift of some column
    generator = True
    for v in ql.vertices:
        sv = normalize(ql, Complex.from_rep(simple(ql, v, field)))
        if not any(derived_hom_graded(ql, c, sv) for c in cols.values()):
            generator = False
    invertible = False
    if inverse is not None:
        one_side = cancel_tensor(inverse, t)
        other_side = cancel_tensor(t, inverse)
        invertible = (bimodules_quasi_isomorphic(one_side, identity_prof(qr, field))
                      and bimodules_quasi_isomorphic(other_side, identity_prof(ql, field)))
    return TiltingReport(perfect, rigid, generator, invertible)


# ---------------------------------------------------------------------------
# Picard relations


@dataclass
class PicardReport:
    commutes: bool
    fractional_relation: bool
    negative_control: Optional[bool]
    minimality: bool

    def all_pass(self) -> bool:
        return (self.commutes and self.fractional_relation and self.minimality
                and self.negative_control in (None, True))


def tensor_power(t: Bimodule, q: LineQuiver, m: int, field: FieldSpec) -> Bimodule:
    out = identity_prof(q, field)
    for _ in range(m):
        out = cancel_tensor(t, out)
    return out


def picard_check(n: int, field: FieldSpec, orientation: Optional[str] = None) -> PicardReport:
    """Field-level derived Picard relations for A_n:
    [Sigma I][D] = [D][Sigma I] and (Sigma I)^(n-1) = D^(n+1); for n = 3 also
    the negative control D^2 != Sigma I; and minimality of the relation on
    the exponent grid |i|, |j| <= n+1 via the Serre/shift action."""
    q = LineQuiver(n, orientation if orientation is not None else "F" * (n - 1))
    iq = identity_prof(q, field)
    dq = duality_module(q, field)
    si = iq.shift(1)
    commutes = bimodules_quasi_isomorphic(cancel_tensor(si, dq), cancel_tensor(dq, si))
    lhs = tensor_power(si, q, n - 1, field)
    rhs = tensor_power(dq, q, n + 1, field)
    fractional = bimodules_quasi_isomorphic(lhs, rhs)
    negative = None
    if n == 3:
        negative = not bimodules_quasi_isomorphic(tensor_power(dq, q, 2, field), si)
    minimality = _minimality_grid(q, n, field)
    return PicardReport(commutes, fractional, negative, minimality)


def _minimality_grid(q: LineQuiver, n: int, field: FieldSpec) -> bool:
    """Sigma^i S^j fixes all isoclasses of indecomposables only when (i, j)
    is an integral multiple of (n-1, n+1), checked for |i|, |j| <= n+1."""
    if n == 1:
        return True  # S = id: the relation degenerates (paper treats n >= 2)
    table = SerreTable(q, field)
    for i in range(-(n + 1), n + 2):
        for j in range(-(n + 1), n + 2):
            fixes = all(table.power(itv, j) == (-i, itv) for itv in all_intervals(n))
            if fixes != _is_multiple(i, j, n):
                return False
    return True


def _is_multiple(i: int, j: int, n: int) -> bool:
    """(i, j) lies on the relation lattice of Sigma^(n-1) = S^(n+1), i.e.
    Sigma^i S^j is trivial: (i, j) = m (n-1, -(n+1))."""
    if j % (n + 1) != 0:
        return False
    m = j // (n + 1)
    return i == -m * (n - 1)


# ---------------------------------------------------------------------------
# the explicit square <-> D4 bimodule


def square_poset() -> Poset:
    chain = Poset([0, 1], [(0, 1)], name="[1]")
    return chain.product(chain, name="square")


def d4_poset() -> Poset:
    return Poset(["y", "z", "p", "w"], [("y", "p"), ("z", "p"), ("p", "w")], name="D4")


def square_d4_bimodule(field: FieldSpec) -> Bimodule:
    """T_{D,Q}: extend I_Q over the square by a pushout at the new point p,
    then restrict to the D4 shape {y, z, p, w}."""
    from .armesh import pushout
    sq = square_poset()
    x, y, z, w = (0, 0), (1, 0), (0, 1), (1, 1)
    iq = identity_prof(sq, field)
    spec = sq.opposite()
    vals, arrs = split(iq.complex, sq, spec)
    p, mty, mtz = pushout(arrs[(x, y)], arrs[(x, z)])
    # induced map p -> w from the universal property
    pw = _induced_from_pushout(p, mty, mtz, arrs[(y, w)], arrs[(z, w)])
    dshape = d4_poset()
    values = {"y": vals[y], "z": vals[z], "p": p, "w": vals[w]}
    arrows = {("y", "p"): mty, ("z", "p"): mtz, ("p", "w"): pw}
    return Bimodule(dshape, sq, glue(dshape, spec, values, arrows))


def square_d4_inverse(field: FieldSpec) -> Bimodule:
    """The inverse bimodule: pull back I_D along y -> p <- z (with a path
    replacement making the first leg a split epi) and restrict to the square."""
    from .armesh import pullback
    from .derived import mapping_path
    dshape = d4_poset()
    sq = square_poset()
    idd = identity_prof(dshape, field)
    spec = dshape.opposite()
    vals, arrs = split(idd.complex, dshape, spec)
    py, inc, ev = mapping_path(arrs[("y", "p")])
    xt, pt, pb = pullback(ev, arrs[("z", "p")])
    pw = arrs[("p", "w")]
    map_yw = pw.compose(ev)      # P_y -> w through p (strictly matching)
    map_zw = pw.compose(arrs[("z", "p")])
    x, y, z, w = (0, 0), (1, 0), (0, 1), (1, 1)
    values = {x: xt, y: py, z: vals["z"], w: vals["w"]}
    arrows = {(x, y): pt, (x, z): pb, (y, w): map_yw, (z, w): map_zw}
    return Bimodule(sq, dshape, glue(sq, spec, values, arrows))


def _induced_from_pushout(p: Complex, mt: ChainMap, mb: ChainMap,
                          map_t, map_b) -> ChainMap:
    """The map out of a pushout determined by compatible maps on the legs:
    solve kappa . (mt, mb) = (map_t, map_b) columnwise."""
    from .linalg import solve
    field, sh = p.field, p.shape
    w = map_t.tgt
    comps = {}
    for d in sorted(set(p.degrees()) | set(w.degrees())):
        comps[d] = {}
        for e in sh.elements:
            joint = Matrix.hstack(field, [mt.comp(d)[e], mb.comp(d)[e]],
                                  nrows=p.term(d).dims[e])
            target = Matrix.hstack(field, [map_t.comp(d)[e], map_b.comp(d)[e]],
                                   nrows=w.term(d).dims[e])
            sol = solve(joint.transpose(), target.transpose())
            if sol is None:
                raise RuntimeError("pushout-induced map does not exist")
            comps[d][e] = sol.transpose()
    return ChainMap(p, w, comps)


TDQ_EXPECTED_B_PATTERN = {
    # column b -> entries on the B shape {x, y, z, p, w}, from the displayed
    # diagrams: all maps that can be isomorphisms are isomorphisms
    (0, 0): {"x": 1, "y": 1, "z": 1, "p": 1, "w": 1},
    (1, 0): {"x": 0, "y": 1, "z": 0, "p": 1, "w": 1},
    (0, 1): {"x": 0, "y": 0, "z": 1, "p": 1, "w": 1},
    (1, 1): {"x": 0, "y": 0, "z": 0, "p": 0, "w": 1},
}


def square_d4_pattern_matches(t: Bimodule) -> bool:
    """Entry-for-entry comparison of T_{D,Q} with the displayed pattern
    (restricted to the D4 rows y, z, p, w)."""
    pat = t.entry_pattern()
    got = {(v, b): dims for (v, b), dims in pat.items()}
    for b, col in TDQ_EXPECTED_B_PATTERN.items():
        for v in ("y", "z", "p", "w"):
            want = {0: col[v]} if col[v] else {}
            if got.get((v, b), {}) != want:
                return False
    return True
