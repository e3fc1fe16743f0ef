"""Canonical higher triangulations: standard n-triangles and the axioms
(STC0)-(STC3).

An n-triangle carries a strictly commuting chain-level window diagram with
vanishing boundary together with the suspension identification phi_v,
stored as matrices on homology.  The canonical phi of a strict diagram is
extracted from the rectangle between v, the two contractible boundary
corners, and f(v); restriction operations transport phi, and the flip
negates it, which matches the recomputed canonical phi on the nose.  A
triangle is distinguished iff its boundary vanishes, its phi agrees with
the canonical phi of its own diagram, and it is naturally isomorphic on
homology to the standard triangle of its base.  That comparison reads only
homology, so its reference is a block sum of per-interval records (the
standard triangle of each interval module read on homology, built once per
field and quiver): the base is the sum of the shifted intervals of its
homology (Happel), the standard triangle is additive in the base, and it
commutes with Sigma, which moves the degrees of the record and adds no sign.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .armesh import ar_window, build_ar
from .derived import (ChainMap, Complex, glue, homology_basis, homology_coordinates,
                      homology_dims, normalize)
from .linalg import (FieldSpec, Matrix, is_invertible, kernel_basis, solve, split_vector,
                     sylvester_system)
from .linalg import rref  # noqa: F401  perfbench checks that its tracer wraps this binding
from .rep import Interval, interval_module
from .shapes import (LineQuiver, MeshWindow, embed_iQ, induced_alpha, mesh_leq, mesh_map_f,
                     mesh_map_t)

Vertex = Tuple[int, int]


# ---------------------------------------------------------------------------
# homology bases and induced matrices over the point shape


def homology_matrix(phi: ChainMap, d: int) -> Matrix:
    """H_d(phi) in the homology bases of its source and target."""
    _, rs = homology_basis(phi.src, d, ())
    return homology_coordinates(phi.tgt, d, (), phi.comp(d)[()] @ rs)


# ---------------------------------------------------------------------------
# n-triangles over a strict vertexwise diagram


@dataclass
class NTriangle:
    n: int
    q: LineQuiver                       # the linear quiver A_n
    fieldspec: FieldSpec
    vertices: Set[Vertex]
    values: Dict[Vertex, Complex]
    arrows: Dict[Tuple[Vertex, Vertex], ChainMap]
    phi: Dict[Vertex, Dict[int, Matrix]]   # H_d(F v) -> H_{d+1}(F f(v))

    def interior(self) -> List[Vertex]:
        return sorted(v for v in self.vertices if 0 < v[1] < self.n + 1)

    def hdim(self, v: Vertex) -> Dict[int, int]:
        return homology_dims(self.values[v], ())

    def boundary_vanishes(self) -> bool:
        return all(not self.hdim(v) for v in self.vertices if v[1] in (0, self.n + 1))

    def arrow_h(self, cov) -> Dict[int, Matrix]:
        phi = self.arrows[cov]
        degs = sorted(set(phi.src.degrees()) | set(phi.tgt.degrees()))
        out = {}
        for d in range(min(degs), max(degs) + 1) if degs else []:
            m = homology_matrix(phi, d)
            if m.nrows and m.ncols:
                out[d] = m
        return out

    def path_map(self, a: Vertex, b: Vertex) -> Optional[ChainMap]:
        """Chain map along some monotone path a -> b inside the vertex set."""
        if a == b:
            return ChainMap.identity(self.values[a])
        # BFS over monotone steps staying in the vertex set
        prev: Dict[Vertex, Vertex] = {}
        dq = deque([a])
        while dq:
            cur = dq.popleft()
            if cur == b:
                break
            k, l = cur
            for nxt in ((k, l + 1), (k + 1, l - 1)):
                if nxt in prev or nxt == a:
                    continue
                if nxt in self.vertices and 0 <= nxt[1] <= self.n + 1 and mesh_leq(nxt, b):
                    prev[nxt] = cur
                    dq.append(nxt)
        if b not in prev:
            return None
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        path.reverse()
        fmap = ChainMap.identity(self.values[a])
        for x, y in zip(path, path[1:]):
            fmap = self.arrows[(x, y)].compose(fmap)
        return fmap

    def phi_invertible(self) -> bool:
        for v, mats in self.phi.items():
            fv = mesh_map_f(self.n, v)
            src, tgt = self.hdim(v), self.hdim(fv)
            if {d + 1: m for d, m in src.items()} != tgt:
                return False
            for d, m in mats.items():
                if m.nrows != m.ncols or not is_invertible(m):
                    return False
        return True

    def base_complex(self) -> Complex:
        """The restriction along the embedded column, reassembled."""
        emb = embed_iQ(self.q)
        vals = {v: self.values[emb[v]] for v in self.q.vertices}
        arrs = {(u, v): self.arrows[(emb[u], emb[v])] for (u, v) in self.q.arrows()}
        return glue(self.q.poset(), None, vals, arrs)


def _line_map(t: NTriangle, a: Vertex, b: Vertex, memo: Dict) -> Optional[ChainMap]:
    """The chain map along the straight monotone line a -> b (one column or
    one diagonal), None when the line leaves the vertex set.  Composites are
    kept in memo by (a, b).  A line into a boundary vertex is built from the
    line out of the vertex after a, so the lines into one corner share their
    tails; any other line from the line into the vertex before b, so the
    lines out of one corner share their heads."""
    key = (a, b)
    if key in memo:
        return memo[key]
    if a not in t.vertices or b not in t.vertices:
        got = None
    elif a == b:
        got = ChainMap.identity(t.values[a])
    else:
        dk, dl = (0, 1) if a[0] == b[0] else (1, -1)
        if b[1] in (0, t.n + 1):
            nxt = (a[0] + dk, a[1] + dl)
            rest = _line_map(t, nxt, b, memo)
            got = None if rest is None else rest.compose(t.arrows[(a, nxt)])
        else:
            prv = (b[0] - dk, b[1] - dl)
            rest = _line_map(t, a, prv, memo)
            got = None if rest is None else t.arrows[(prv, b)].compose(rest)
    memo[key] = got
    return got


def _rectangle(n: int, v: Vertex) -> Tuple[Vertex, Vertex, Vertex]:
    """(f(v), c1, c2): the far corner of the rectangle at v and its two
    boundary corners."""
    k, l = v
    return mesh_map_f(n, v), (k, n + 1), (k + l, 0)


def canonical_phi(t: NTriangle, v: Vertex,
                  memo: Optional[Dict] = None) -> Optional[Dict[int, Matrix]]:
    """The canonical suspension identification at v: the connecting map
    H_d(v) -> H_{d+1}(f v) of the strictly commuting rectangle v -> c1, c2 ->
    f(v) through the two boundary corners, that is H(kappa) H(lambda)^-1 for
    lambda: cone([p1; -p2]) -> Sigma v and kappa = (0, u1, u2): cone -> f v.
    None when the rectangle leaves the vertex set or this is not an
    isomorphism in every degree.

    The only monotone paths of the rectangle are straight: the column and
    the diagonal from v to c1 and c2, and the diagonal and the column from
    there to f(v).  A sweep over many vertices of t passes one memo dict to
    share their composites (see _line_map); it must not outlive the sweep."""
    needed = fv, c1, c2 = _rectangle(t.n, v)
    if any(u not in t.vertices for u in needed):
        return None
    memo = {} if memo is None else memo
    p1, p2 = _line_map(t, v, c1, memo), _line_map(t, v, c2, memo)
    u1, u2 = _line_map(t, c1, fv, memo), _line_map(t, c2, fv, memo)
    if None in (p1, p2, u1, u2):
        return None
    val, fval = t.values[v], t.values[fv]
    degs = sorted(set(val.degrees()) | set(fval.degrees()))
    if not degs:
        return {}
    lo, hi = degs[0], degs[-1]
    # by the long exact sequence of the cone, H(lambda) is invertible in
    # degrees lo..hi+2 exactly when both corners are acyclic there
    if any(lo <= d <= hi + 2 for corner in (p1.tgt, p2.tgt) for d in homology_dims(corner, ())):
        return None
    out = {}
    for deg in range(lo - 1, hi + 2):
        reps = homology_basis(val, deg, ())[1]
        if reps.ncols != homology_basis(fval, deg + 1, ())[1].ncols:
            return None
        if not reps.ncols:
            continue
        # lift each representative x to the cone cycle (x, y1, y2):
        # d y1 = -p1 x and d y2 = p2 x; kappa sends it to u1 y1 + u2 y2
        y1 = solve(p1.tgt.diff(deg + 1)[()], -(p1.comp(deg)[()] @ reps))
        y2 = solve(p2.tgt.diff(deg + 1)[()], p2.comp(deg)[()] @ reps)
        if y1 is None or y2 is None:
            raise RuntimeError(f"a path map from {v} is not a chain map")
        m = homology_coordinates(fval, deg + 1, (),
                                 u1.comp(deg + 1)[()] @ y1 + u2.comp(deg + 1)[()] @ y2)
        if not is_invertible(m):
            return None
        out[deg] = m
    return out


def standard_triangle(q: LineQuiver, x: Complex,
                      window: Optional[MeshWindow] = None) -> NTriangle:
    d = build_ar(q, x, window=window)
    verts = set(d.window.vertices())
    t = NTriangle(q.n, q, d.fieldspec, verts, dict(d.values), dict(d.arrows), {})
    memo: Dict = {}
    for v in d.window.interior():
        got = canonical_phi(t, v, memo)
        if got is not None:
            t.phi[v] = got
    return t


def base(t: NTriangle) -> Complex:
    return t.base_complex()


def fill_base(q: LineQuiver, x: Complex, window: Optional[MeshWindow] = None) -> NTriangle:
    """(STC1): at field level every incoherent base is coherent, so the fill
    is the standard triangle."""
    return standard_triangle(q, x, window=window)


# ---------------------------------------------------------------------------
# closure operations


def _relocate(t: NTriangle, vmap: Callable[[Vertex], Vertex],
              m: Optional[int] = None) -> Tuple[Set[Vertex], Dict, Dict]:
    """Pull the strict diagram back along a map of mesh categories."""
    n_new = m if m is not None else t.n
    ks = [v[0] for v in t.vertices]
    lo, hi = min(ks) - (n_new + t.n + 4), max(ks) + (n_new + t.n + 4)
    verts = {(k, l) for k in range(lo, hi + 1) for l in range(n_new + 2)
             if vmap((k, l)) in t.vertices}
    values = {v: t.values[vmap(v)] for v in verts}
    arrows = {}
    for (a, b) in _covers_of(verts, n_new):
        if vmap(a) == vmap(b):
            arrows[(a, b)] = ChainMap.identity(values[a])
            continue
        pm = t.path_map(vmap(a), vmap(b))
        if pm is None:
            # unreachable through the stored set: drop the vertices instead
            raise RuntimeError(f"cannot transport arrow {a}->{b}")
        arrows[(a, b)] = pm
    return verts, values, arrows


def _covers_of(verts: Set[Vertex], n: int):
    for (k, l) in verts:
        if (k, l + 1) in verts and l + 1 <= n + 1:
            yield ((k, l), (k, l + 1))
        if (k + 1, l - 1) in verts and l - 1 >= 0:
            yield ((k, l), (k + 1, l - 1))


def _transported(t: NTriangle, vmap: Callable[[Vertex], Vertex], sign: int) -> NTriangle:
    """t pulled back along the mesh map vmap, with phi carried along and
    multiplied by sign."""
    verts, values, arrows = _relocate(t, vmap)
    phi = {v: {d: m if sign == 1 else -m for d, m in t.phi[vmap(v)].items()} for v in verts
           if mesh_map_f(t.n, v) in verts and vmap(v) in t.phi}
    return NTriangle(t.n, t.q, t.fieldspec, verts, values, arrows, phi)


def translate(t: NTriangle) -> NTriangle:
    return _transported(t, lambda v: mesh_map_t(t.n, v), 1)


def flip(t: NTriangle) -> NTriangle:
    return _transported(t, lambda v: mesh_map_f(t.n, v), -1)


def flip_without_sign(t: NTriangle) -> NTriangle:
    """The negative control: the flip with the negation omitted."""
    return _transported(t, lambda v: mesh_map_f(t.n, v), 1)


def inverse_image(m: int, alpha: Dict[int, int], t: NTriangle) -> NTriangle:
    push = induced_alpha(m, t.n, alpha)
    verts, values, arrows = _relocate(t, push, m=m)
    phi = {}
    for v in verts:
        if mesh_map_f(m, v) in verts and push(v) in t.phi:
            phi[v] = dict(t.phi[push(v)])
        elif mesh_map_f(m, v) in verts and not homology_dims(values[v], ()):
            phi[v] = {}
    return NTriangle(m, LineQuiver.linear(m), t.fieldspec, verts, values, arrows, phi)


# ---------------------------------------------------------------------------
# standard triangles read on homology


@dataclass
class HomologyTriangle:
    """An n-triangle read on homology on the interior of its window: the
    graded dimensions at each vertex, H(arrow) at every cover between two
    interior vertices (a key also where that map is zero, for it is still an
    equation) and phi.  find_triangle_morphism reads it as it reads an
    NTriangle."""
    n: int
    fieldspec: FieldSpec
    vertices: Set[Vertex]
    hdims: Dict[Vertex, Dict[int, int]]
    arrows: Dict[Tuple[Vertex, Vertex], Dict[int, Matrix]]
    phi: Dict[Vertex, Dict[int, Matrix]]

    def hdim(self, v: Vertex) -> Dict[int, int]:
        return self.hdims[v]

    def arrow_h(self, cov) -> Dict[int, Matrix]:
        return self.arrows[cov]


def homology_record(t: NTriangle) -> Tuple[Dict[Tuple[int, ...], int],
                                             Dict[Tuple[int, ...], Matrix]]:
    """A standard triangle read on homology on its interior, flat and sparse:
    dims[(k, l, d)] = dim H_d at (k, l), and maps[(k, l, k', l', d)] = the
    map out of H_d at (k, l) along the cover (k, l) -> (k', l') or, for
    (k', l') = f(k, l), which is never the head of a cover, phi.  Entries
    of zero size are left out, and equal maps are one Matrix: a dict per
    vertex and cover would hold several times the bytes."""
    dims, maps, shared = {}, {}, {}
    verts = set(t.interior())
    for v in verts:
        for d, k in t.hdim(v).items():
            dims[(*v, d)] = k
    for a, b in _covers_of(verts, t.n):
        for d, m in t.arrow_h((a, b)).items():
            maps[(*a, *b, d)] = shared.setdefault(m, m)
    for v, ms in t.phi.items():
        for d, m in ms.items():
            maps[(*v, *mesh_map_f(t.n, v), d)] = shared.setdefault(m, m)
    return dims, maps


# The homology record of the standard triangle of each interval module on
# build_ar's default window: at most n(n+1)/2 per field and quiver.
_INTERVAL_RECORDS: Dict[Tuple[Optional[int], LineQuiver, Interval],
                        Tuple[Dict[Tuple[int, ...], int], Dict[Tuple[int, ...], Matrix]]] = {}


def _interval_record(q: LineQuiver, itv: Interval, field: FieldSpec
                     ) -> Tuple[Dict[Tuple[int, ...], int], Dict[Tuple[int, ...], Matrix]]:
    key = (field.p, q, itv)
    got = _INTERVAL_RECORDS.get(key)
    if got is None:
        x = Complex.from_rep(interval_module(q, itv.i, itv.j, field))
        got = _INTERVAL_RECORDS[key] = homology_record(standard_triangle(q, x))
    return got


def standard_homology(q: LineQuiver, x: Complex) -> HomologyTriangle:
    """The standard triangle of x on build_ar's default window, read on
    homology, as the block sum of the interval records of normalize(q, x):
    one diagonal block per copy of each summand, in the order of the
    summands, its degrees moved up by the summand's shift.  A zero x gives
    zero dimensions and maps on the whole interior."""
    n, field = q.n, x.field
    win = ar_window(n, embed_iQ(q))
    verts = set(win.interior())
    parts = [(_interval_record(q, itv, field), s)
             for s, itv, m in normalize(q, x).summands for _ in range(m)]
    hdims: Dict[Vertex, Dict[int, int]] = {v: {} for v in verts}
    for (dims, _), s in parts:
        for (k, l, d), dim in dims.items():
            h = hdims[(k, l)]
            h[d + s] = h.get(d + s, 0) + dim

    def summed(a: Vertex, b: Vertex, step: int) -> Dict[int, Matrix]:
        # the block diagonal of the parts' maps H_d(a) -> H_{d+step}(b), in
        # each degree where neither side is zero
        out = {}
        for d in hdims[a]:
            if hdims[b].get(d + step):
                blocks = [(maps.get((*a, *b, d - s)), dims.get((*b, d - s + step), 0),
                           dims.get((*a, d - s), 0)) for (dims, maps), s in parts]
                out[d] = Matrix.block(field, [[m if i == j else None for j in range(len(blocks))]
                                              for i, (m, _, _) in enumerate(blocks)],
                                      [r for _, r, _ in blocks], [c for _, _, c in blocks])
        return out

    arrows = {c: summed(*c, 0) for c in _covers_of(verts, n)}
    phi = {}
    for v in verts:
        fv, c1, c2 = _rectangle(n, v)
        if fv in win and c1 in win and c2 in win:
            phi[v] = summed(v, fv, 1)
    return HomologyTriangle(n, field, verts, hdims, arrows, phi)


# ---------------------------------------------------------------------------
# morphisms and distinguishedness


def _solution_space(s: NTriangle | HomologyTriangle, t: NTriangle | HomologyTriangle,
                    verts: List[Vertex], pins: Optional[Dict] = None):
    """(slots, shapes, hom, part): the families psi of maps H_d(s v) -> H_d(t v),
    one unknown per slot (v, d), that commute with the arrows and with phi and
    agree with the pins are part + the column span of hom (part None when
    there is none)."""
    fieldd = s.fieldspec
    s_h = {v: s.hdim(v) for v in verts}
    t_h = {v: t.hdim(v) for v in verts}
    slots = [(v, d) for v in verts for d in set(s_h[v]) | set(t_h[v])]
    shapes = [(t_h[v].get(d, 0), s_h[v].get(d, 0)) for v, d in slots]
    idx = {k: i for i, k in enumerate(slots)}

    def equation(a, left, b, right):
        # left . psi_a = psi_b . right, a missing (None) map being zero
        (ra, ca), (rb, cb) = shapes[a], shapes[b]
        return (a, Matrix.zeros(fieldd, rb, ra) if left is None else left, b,
                Matrix.zeros(fieldd, cb, ca) if right is None else right)

    eqs = []
    vset = set(verts)
    for (a, b) in _covers_of(vset, s.n):
        if (a, b) not in s.arrows or (a, b) not in t.arrows:
            continue
        sa, ta = s.arrow_h((a, b)), t.arrow_h((a, b))
        for d in set(s_h[a]) | set(s_h[b]) | set(t_h[a]) | set(t_h[b]):
            if (a, d) in idx and (b, d) in idx:
                eqs.append(equation(idx[(a, d)], ta.get(d), idx[(b, d)], sa.get(d)))
    for v in vset:
        fv = mesh_map_f(s.n, v)
        if fv not in vset or v not in s.phi or v not in t.phi:
            continue
        for d in set(s_h[v]) | set(t_h[v]):
            if (fv, d + 1) in idx:
                eqs.append(equation(idx[(v, d)], t.phi[v].get(d), idx[(fv, d + 1)],
                                    s.phi[v].get(d)))
    pinned = [(idx[key], mat) for key, mat in (pins or {}).items() if key in idx]
    for i, mat in pinned:
        if (mat.nrows, mat.ncols) != shapes[i]:
            raise ValueError(f"pin at {slots[i]} has the wrong shape")
    # the pin psi_i = P is the equation 1 . psi_i - psi_i . 0 = P, its rows last
    eqs += [(i, None, i, Matrix.zeros(fieldd, shapes[i][1], shapes[i][1])) for i, _ in pinned]
    sysm = sylvester_system(fieldd, shapes, eqs)
    pin_vals = [x for _, mat in pinned for row in mat.rows() for x in row]
    rhs = [0] * (sysm.nrows - len(pin_vals)) + pin_vals
    part = solve(sysm, Matrix.column(fieldd, rhs)) if rhs else Matrix.zeros(fieldd, sysm.ncols, 1)
    return slots, shapes, kernel_basis(sysm), part


def find_triangle_morphism(s: NTriangle | HomologyTriangle, t: NTriangle | HomologyTriangle,
                           require_iso: bool, seed: int = 0, pins: Optional[Dict] = None):
    verts = sorted(v for v in s.vertices & t.vertices if 0 < v[1] < s.n + 1)
    if require_iso and any(s.hdim(v) != t.hdim(v) for v in verts):
        return None
    slots, shapes, hom, part = _solution_space(s, t, verts, pins=pins)
    if part is None:
        return None
    fieldd = s.fieldspec
    part = [row[0] for row in part.rows()]
    if not require_iso:
        return dict(zip(slots, split_vector(fieldd, part, shapes)))
    rng = np.random.default_rng(seed)
    p = fieldd.p if not fieldd.is_rational else 101
    cols = list(zip(*hom.rows()))

    def attempt(coeffs):
        vals = part
        for c, col in zip(coeffs, cols):
            if c:
                vals = [x + y * c for x, y in zip(vals, col)]
        psi = dict(zip(slots, split_vector(fieldd, vals, shapes)))
        for m in psi.values():
            if m.nrows != m.ncols or not is_invertible(m):
                return None
        return psi

    # a random member of the affine solution space is invertible whenever an
    # invertible member exists (Schwartz-Zippel over a large field)
    for _ in range(25):
        got = attempt([int(c) for c in rng.integers(0, p, size=hom.ncols)])
        if got is not None:
            return got
    if hom.ncols <= 3:
        for coeffs in itertools.product(range(-1, 2), repeat=hom.ncols):
            got = attempt(coeffs)
            if got is not None:
                return got
    return None


def phi_is_canonical(t: NTriangle) -> Tuple[bool, int]:
    """Compare the stored phi with the canonical phi of the underlying strict
    diagram; returns (all agree, number of vertices validated)."""
    checked = 0
    memo: Dict = {}
    for v, stored in t.phi.items():
        got = canonical_phi(t, v, memo)
        if got is None:
            continue
        checked += 1
        if got != stored:
            return False, checked
    return True, checked


def is_distinguished(t: NTriangle, seed: int = 0) -> bool:
    """(STC0)-(STC1): the boundary vanishes, phi is invertible and canonical,
    and t is isomorphic on homology, compatibly with phi, to the standard
    triangle of its base.  That comparison reads only the homology
    dimensions, the homology of the arrows and phi, so the reference is
    standard_homology(base), summed from interval records, and no standard
    triangle of the base is built.  This is sound because:

    - over the hereditary A_n the base is quasi-isomorphic to the sum of the
      shifted intervals of its normal form (Happel), and quasi-isomorphic
      bases have standard triangles that agree on homology and phi up to a
      natural isomorphism;
    - the standard triangle is additive: build_ar fills each vertex by
      pushouts and pullbacks, which commute with direct sums, and phi is
      natural in the diagram, so the standard triangle of a sum is the block
      sum of the summands' triangles on homology;
    - it commutes with the shift: the standard triangle of Sigma^s M is that
      of M with every degree moved up by s, with no sign on the homology
      maps or on phi."""
    if not t.boundary_vanishes() or not t.phi_invertible():
        return False
    ok, _ = phi_is_canonical(t)
    if not ok:
        return False
    std = standard_homology(t.q, t.base_complex())
    return find_triangle_morphism(std, t, require_iso=True, seed=seed) is not None


def extend_morphism(s: NTriangle, t: NTriangle, base_map: Dict[Tuple[int, int], Matrix],
                    seed: int = 0):
    """(STC2): extend a morphism of bases to a morphism of triangles (found
    as a natural phi-compatible family on homology, pinned on the base)."""
    emb = embed_iQ(s.q)
    pins = {(emb[v], d): m for (v, d), m in base_map.items()}
    return find_triangle_morphism(s, t, require_iso=False, seed=seed, pins=pins)


# ---------------------------------------------------------------------------
# exports


def triangle_to_dot(t: NTriangle, suppress_boundary: bool = True) -> str:
    lines = ["digraph ntriangle {", '  rankdir="LR";']

    def vid(v):
        return f'"v{v[0]}_{v[1]}"'

    for v in sorted(t.vertices):
        if suppress_boundary and v[1] in (0, t.n + 1):
            continue
        h = t.hdim(v)
        label = "+".join(f"k^{m}[{d}]" for d, m in sorted(h.items())) or "0"
        mark = " *" if v in t.phi else ""
        lines.append(f'  {vid(v)} [label="{label}{mark}"];')
    for (a, b) in sorted(_covers_of(t.vertices, t.n)):
        if suppress_boundary and (a[1] in (0, t.n + 1) or b[1] in (0, t.n + 1)):
            continue
        lines.append(f"  {vid(a)} -> {vid(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def triangle_to_json(t: NTriangle) -> dict:
    from .serialize import SCHEMA, complex_to_json, field_to_json, matrix_to_json
    return {
        "schema": SCHEMA,
        "type": "ntriangle",
        "n": t.n,
        "field": field_to_json(t.fieldspec),
        "vertices": sorted(list(v) for v in t.vertices),
        "values": [[list(v), complex_to_json(t.values[v])] for v in sorted(t.vertices)],
        "arrows": [[list(a), list(b),
                    [[d, matrix_to_json(t.arrows[(a, b)].comp(d)[()])]
                     for d in sorted(set(t.values[a].degrees()) | set(t.values[b].degrees()))]]
                   for (a, b) in sorted(t.arrows)],
        "phi": [[list(v), [[d, matrix_to_json(m)] for d, m in sorted(mats.items())]]
                for v, mats in sorted(t.phi.items())],
    }


def triangle_from_json(data: dict) -> NTriangle:
    from .serialize import complex_from_json, field_from_json, matrix_from_json
    fieldd = field_from_json(data["field"])
    n = data["n"]
    verts = {tuple(v) for v in data["vertices"]}
    values = {tuple(v): complex_from_json(c) for v, c in data["values"]}
    arrows = {}
    for a, b, comps in data["arrows"]:
        a, b = tuple(a), tuple(b)
        arrows[(a, b)] = ChainMap(values[a], values[b],
                                  {d: {(): matrix_from_json(m, fieldd)} for d, m in comps})
    phi = {tuple(v): {d: matrix_from_json(m, fieldd) for d, m in mats}
           for v, mats in data["phi"]}
    return NTriangle(n, LineQuiver.linear(n), fieldd, verts, values, arrows, phi)
