"""Coherent Auslander-Reiten quivers on a mesh window, built strictly.

The diagram is stored vertexwise: a chain complex of (spectator-)reps at
every window vertex and a chain map along every mesh arrow, with all squares
commuting on the nose.  To achieve strictness together with the correct
homotopy types, the input is first "stiffened" (see stiffen): each value
gains the cone (forward arrow) or fiber (backward arrow) of the identity of
the previous input value, so forward arrows become split monos and backward
arrows split epis; squares to the right of the embedded quiver are then
filled by honest pushouts along split monos, squares to the left by honest
pullbacks along split epis, and the boundary rows carry contractible models
(cones and path objects of identities), which normalize to zero.

Over the point, each fill is trimmed: it is divided by a maximal
contractible subcomplex, chosen by its spans alone and disjoint from the
protected leg (the bottom leg of a pushout).  A pullback is trimmed through
its linear dual, where its bottom leg becomes the protected mono.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .derived import (ChainMap, Complex, DerivedObject, Square, block_map, cone, cone_inclusion,
                      fiber_projection, glue, homology_dims, identity_at, is_bicartesian,
                      linear_dual_complex, negated, normalize, split)
from .linalg import (FieldSpec, Matrix, complement_columns, complement_projection, kernel_basis,
                     solve)
from .rep import Rep
from .shapes import (LineQuiver, MeshWindow, Poset, embed_iQ, happel_table, mesh_hom, mesh_map_f,
                     point_poset)

Vertex = Tuple[int, int]


# ---------------------------------------------------------------------------
# stiffening the arrows of a quiver-shaped diagram


def stiffen(q: LineQuiver, values: Dict[int, Complex],
            arrows: Dict[Tuple[int, int], ChainMap]):
    """An isomorphic diagram whose forward arrows are split monos and whose
    backward arrows are split epis, built in one sweep along the quiver.

    The value at v becomes X_v + D_v with D_1 = 0 and D_v contractible.  An
    arrow between v and w = v + 1 adds C = cone(id X_v) (forward) or
    C = fib(id X_v) (backward) and carries D_v along by its identity:

        forward  f: X_v -> X_w   becomes (f, incl, id): X_v + D_v -> X_w + C + D_v
        backward g: X_w -> X_v   becomes (g + proj, id): X_w + C + D_v -> X_v + D_v

    and D_w = C + D_v, so the total is |X_k| + 2 sum_{l<k} |X_l| at k.  The
    projections X_v + D_v -> X_v are quasi-isomorphisms; along a forward
    arrow they commute with the arrows strictly, along a backward arrow up to
    proj . pr_C, which factors through the contractible C and so is
    null-homotopic.  A_n is a free shape, so the underlying-diagram functor
    is full and conservative there (Groth, Derivators, pointed derivators
    and stable derivators, AGT 2013; Groth-Stovicek, arXiv:1409.5003): a
    vertexwise quasi-isomorphism whose squares commute up to homotopy is an
    isomorphism of coherent diagrams."""
    dv = Complex.zero(values[1].shape, values[1].field)  # D_1
    out_values, out_arrows = {1: values[1]}, {}
    for i, orient in enumerate(q.orientation):
        v, w = i + 1, i + 2
        x, y, xv = values[v], values[w], out_values[v]
        if orient == "F":
            f, incl = arrows[(v, w)], cone_inclusion(ChainMap.identity(x))
            c = incl.tgt
        else:
            g, proj = arrows[(w, v)], fiber_projection(ChainMap.identity(x))
            c = proj.src
        dw = c.direct_sum(dv)
        xw, at_v, at_w = y.direct_sum(dw), [(x, 0), (dv, 0)], [(y, 0), (c, 0), (dv, 0)]
        # the degrees of X_w + C + D_v contain those of X_v + D_v
        if orient == "F":
            out_arrows[(v, w)] = block_map(xv, at_v, xw, at_w, xw.degrees(), lambda d: [
                [f.comp(d), None], [incl.comp(d), None], [None, identity_at(dv.term(d))]])
        else:
            out_arrows[(w, v)] = block_map(xw, at_w, xv, at_v, xw.degrees(), lambda d: [
                [g.comp(d), proj.comp(d), None], [None, None, identity_at(dv.term(d))]])
        out_values[w], dv = xw, dw
    return out_values, out_arrows


# ---------------------------------------------------------------------------
# honest pushouts and pullbacks of complexes


def _quotient_data(m: Complex, incl: ChainMap):
    """Projection data for M / im(incl), incl degreewise mono."""
    sh = m.shape
    proj: Dict[int, Dict] = {}
    sec: Dict[int, Dict] = {}
    dims: Dict[int, Dict] = {}
    for d in sorted(set(m.degrees()) | set(incl.src.degrees())):
        proj[d], sec[d], dims[d] = {}, {}, {}
        for e in sh.elements:
            try:
                proj[d][e], sec[d][e] = complement_projection(incl.comp(d)[e])
            except ValueError:
                raise RuntimeError("quotient along a non-mono map") from None
            dims[d][e] = sec[d][e].ncols
    return proj, sec, dims


def quotient_complex(m: Complex, incl: ChainMap) -> Tuple[Complex, ChainMap]:
    """(Q, pi: M -> Q) with Q = M / im(incl) for a degreewise mono chain map."""
    fieldd, sh = m.field, m.shape
    proj, sec, dims = _quotient_data(m, incl)
    degs = sorted(d for d in proj if any(dims[d][e] for e in sh.elements))
    terms = {}
    diffs = {}
    for d in degs:
        mats = {}
        for (a, b) in sh.covers:
            mats[(a, b)] = proj[d][b] @ m.term(d).mats[(a, b)] @ sec[d][a]
        terms[d] = Rep(sh, fieldd, {e: dims[d][e] for e in sh.elements}, mats, validate=False)
        if d - 1 in terms:  # degs ascend, and Complex() would drop a differential into a zero term
            diffs[d] = {e: proj[d - 1][e] @ m.diff(d)[e] @ sec[d][e] for e in sh.elements}
    qc = Complex(sh, fieldd, terms, diffs, validate=False)
    pi = ChainMap(m, qc, {d: {e: proj[d][e] for e in sh.elements} for d in proj})
    return qc, pi


def kernel_complex(psi: ChainMap) -> Tuple[Complex, ChainMap]:
    """(K, incl: K -> M) the degreewise kernel of psi: M -> R (psi epi)."""
    m = psi.src
    fieldd, sh = m.field, m.shape
    kbasis: Dict[int, Dict] = {}
    for d in sorted(set(m.degrees()) | set(psi.tgt.degrees())):
        kbasis[d] = {}
        for e in sh.elements:
            mat = psi.comp(d)[e]
            kbasis[d][e] = kernel_basis(mat)
            if kbasis[d][e].ncols != mat.ncols - mat.nrows:  # the kernel has ncols - rank columns
                raise RuntimeError("kernel along a non-epi map")
    degs = sorted(d for d in kbasis if any(kbasis[d][e].ncols for e in sh.elements))
    terms = {}
    diffs = {}
    for d in degs:
        mats = {}
        for (a, b) in sh.covers:
            img = m.term(d).mats[(a, b)] @ kbasis[d][a]
            sol = solve(kbasis[d][b], img)
            if sol is None:
                raise RuntimeError("kernel not preserved by structure map")
            mats[(a, b)] = sol
        terms[d] = Rep(sh, fieldd, {e: kbasis[d][e].ncols for e in sh.elements}, mats, validate=False)
        if d - 1 in kbasis:
            phi = {}
            for e in sh.elements:
                img = m.diff(d)[e] @ kbasis[d][e]
                sol = solve(kbasis[d - 1][e], img)
                if sol is None:
                    raise RuntimeError("kernel not preserved by differential")
                phi[e] = sol
            diffs[d] = phi
    kc = Complex(sh, fieldd, terms, diffs, validate=False)
    incl = ChainMap(kc, m, {d: {e: kbasis[d][e] for e in sh.elements} for d in kbasis})
    return kc, incl


def pushout(up: ChainMap, down: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """Honest pushout of T <-up- L -down-> B along a degreewise mono `up`.

    Returns (P, T -> P, B -> P); the square commutes strictly and is a
    homotopy pushout because `up` is a cofibration.  The legs are the column
    blocks of the quotient map T + B -> P.
    """
    src, t, b = up.src, up.tgt, down.tgt
    tsum = t.direct_sum(b)
    iota = block_map(src, [(src, 0)], tsum, [(t, 0), (b, 0)],
                     sorted(set(src.degrees()) | set(tsum.degrees())),
                     lambda d: [[up.comp(d)], [negated(down.comp(d))]])
    p, pi = quotient_complex(tsum, iota)
    mt, mb = {}, {}
    for d in sorted(set(p.degrees()) | set(tsum.degrees())):
        tdims, bdims, pid = t.term(d).dims, b.term(d).dims, pi.comp(d)
        mt[d] = {e: m.submatrix(range(m.nrows), range(tdims[e])) for e, m in pid.items()}
        mb[d] = {e: m.submatrix(range(m.nrows), range(tdims[e], tdims[e] + bdims[e]))
                 for e, m in pid.items()}
    return p, ChainMap(t, p, mt), ChainMap(b, p, mb)


def pullback(down: ChainMap, up: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """Honest pullback of T -down-> R <-up- B along a degreewise epi `down`.

    Returns (A, A -> T, A -> B); strictly commuting homotopy pullback.  The
    legs are the row blocks of the kernel inclusion A -> T + B.
    """
    t, b, r = down.src, up.src, down.tgt
    tsum = t.direct_sum(b)
    psi = block_map(tsum, [(t, 0), (b, 0)], r, [(r, 0)],
                    sorted(set(tsum.degrees()) | set(r.degrees())),
                    lambda d: [[down.comp(d), negated(up.comp(d))]])
    a, incl = kernel_complex(psi)
    pt, pb = {}, {}
    for d in sorted(set(a.degrees()) | set(tsum.degrees())):
        tdims, bdims, inc = t.term(d).dims, b.term(d).dims, incl.comp(d)
        pt[d] = {e: m.submatrix(range(tdims[e]), range(m.ncols)) for e, m in inc.items()}
        pb[d] = {e: m.submatrix(range(tdims[e], tdims[e] + bdims[e]), range(m.ncols))
                 for e, m in inc.items()}
    return a, ChainMap(a, t, pt), ChainMap(a, b, pb)


# ---------------------------------------------------------------------------
# trimming: quotient away contractible junk after each fill (point spectator
# only), protecting designated monomorphisms so the fill invariants survive


def _trim_retract(p: Complex, protect: List[ChainMap]) -> Tuple[Complex, ChainMap]:
    """(P/A, pi) for a maximal contractible subcomplex A of the point-shape
    complex P with A disjoint from the images of the protected maps.

    From the top degree down, the unit vectors S_d that extend what is used in
    degree d pair with their images dS_d, which extend what is used in d - 1,
    so A_d is spanned by S_d and dS_(d+1).  The quotient reads only these
    spans, so A is handed to quotient_complex as terms without a differential."""
    e, fieldd, sh, k = (), p.field, p.shape, len(protect)
    # used[d]: the protected images in degree d, then the columns chosen for A
    used = {d: [m.comp(d)[e] for m in protect] for d in p.degrees()}

    def span(d):
        return Matrix.hstack(fieldd, used.get(d, []), nrows=p.term(d).dims[e])

    for d in reversed(p.degrees()):
        dim = p.term(d).dims[e]
        eye = Matrix.identity(fieldd, dim)
        pool_idx = complement_columns(span(d), eye)
        if not pool_idx:
            continue
        pool = eye.submatrix(range(dim), pool_idx)
        imgs = p.diff(d)[e] @ pool
        sel = complement_columns(span(d - 1), imgs)
        if sel:
            used[d].append(pool.submatrix(range(dim), sel))
            used[d - 1].append(imgs.submatrix(range(imgs.nrows), sel))
    a_cols = {d: cols[k:] for d, cols in used.items() if cols[k:]}
    if not a_cols:
        return p, ChainMap.identity(p)
    a = Complex(sh, fieldd, {d: Rep(sh, fieldd, {e: sum(c.ncols for c in cols)}, {}, validate=False)
                             for d, cols in a_cols.items()}, {}, validate=False)
    incl = {d: {e: Matrix.hstack(fieldd, cols)} for d, cols in a_cols.items()}
    return quotient_complex(p, ChainMap(a, p, incl))


def _dual_point_map(phi: ChainMap, dual_src: Complex, dual_tgt: Complex) -> ChainMap:
    comps = {}
    for d in sorted(set(dual_tgt.degrees()) | set(dual_src.degrees())):
        comps[d] = {(): phi.comp(-d)[()].transpose()}
    return ChainMap(dual_src, dual_tgt, comps)


def _trim_pushout(p: Complex, mt: ChainMap, mb: ChainMap):
    """Trim a pushout value, keeping the bottom inclusion a mono."""
    p2, pi = _trim_retract(p, [mb])
    return p2, pi.compose(mt), pi.compose(mb)


def _trim_pullback(a: Complex, pt: ChainMap, pb: ChainMap):
    """Trim a pullback value, keeping the bottom projection an epi (dually)."""
    ad = linear_dual_complex(a, target_shape=a.shape)
    bd = linear_dual_complex(pb.tgt, target_shape=a.shape)
    mono = _dual_point_map(pb, bd, ad)
    q, pi = _trim_retract(ad, [mono])
    qd = linear_dual_complex(q, target_shape=a.shape)
    iota = _dual_point_map(pi, qd, a)
    return qd, pt.compose(iota), pb.compose(iota)


# ---------------------------------------------------------------------------
# the AR diagram


@dataclass
class ARDiagram:
    q: LineQuiver
    window: MeshWindow
    spectator: Optional[Poset]
    fieldspec: FieldSpec
    embedding: Dict[int, Vertex]
    values: Dict[Vertex, Complex]
    arrows: Dict[Tuple[Vertex, Vertex], ChainMap]

    @property
    def n(self) -> int:
        return self.window.n

    # -- canonical forms ---------------------------------------------------

    def canonical(self, v: Vertex):
        """Graded homology dims (trivial spectator) at a window vertex."""
        val = self.values[v]
        if self.spectator is None:
            return homology_dims(val, ())
        out = {}
        degs = val.degrees()
        for d in range(min(degs), max(degs) + 1) if degs else []:
            from .derived import homology_rep
            h = homology_rep(val, d)
            if not h.is_zero():
                out[d] = dict(h.dims)
        return out

    def is_zero_at(self, v: Vertex) -> bool:
        return not self.canonical(v)

    # -- restriction ---------------------------------------------------------

    def restrict(self, q2: LineQuiver, embedding: Dict[int, Vertex]) -> Complex:
        """Restriction along a level-respecting embedding of q2; ValueError
        when the embedding sends a vertex outside the window."""
        outside = next((embedding[v] for v in q2.vertices if embedding[v] not in self.window), None)
        if outside is not None:
            raise ValueError(f"the embedding leaves the window {self.window}: "
                             f"vertex {outside} is not in it")
        vals = {v: self.values[embedding[v]] for v in q2.vertices}
        arrs = {(u, v): self.arrows[(embedding[u], embedding[v])] for (u, v) in q2.arrows()}
        return glue(q2.poset(), self.spectator, vals, arrs)

    # -- certificates ---------------------------------------------------------

    def square_certificate(self, sq: Tuple[Vertex, ...]) -> bool:
        left, top, bottom, right = sq
        square = Square(self.values[left], self.values[top], self.values[bottom],
                        self.values[right],
                        self.arrows[(left, top)], self.arrows[(left, bottom)],
                        self.arrows[(top, right)], self.arrows[(bottom, right)])
        return is_bicartesian(square)

    def verify(self) -> Dict[str, bool]:
        report = {"boundary_zero": True, "squares_bicartesian": True, "strict": True}
        for v in self.window.vertices():
            if v[1] in (0, self.n + 1) and not self.is_zero_at(v):
                report["boundary_zero"] = False
        try:
            for cov, phi in self.arrows.items():
                phi.validate()
        except ValueError:
            report["strict"] = False
        for sq in self.window.squares():
            if not self.square_certificate(sq):
                report["squares_bicartesian"] = False
                break
        return report

    # -- exports ---------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz source of the interior: the boundary rows and their arrows are left out."""
        lines = ["digraph ar {", '  rankdir="LR";']
        def vid(v):
            return f'"v{v[0]}_{v[1]}"'
        for v in sorted(self.window.vertices()):
            if v[1] in (0, self.n + 1):
                continue
            label = self._label(v)
            lines.append(f'  {vid(v)} [label="{label}"];')
        for (a, b) in sorted(self.arrows.keys()):
            if a[1] in (0, self.n + 1) or b[1] in (0, self.n + 1):
                continue
            lines.append(f"  {vid(a)} -> {vid(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_tikz(self) -> str:
        lines = ["\\begin{tikzpicture}[x=1.4cm,y=1.0cm]"]
        for v in sorted(self.window.vertices()):
            if v[1] in (0, self.n + 1):
                continue
            k, l = v
            x = 2 * k + l
            lines.append(f"  \\node (v{k}_{l}) at ({x},{l}) {{${self._label(v)}$}};")
        for (a, b) in sorted(self.arrows.keys()):
            if a[1] in (0, self.n + 1) or b[1] in (0, self.n + 1):
                continue
            lines.append(f"  \\draw[->] (v{a[0]}_{a[1]}) -- (v{b[0]}_{b[1]});")
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines) + "\n"

    def _label(self, v: Vertex) -> str:
        c = self.canonical(v)
        if not c:
            return "0"
        if self.spectator is None:
            return "+".join(f"k^{m}[{d}]" if m > 1 else f"k[{d}]" for d, m in sorted(c.items()))
        return str(c)


def ar_window(n: int, emb: Dict[int, Vertex]) -> MeshWindow:
    """The default window of build_ar: one column of margin on the left of
    the embedded zigzag, a fundamental domain on the right."""
    cols = [emb[l][0] for l in range(1, n + 1)]
    return MeshWindow(n, min(cols) - 1, max(cols) + n + 2)


def build_ar(q: LineQuiver, c: Complex, window: Optional[MeshWindow] = None,
             spectator: Optional[Poset] = None,
             embedding: Optional[Dict[int, Vertex]] = None) -> ARDiagram:
    """The coherent AR diagram of a complex over q on the given window."""
    emb = dict(embedding) if embedding is not None else embed_iQ(q)
    n = q.n
    cols = {l: emb[l][0] for l in q.vertices}
    win = ar_window(n, emb) if window is None else window
    if any(emb[v] not in win for v in q.vertices):
        raise ValueError("window too small for the embedding")
    fieldd = c.field
    vals, arrs = stiffen(q, *split(c, q.poset(), spectator))

    values: Dict[Vertex, Complex] = {}
    arrows: Dict[Tuple[Vertex, Vertex], ChainMap] = {}

    for v in q.vertices:
        values[emb[v]] = vals[v]
    for (u, v) in q.arrows():
        arrows[(emb[u], emb[v])] = arrs[(u, v)]

    zeroc = Complex.zero(spectator if spectator is not None else point_poset(), fieldd)
    for k in range(win.kmin, win.kmax + 1):
        values[(k, 0)] = zeroc

    def zarrow(a: Vertex, b: Vertex) -> ChainMap:
        return ChainMap.zero(values[a], values[b])

    def col_of(l: int) -> int:
        return cols[l]

    # right of the embedded zigzag: pushouts, columns left to right
    for k in range(win.kmin, win.kmax + 1):
        for l in range(1, n + 1):
            if k <= col_of(l):
                continue
            left, top, bottom, right = (k - 1, l), (k - 1, l + 1), (k, l - 1), (k, l)
            if left not in values:
                continue  # outside the buildable region (window cut)
            if bottom not in values:
                raise RuntimeError(f"fill order broken at {right}")
            if (left, bottom) not in arrows:
                arrows[(left, bottom)] = zarrow(left, bottom)
            p, mt, mb = pushout(arrows[(left, top)], arrows[(left, bottom)])
            if spectator is None:
                p, mt, mb = _trim_pushout(p, mt, mb)
            values[right] = p
            arrows[(top, right)] = mt
            arrows[(bottom, right)] = mb
        # contractible top corner for the next column's fills
        if (k, n) in values and k >= col_of(n):
            incl = cone_inclusion(ChainMap.identity(values[(k, n)]))
            values[(k, n + 1)] = incl.tgt
            arrows[((k, n), (k, n + 1))] = incl

    # left of the zigzag: pullbacks, columns right to left
    for k in range(win.kmax, win.kmin - 1, -1):
        if k < col_of(n) and (k + 1, n) in values:
            ev = fiber_projection(ChainMap.identity(values[(k + 1, n)]))
            values[(k, n + 1)] = ev.src
            arrows[((k, n + 1), (k + 1, n))] = ev
        for l in range(n, 0, -1):
            if k >= col_of(l):
                continue
            here, top, bottom, right = (k, l), (k, l + 1), (k + 1, l - 1), (k + 1, l)
            if right not in values or top not in values:
                continue
            if (bottom, right) not in arrows:
                arrows[(bottom, right)] = zarrow(bottom, right)
            a, pt, pb = pullback(arrows[(top, right)], arrows[(bottom, right)])
            if spectator is None:
                a, pt, pb = _trim_pullback(a, pt, pb)
            values[here] = a
            arrows[(here, top)] = pt
            arrows[(here, bottom)] = pb

    # remaining zero arrows (through the bottom boundary, window edges)
    for cov in win.covers():
        a, b = cov
        if cov in arrows:
            continue
        if a in values and b in values:
            if values[a].is_zero_object() or values[b].is_zero_object():
                arrows[cov] = zarrow(a, b)
            else:
                raise RuntimeError(f"missing arrow {cov}")
    missing = [v for v in win.vertices() if v not in values]
    if missing:
        raise RuntimeError(f"window vertices not built: {missing}")
    return ARDiagram(q, win, spectator, fieldd, emb, values, arrows)


def merge_window_complex(d: ARDiagram) -> Complex:
    """Assemble the vertexwise diagram into a single complex over the window
    poset (times the spectator shape, if any)."""
    return glue(d.window.poset(), d.spectator, d.values, d.arrows)


# ---------------------------------------------------------------------------
# suspension identification and orbit count


def check_flip_sigma(d: ARDiagram) -> Dict[Vertex, bool]:
    """Vertexwise check that the value at f(v) is the suspension of the value
    at v, for interior v with both vertices in the window."""
    out = {}
    n = d.n
    for v in d.window.interior():
        fv = mesh_map_f(n, v)
        if fv not in d.window:
            continue
        out[v] = d.canonical(fv) == {deg + 1: m for deg, m in d.canonical(v).items()}
    return out


def suspension_orbits(n_or_diagram) -> int:
    """Number of f = Sigma orbits of interior mesh vertices, one per interval
    (Happel); accepts an ARDiagram."""
    n = n_or_diagram.n if isinstance(n_or_diagram, ARDiagram) else int(n_or_diagram)
    return len(happel_table(LineQuiver.linear(n)))


def mesh_table_csv(table: Dict[Tuple[Vertex, Vertex], int]) -> str:
    lines = ["u_k,u_l,v_k,v_l,dim"]
    for (u, v) in sorted(table):
        lines.append(f"{u[0]},{u[1]},{v[0]},{v[1]},{table[(u, v)]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the mesh-object dictionary and the Happel comparison


_MESH_CACHE: Dict[Tuple[int, str, Vertex], DerivedObject] = {}


def mesh_object(q: LineQuiver, u: Vertex, fieldspec: Optional[FieldSpec] = None) -> DerivedObject:
    """The indecomposable attached to an interior mesh vertex.

    On the canonical embedding slice (read top to bottom) these are the
    projectives; the translation t acts as the AR translation.

    The result is cached by (n, orientation, u), without the field, and
    fieldspec (GF() by default) only chooses where the Coxeter functors are
    computed.  This is sound because the normal form does not depend on the
    field: it is a shifted interval, and the Coxeter functors take shifted
    intervals to shifted intervals by the combinatorics of the AR quiver of
    A_n, the same over every field.
    """
    from .derived import object_complex
    from .functors import coxeter_minus, coxeter_plus
    from .linalg import GF
    from .rep import projective_interval
    k, l = u
    n = q.n
    if not (1 <= l <= n):
        raise ValueError("mesh objects live at interior vertices")
    key = (n, q.orientation, u)
    if key in _MESH_CACHE:
        return _MESH_CACHE[key]
    fs = fieldspec or GF()
    # |j| Coxeter steps along row l from the projective P_v on the slice,
    # one per column; a column already in the cache is read, not recomputed
    v = n + 1 - l
    j = -k - embed_iQ(q)[v][0]
    step = 1 if j > 0 else -1
    out = DerivedObject.from_dict({(0, projective_interval(q, v)): 1})
    for col in range(k + j - step, k - step, -step):
        at = (n, q.orientation, (col, l))
        if at not in _MESH_CACHE:
            cur = object_complex(q, out, fs)
            _MESH_CACHE[at] = normalize(q, coxeter_plus(q, cur) if j > 0 else coxeter_minus(q, cur))
        out = _MESH_CACHE[at]
    _MESH_CACHE[key] = out
    return out


def mesh_hom_table(q: LineQuiver, window: MeshWindow) -> Dict[Tuple[Vertex, Vertex], int]:
    """dim Hom(A(u), A(u')) over all pairs of interior window vertices."""
    from .derived import derived_hom_dim
    interior = window.interior()
    objs = {u: mesh_object(q, u) for u in interior}
    table = {}
    for u in interior:
        for u2 in interior:
            table[(u, u2)] = derived_hom_dim(q, objs[u], objs[u2], 0)
    return table


def check_mesh_relations(q: LineQuiver, window: MeshWindow) -> Dict[str, bool]:
    """Happel comparison: entries in {0,1}, support = shapes.mesh_hom,
    and every mesh triangle A(u) -> sum of neighbours -> A(t^-1 u) is
    distinguished (checked as cone(A(u) -> middle) = A(t^-1 u))."""
    table = mesh_hom_table(q, window)
    report = {"entries_01": True, "support_matches": True, "triangles": True}
    for (u, u2), val in table.items():
        if val not in (0, 1):
            report["entries_01"] = False
        if val != mesh_hom(q.n, u, u2):
            report["support_matches"] = False
    for u in window.interior():
        if (u[0] + 1, u[1]) in window and not _mesh_triangle_ok(q, u):
            report["triangles"] = False
            break
    return report


def _mesh_triangle_ok(q: LineQuiver, u: Vertex) -> bool:
    """cone(A(u) -> sum of interior mesh successors) = A(t^-1 u): the mesh
    triangle at u is distinguished (equivalently the almost-split square is
    bicartesian)."""
    from .derived import object_complex
    from .hom_chain import hom_class_representative, projective_model, tuple_into_sum
    from .linalg import GF
    fs = GF()
    n = q.n
    k, l = u
    succs = [v for v in ((k, l + 1), (k + 1, l - 1)) if 1 <= v[1] <= n]
    src_obj = mesh_object(q, u)
    expect = mesh_object(q, (k + 1, l))
    pmodel, _aug = projective_model(q, src_obj, fs)
    legs = []
    for m in succs:
        tgt = object_complex(q, mesh_object(q, m), fs)
        rep = hom_class_representative(pmodel, tgt)
        if rep is None:
            return False
        legs.append(rep)
    if not legs:
        return normalize(q, pmodel.shift(1)) == expect
    phi = tuple_into_sum(legs)
    return normalize(q, cone(phi)) == expect
