"""Bounded complexes of representations: cones, shifts, homology, canonical
forms in the bounded derived category of a line quiver.

Conventions: homological grading, differential d_k : C_k -> C_{k-1};
(shift(C, m))_k = C_{k-m} with differential scaled by (-1)^m; the cone of
phi: X -> Y has differential [[-d_X, 0], [phi, d_Y]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .linalg import FieldSpec, Matrix, kernel_basis, rref, solve
from .rep import (Interval, Rep, all_intervals, decompose, direct_sum, euler_form, interval_module,
                  interval_presentation)
from .shapes import Element, LineQuiver, Poset, point_poset

RepMap = Dict[Element, Matrix]


class Complex:
    """A bounded chain complex of Reps over a fixed shape.

    Immutable: only the constructor writes terms and diffs, so absent degrees
    can return the shared zero rep and zero matrices, and the homology bases
    are computed once per complex and kept with it (see homology_basis)."""

    def __init__(self, shape: Poset, field: FieldSpec, terms: Dict[int, Rep],
                 diffs: Dict[int, RepMap], validate: bool = True):
        self.shape = shape
        self.field = field
        self.terms = {d: t for d, t in terms.items() if not t.is_zero()}
        self.diffs: Dict[int, RepMap] = {}
        for d, phi in diffs.items():
            if d in self.terms and d - 1 in self.terms:
                self.diffs[d] = phi
        # degree -> element -> (boundaries, representatives); written only by homology_basis
        self._homology: Dict[int, Dict[Element, Tuple[Matrix, Matrix]]] = {}
        if validate:
            self.validate()

    # -- access ----------------------------------------------------------

    def degrees(self) -> List[int]:
        return sorted(self.terms.keys())

    def term(self, d: int) -> Rep:
        t = self.terms.get(d)
        return t if t is not None else Rep.zero(self.shape, self.field)

    def diff(self, d: int) -> RepMap:
        """d_d : C_d -> C_{d-1} (zero map by default)."""
        got = self.diffs.get(d)
        if got is not None:
            return got
        src, tgt = self.term(d), self.term(d - 1)
        return {e: Matrix.zeros(self.field, tgt.dims[e], src.dims[e]) for e in self.shape.elements}

    def is_zero_object(self) -> bool:
        return all(t.is_zero() for t in self.terms.values())

    def total_dim(self) -> int:
        return sum(t.total_dim() for t in self.terms.values())

    def validate(self):
        for d in list(self.diffs):
            phi, src, tgt = self.diff(d), self.term(d), self.term(d - 1)
            for e in self.shape.elements:
                m = phi[e]
                if (m.nrows, m.ncols) != (tgt.dims[e], src.dims[e]):
                    raise ValueError(f"differential {d} at {e} has wrong shape")
            # chain map property of d wrt the shape structure
            for (a, b) in self.shape.covers:
                if (phi[b] @ src.mats[(a, b)]) != (tgt.mats[(a, b)] @ phi[a]):
                    raise ValueError(f"differential {d} is not a map of reps at cover {a}->{b}")
        for d in self.degrees():
            if d in self.diffs and d + 1 in self.diffs:
                lo, hi = self.diff(d), self.diff(d + 1)
                for e in self.shape.elements:
                    if not (lo[e] @ hi[e]).is_zero():
                        raise ValueError(f"d.d != 0 at {e} (degrees {d + 1}->{d - 1})")

    def __repr__(self):
        degs = self.degrees()
        return f"Complex({self.shape.name}, degrees {degs})"

    # -- constructions -----------------------------------------------------

    @staticmethod
    def zero(shape: Poset, field: FieldSpec) -> "Complex":
        return Complex(shape, field, {}, {}, validate=False)

    @staticmethod
    def from_rep(x: Rep, degree: int = 0) -> "Complex":
        return Complex(x.shape, x.field, {degree: x}, {}, validate=False)

    def shift(self, m: int) -> "Complex":
        """Sigma^m: degrees move up by m, differentials pick up (-1)^m."""
        terms = {d + m: t for d, t in self.terms.items()}
        sign = -1 if m % 2 else 1
        diffs = {}
        for d, phi in self.diffs.items():
            diffs[d + m] = {e: (mat if sign == 1 else -mat) for e, mat in phi.items()}
        return Complex(self.shape, self.field, terms, diffs, validate=False)

    def direct_sum(self, other: "Complex") -> "Complex":
        """Termwise sum; a differential is stored where a summand stores one."""
        return shifted_sum([(self, 0), (other, 0)])


@dataclass
class ChainMap:
    """A degreewise map of complexes commuting with differentials and shape maps."""

    src: Complex
    tgt: Complex
    comps: Dict[int, RepMap]  # comps[d]: src.term(d) -> tgt.term(d)

    def comp(self, d: int) -> RepMap:
        got = self.comps.get(d)
        if got is not None:
            return got
        s, t = self.src.term(d), self.tgt.term(d)
        return {e: Matrix.zeros(self.src.field, t.dims[e], s.dims[e]) for e in self.src.shape.elements}

    def validate(self):
        degs = sorted(set(self.src.degrees()) | set(self.tgt.degrees()))
        for d in degs:
            f_d, f_dm1 = self.comp(d), self.comp(d - 1)
            ds, dt = self.src.diff(d), self.tgt.diff(d)
            for e in self.src.shape.elements:
                if (f_dm1[e] @ ds[e]) != (dt[e] @ f_d[e]):
                    raise ValueError(f"not a chain map at {e}, degree {d}")
            s, t = self.src.term(d), self.tgt.term(d)
            for (a, b) in self.src.shape.covers:
                if (f_d[b] @ s.mats[(a, b)]) != (t.mats[(a, b)] @ f_d[a]):
                    raise ValueError(f"component {d} not a rep map at {a}->{b}")

    @staticmethod
    def zero(src: Complex, tgt: Complex) -> "ChainMap":
        return ChainMap(src, tgt, {})

    @staticmethod
    def identity(c: Complex) -> "ChainMap":
        return ChainMap(c, c, {d: {e: Matrix.identity(c.field, c.term(d).dims[e])
                                   for e in c.shape.elements} for d in c.degrees()})

    def compose(self, earlier: "ChainMap") -> "ChainMap":
        """self o earlier, composed in the degrees where both store a
        component; in every other degree one factor, and so the composite, is zero."""
        comps = {}
        for d in sorted(self.comps.keys() & earlier.comps.keys()):
            f, g = self.comps[d], earlier.comps[d]
            comps[d] = {e: f[e] @ g[e] for e in self.src.shape.elements}
        return ChainMap(earlier.src, self.tgt, comps)


# ---------------------------------------------------------------------------
# termwise direct sums of shifted complexes, and block maps between them


Part = Tuple[Complex, int]  # (c, s): degree d holds c_{d-s}
Grid = List[List[Optional[RepMap]]]  # one block per (row part, column part); None is zero


def _part_dims(parts: List[Part], d: int) -> List[Dict[Element, int]]:
    # an absent term reads as zeros, not as Rep.zero: the shared zero rep and
    # its shape refer to each other, so on the shape of a short-lived part it
    # would stay in memory until the cycle collector runs
    return [c.terms[d - s].dims if d - s in c.terms else dict.fromkeys(c.shape.elements, 0)
            for c, s in parts]


def _blocks(field: FieldSpec, elements, grid: Grid, rows: List[Dict], cols: List[Dict]) -> RepMap:
    return {e: Matrix.block(field, [[b if b is None else b[e] for b in row] for row in grid],
                            [r[e] for r in rows], [c[e] for c in cols])
            for e in elements}


def block_complex(parts: List[Part], degs: List[int],
                  diff: Callable[[int], Optional[Grid]]) -> Complex:
    """The termwise sum of the parts in the degrees degs.  diff(d) is the
    differential out of degree d as a grid, rows the parts in degree d - 1
    and columns the parts in degree d, or None to store no differential.
    diff(d) is not called where the term in degree d or d - 1 is zero: the
    Complex would drop that differential."""
    shape, field = parts[0][0].shape, parts[0][0].field
    terms = {d: direct_sum([c.terms[d - s] for c, s in parts if d - s in c.terms], shape, field)
             for d in degs}
    nonzero = {d for d, t in terms.items() if not t.is_zero()}
    diffs = {}
    for d in degs:
        if d not in nonzero or d - 1 not in nonzero:
            continue
        grid = diff(d)
        if grid is not None:
            diffs[d] = _blocks(field, shape.elements, grid, _part_dims(parts, d - 1),
                               _part_dims(parts, d))
    return Complex(shape, field, terms, diffs, validate=False)


def shifted_sum(parts: List[Part]) -> Complex:
    """The termwise sum of the parts (c, s), each c shifted by s as
    Complex.shift does: its differentials pick up (-1)^s.  A differential is
    stored where a part stores one."""
    def diff(d: int) -> Optional[Grid]:
        blocks = [c.diffs.get(d - s) for c, s in parts]
        if not any(blocks):
            return None
        signed = [b if b is None or s % 2 == 0 else negated(b) for b, (_, s) in zip(blocks, parts)]
        return [[signed[i] if k == i else None for k in range(len(parts))]
                for i in range(len(parts))]
    return block_complex(parts, sorted({d + s for c, s in parts for d in c.degrees()}), diff)


def block_map(src: Complex, src_parts: List[Part], tgt: Complex, tgt_parts: List[Part],
              degs: List[int], grid: Callable[[int], Grid]) -> ChainMap:
    """The chain map src -> tgt between sums of parts whose component in each
    degree d of degs is the grid(d), rows tgt_parts and columns src_parts."""
    return ChainMap(src, tgt, {d: _blocks(src.field, src.shape.elements, grid(d),
                                          _part_dims(tgt_parts, d), _part_dims(src_parts, d))
                               for d in degs})


def identity_at(r: Rep) -> RepMap:
    """The identity of r at every element."""
    return {e: Matrix.identity(r.field, n) for e, n in r.dims.items()}


def negated(m: RepMap) -> RepMap:
    """-m at every element."""
    return {e: -x for e, x in m.items()}


def cone(phi: ChainMap) -> Complex:
    """Mapping cone with differential [[-d_X, 0], [phi, d_Y]]."""
    x, y = phi.src, phi.tgt
    return block_complex([(x, 1), (y, 0)],
                         sorted(set(d + 1 for d in x.degrees()) | set(y.degrees())),
                         lambda d: [[negated(x.diff(d - 1)), None], [phi.comp(d - 1), y.diff(d)]])


def cone_inclusion(phi: ChainMap, c: Optional[Complex] = None) -> ChainMap:
    """The canonical chain map Y -> cone(phi)."""
    cn = c if c is not None else cone(phi)
    x, y = phi.src, phi.tgt
    return block_map(y, [(y, 0)], cn, [(x, 1), (y, 0)], cn.degrees(),
                     lambda d: [[None], [identity_at(y.term(d))]])


def cone_projection(phi: ChainMap, c: Optional[Complex] = None) -> ChainMap:
    """The canonical chain map cone(phi) -> Sigma X."""
    cn = c if c is not None else cone(phi)
    x, y = phi.src, phi.tgt
    return block_map(cn, [(x, 1), (y, 0)], x.shift(1), [(x, 1)], cn.degrees(),
                     lambda d: [[identity_at(x.term(d - 1)), None]])


def fiber(phi: ChainMap) -> Complex:
    return cone(phi).shift(-1)


def fiber_projection(phi: ChainMap) -> ChainMap:
    """The canonical chain map fib(phi) -> X."""
    fib = fiber(phi)
    x = phi.src
    return block_map(fib, [(x, 0), (phi.tgt, -1)], x, [(x, 0)], fib.degrees(),
                     lambda d: [[identity_at(x.term(d)), None]])


# ---------------------------------------------------------------------------
# restriction along maps of shapes, and gluing vertexwise diagrams


def restrict(c: Complex, shape: Poset, at: Callable[[Element], Element]) -> Complex:
    """at^* c: the complex over shape whose value at e is the value of c at
    at(e).  at must send covers of shape to covers of c.shape; only the
    stored differentials of c are carried over."""
    terms = {}
    for d in c.degrees():
        t = c.term(d)
        terms[d] = Rep(shape, c.field, {e: t.dims[at(e)] for e in shape.elements},
                       {(a, b): t.mats[(at(a), at(b))] for (a, b) in shape.covers},
                       validate=False)
    diffs = {d: {e: phi[at(e)] for e in shape.elements} for d, phi in c.diffs.items()}
    return Complex(shape, c.field, terms, diffs, validate=False)


def restrict_map(c: Complex, src: Complex, tgt: Complex, at_src: Callable[[Element], Element],
                 at_tgt: Callable[[Element], Element]) -> ChainMap:
    """The chain map between the restrictions src = at_src^* c and
    tgt = at_tgt^* c given by the maps at_src(e) -> at_tgt(e) of c.shape."""
    return ChainMap(src, tgt, {d: {e: c.term(d).path_map(at_src(e), at_tgt(e))
                                   for e in src.shape.elements}
                               for d in c.degrees()})


def vertex_key(v, r, spec: Optional[Poset]):
    """The element over vertex v and spectator element r of base x spec
    (of base itself when there is no spectator)."""
    return v if spec is None else (v, r)


def slices(c: Complex, shape: Poset, at: Callable[[Element, Element], Element]
           ) -> Tuple[Callable[[Element], Complex], Callable[[Element, Element], ChainMap]]:
    """(value, action) reading a complex over a product one column at a
    time: value(w) is restrict(c, shape, r -> at(w, r)) and action(u, v) the
    chain map value(u) -> value(v) given by the maps at(u, r) -> at(v, r) of
    c.shape.  Each is built once per argument, as many callers ask for the
    same column or action again."""
    @lru_cache(maxsize=None)
    def value(w: Element) -> Complex:
        return restrict(c, shape, lambda r: at(w, r))

    @lru_cache(maxsize=None)
    def action(u: Element, v: Element) -> ChainMap:
        return restrict_map(c, value(u), value(v), lambda r: at(u, r), lambda r: at(v, r))

    return value, action


def split(c: Complex, base: Poset, spec: Optional[Poset]) -> Tuple[Dict, Dict]:
    """(values, arrows) of a complex over base x spec (over base when spec is
    None): the complex over spec (over the point) at each vertex of base and
    the chain map along each cover of base."""
    value, action = slices(c, spec if spec is not None else point_poset(),
                           lambda v, r: vertex_key(v, r, spec))
    return {v: value(v) for v in base.elements}, {cov: action(*cov) for cov in base.covers}


def glue(base: Poset, spec: Optional[Poset], values: Dict, arrows: Dict) -> Complex:
    """Inverse of split: one complex over base x spec (over base when spec is
    None) from the complexes at the vertices of base and the chain maps along
    its covers."""
    shape = base if spec is None else base.product(spec)
    spec_elems = [()] if spec is None else spec.elements
    field = next(iter(values.values())).field
    degs = sorted({d for val in values.values() for d in val.degrees()})
    terms = {}
    diffs: Dict[int, RepMap] = {}
    for d in degs:
        dims = {vertex_key(v, r, spec): values[v].term(d).dims[r]
                for v in base.elements for r in spec_elems}
        mats = {}
        for (x, y) in shape.covers:
            (vx, rx), (vy, ry) = ((x, ()), (y, ())) if spec is None else (x, y)
            if vx == vy:
                mats[(x, y)] = values[vx].term(d).mats[(rx, ry)]
            else:
                mats[(x, y)] = arrows[(vx, vy)].comp(d)[rx]
        terms[d] = Rep(shape, field, dims, mats, validate=False)
        diffs[d] = {}
        for v in base.elements:
            phi = values[v].diff(d)
            for r in spec_elems:
                diffs[d][vertex_key(v, r, spec)] = phi[r]
    return Complex(shape, field, terms, diffs, validate=False)


# ---------------------------------------------------------------------------
# homology


def homology_basis(c: Complex, d: int, e: Element) -> Tuple[Matrix, Matrix]:
    """(boundaries, representatives) of H_d(c) at e: a basis of im(d_{d+1}),
    and the kernel-basis columns of d_d that extend it to a basis of the
    cycles.  A differential that c does not store, or whose matrix at e is
    zero, is read instead of eliminated, with the same matrices as the
    elimination gives:
    - d_d zero: the cycles are the whole term, the identity;
    - d_{d+1} zero: there are no boundaries (an n x 0 basis), and the
      representatives are the cycles;
    - otherwise one rref([d_{d+1} | kernel_basis(d_d)]) gives both: its
      pivots in the first block are the columns of d_{d+1} that
      column_space_basis picks, those in the second block the cycles that
      complement_columns picks over them.
    Computed for every element of degree d on first use and kept on c,
    which no code changes after construction."""
    got = c._homology.get(d)
    if got is None:
        lo, hi, dims = c.diffs.get(d), c.diffs.get(d + 1), c.term(d).dims
        got = {}
        for x in c.shape.elements:
            if lo is None or lo[x].is_zero():
                z = Matrix.identity(c.field, dims[x])
            else:
                z = kernel_basis(lo[x])
            if hi is None or hi[x].is_zero():
                got[x] = (Matrix.zeros(c.field, dims[x], 0), z)
            else:
                b, k = hi[x], hi[x].ncols
                _, pivots = rref(Matrix.hstack(c.field, [b, z], nrows=dims[x]))
                got[x] = (b.submatrix(range(b.nrows), [p for p in pivots if p < k]),
                          z.submatrix(range(z.nrows), [p - k for p in pivots if p >= k]))
        c._homology[d] = got
    return got[e]


def homology_coordinates(c: Complex, d: int, e: Element, cycles: Matrix) -> Matrix:
    """The classes of the given d-cycles of c at e, as columns of coordinates
    in the representatives of homology_basis(c, d, e)."""
    bnd, reps = homology_basis(c, d, e)
    if not bnd.ncols and reps.nrows == reps.ncols == cycles.nrows:
        return cycles  # no boundaries and every vector a cycle: reps is the identity
    basis = Matrix.hstack(c.field, [bnd, reps], nrows=cycles.nrows)
    sol = solve(basis, cycles)
    if sol is None:
        raise RuntimeError(f"not a cycle of degree {d} at {e}")
    return sol.submatrix(range(bnd.ncols, bnd.ncols + reps.ncols), range(cycles.ncols))


def homology_rep(c: Complex, d: int) -> Rep:
    """H_d(c) as a Rep, with induced structure maps."""
    shape = c.shape
    reps = {e: homology_basis(c, d, e)[1] for e in shape.elements}
    mats = {(a, b): homology_coordinates(c, d, b, c.term(d).mats[(a, b)] @ reps[a])
            for (a, b) in shape.covers}
    return Rep(shape, c.field, {e: r.ncols for e, r in reps.items()}, mats, validate=False)


def homology_dims(c: Complex, e: Element) -> Dict[int, int]:
    """Graded homology dimensions of the value complex at one element."""
    out = {}
    degs = c.degrees()
    if not degs:
        return out
    for d in range(min(degs), max(degs) + 1):
        h = homology_basis(c, d, e)[1].ncols
        if h:
            out[d] = h
    return out


def is_acyclic(c: Complex) -> bool:
    """Whether H_d(c) vanishes in every degree, read from the column counts
    of the homology bases."""
    degs = c.degrees()
    return not degs or not any(homology_basis(c, d, e)[1].ncols
                               for d in range(min(degs), max(degs) + 1) for e in c.shape.elements)


def minimize(c: Complex) -> Complex:
    """Replace by the homology complex with zero differentials.

    Legitimate up to quasi-isomorphism only over hereditary shapes (line
    quivers); callers over product shapes must not use this.  A complex
    that stores no differential is its own homology complex.  The
    object-level reflections (functors._reflect_homology, behind
    reflect_plus/reflect_minus without a spectator) start from it.
    """
    if not c.diffs:
        return c
    degs = c.degrees()
    terms = {}
    for d in range(min(degs), max(degs) + 1) if degs else []:
        h = homology_rep(c, d)
        if not h.is_zero():
            terms[d] = h
    return Complex(c.shape, c.field, terms, {}, validate=False)


# ---------------------------------------------------------------------------
# canonical forms in D^b of a line quiver


@dataclass(frozen=True)
class DerivedObject:
    """Multiset of (shift, interval) pairs: the Krull-Schmidt normal form."""

    summands: Tuple[Tuple[int, Interval, int], ...]  # (shift, interval, multiplicity)

    @staticmethod
    def from_dict(d: Dict[Tuple[int, Interval], int]) -> "DerivedObject":
        items = tuple(sorted((s, itv, m) for (s, itv), m in d.items() if m))
        return DerivedObject(items)

    def as_dict(self) -> Dict[Tuple[int, Interval], int]:
        return {(s, itv): m for (s, itv, m) in self.summands}

    def shift(self, m: int) -> "DerivedObject":
        return DerivedObject(tuple(sorted((s + m, itv, mult) for (s, itv, mult) in self.summands)))

    def is_zero(self) -> bool:
        return not self.summands

    def total_dim(self) -> int:
        return sum(m * (itv.j - itv.i + 1) for (_, itv, m) in self.summands)

    def indecomposable(self) -> bool:
        return len(self.summands) == 1 and self.summands[0][2] == 1

    def __str__(self):
        if not self.summands:
            return "0"
        parts = []
        for (s, itv, m) in self.summands:
            base = str(itv) if s == 0 else f"S^{s}{itv}"
            parts.append(base if m == 1 else f"{m}·{base}")
        return " + ".join(parts)


def normalize(q: LineQuiver, c: Complex) -> DerivedObject:
    """Canonical form: over a hereditary shape a complex splits as the sum of
    its shifted homologies; with no differential stored, its terms."""
    out: Dict[Tuple[int, Interval], int] = {}
    degs = c.degrees()
    for d in range(min(degs), max(degs) + 1) if degs else []:
        h = homology_rep(c, d) if c.diffs else c.term(d)
        if h.is_zero():
            continue
        for itv, m in decompose(q, h).items():
            out[(d, itv)] = out.get((d, itv), 0) + m
    return DerivedObject.from_dict(out)


def object_complex(q: LineQuiver, obj: DerivedObject, field: FieldSpec) -> Complex:
    """A zero-differential chain model of a canonical form."""
    terms: Dict[int, Rep] = {}
    for (s, itv, m) in obj.summands:
        add = direct_sum([interval_module(q, itv.i, itv.j, field)] * m, q.poset(), field)
        terms[s] = terms[s].direct_sum(add) if s in terms else add
    return Complex(q.poset(), field, terms, {}, validate=False)


def presentation_cone(q: LineQuiver, obj: DerivedObject, value: Callable[[int], Complex],
                      action: Callable[[int, int], ChainMap], shape: Poset, field: FieldSpec
                      ) -> Tuple[Complex, List[Part], List[Tuple[int, int]]]:
    """The minimal projective resolutions 0 -> P1 -> P0 -> M[i,j] -> 0 of
    rep.interval_presentation, one for each copy of each summand
    Sigma^s M[i,j] of obj and shifted by s, with each P_v replaced by
    value(v) and each inclusion P_w ⊂ P_v by action(w, v): value(w) ->
    value(v), as slices returns them.  That is the cone of one block map
    from the sum of the P1 parts to the sum of the P0 parts, or the sum of
    the P0 parts when there is no P1 part; shape and field give the zero
    complex of a zero obj.
    Returns the complex, its parts in order (the P1 parts shifted once more,
    then the P0 parts), and for each P0 part (k, v): it is the top v of the
    k-th copy of a summand, counted in the order of obj.summands."""
    p0: List[Part] = []
    p1: List[Part] = []
    tops: List[Tuple[int, int]] = []
    entries: List[Tuple[int, int, int, int, int]] = []  # (P0 part, P1 part, sign, v, w)
    copies = 0
    for (s, itv, mult) in obj.summands:
        itv_tops, relations = interval_presentation(q, itv)
        for _ in range(mult):
            row = {v: len(p0) + k for k, v in enumerate(itv_tops)}
            p0.extend((value(v), s) for v in itv_tops)
            tops.extend((copies, v) for v in itv_tops)
            for w, into in relations:
                entries.extend((row[v], len(p1), sign, v, w) for v, sign in into)
                p1.append((value(w), s))
            copies += 1
    if not p0:
        return Complex.zero(shape, field), [], []
    tgt = shifted_sum(p0)
    if not p1:
        return tgt, p0, tops
    src = shifted_sum(p1)

    def grid(d: int) -> Grid:
        out: Grid = [[None] * len(p1) for _ in p0]
        for row, col, sign, v, w in entries:
            comp = action(w, v).comp(d - p1[col][1])
            out[row][col] = comp if sign == 1 else negated(comp)
        return out

    return (cone(block_map(src, p1, tgt, p0, src.degrees(), grid)),
            [(c, s + 1) for c, s in p1] + p0, tops)


# ---------------------------------------------------------------------------
# derived hom dimensions between canonical forms


_HOM_CACHE: Dict[Tuple[int, str], Tuple[Dict, Dict]] = {}


def interval_hom_tables(q: LineQuiver) -> Tuple[Dict, Dict]:
    """(dim Hom, dim Ext^1) between all pairs of interval modules over q,
    read from the supports once per quiver, over every field.  A hom M[a,b]
    -> M[c,d] is one scalar on the overlap I of the supports (an interval,
    on which both modules are the identity), zero elsewhere; the neighbour w
    outside an end of I forces it to zero when an arrow w -> I starts in
    [a,b] or an arrow I -> w ends in [c,d].  dim Ext^1 is dim Hom minus the
    Euler form of the indicator dimension vectors."""
    key = (q.n, q.orientation)
    if key not in _HOM_CACHE:
        homs: Dict[Tuple[Interval, Interval], int] = {}
        exts: Dict[Tuple[Interval, Interval], int] = {}
        itvs, path = all_intervals(q.n), q.poset()
        dims = {itv: {v: int(itv.i <= v <= itv.j) for v in q.vertices} for itv in itvs}
        for x in itvs:
            for y in itvs:
                lo, hi = max(x.i, y.i), min(x.j, y.j)
                h = int(lo <= hi and not any(
                    path.leq(w, end) and x.i <= w <= x.j or path.leq(end, w) and y.i <= w <= y.j
                    for end, w in ((lo, lo - 1), (hi, hi + 1)) if w in q.vertices))
                homs[(x, y)] = h
                exts[(x, y)] = h - euler_form(q, dims[x], dims[y])
        _HOM_CACHE[key] = homs, exts
    return _HOM_CACHE[key]


def derived_hom_dim(q: LineQuiver, x: DerivedObject, y: DerivedObject, degree: int = 0) -> int:
    """dim Hom_{D^b}(x, Sigma^degree y): hom for matching shifts, Ext^1 for a
    shift gap of one, zero otherwise (hereditary)."""
    homs, exts = interval_hom_tables(q)
    total = 0
    for (a, itv1, m1) in x.summands:
        for (b, itv2, m2) in y.summands:
            gap = b + degree - a
            if gap == 0:
                total += m1 * m2 * homs[(itv1, itv2)]
            elif gap == 1:
                total += m1 * m2 * exts[(itv1, itv2)]
    return total


def derived_hom_graded(q: LineQuiver, x: DerivedObject, y: DerivedObject) -> Dict[int, int]:
    """All nonzero dim Hom(x, Sigma^d y) by degree d."""
    out = {}
    if x.is_zero() or y.is_zero():
        return out
    shifts_x = [s for (s, _, _) in x.summands]
    shifts_y = [s for (s, _, _) in y.summands]
    for d in range(min(shifts_x) - max(shifts_y) - 1, max(shifts_x) - min(shifts_y) + 2):
        v = derived_hom_dim(q, x, y, d)
        if v:
            out[d] = v
    return out


# ---------------------------------------------------------------------------
# bicartesian certification


@dataclass
class Square:
    """A (homotopy-)commuting square of complexes

        x --f--> y
        |g       |h
        z --k--> w

    with an optional homotopy H: h f => k g (degree +1 maps H_d: x_d -> w_{d+1});
    strict commutation is the default H = 0.
    """

    x: Complex
    y: Complex
    z: Complex
    w: Complex
    f: ChainMap
    g: ChainMap
    h: ChainMap
    k: ChainMap
    homotopy: Optional[Dict[int, RepMap]] = None

    def _hot(self, d: int) -> RepMap:
        if self.homotopy and d in self.homotopy:
            return self.homotopy[d]
        return {e: Matrix.zeros(self.x.field, self.w.term(d + 1).dims[e], self.x.term(d).dims[e])
                for e in self.x.shape.elements}

    def check_commutes(self):
        """h f - k g = d H + H d must hold exactly."""
        degs = sorted(set(self.x.degrees()) | set(self.w.degrees()))
        for d in degs:
            for e in self.x.shape.elements:
                lhs = self.h.comp(d)[e] @ self.f.comp(d)[e] - self.k.comp(d)[e] @ self.g.comp(d)[e]
                ht = self._hot(d)[e]
                ht_lower = self._hot(d - 1)[e]
                rhs = self.w.diff(d + 1)[e] @ ht + ht_lower @ self.x.diff(d)[e]
                if lhs != rhs:
                    raise ValueError(f"square does not commute (up to the given homotopy) at {e}, degree {d}")


def is_bicartesian(sq: Square) -> bool:
    """True iff the total complex of x -> y (+) z -> w is acyclic."""
    sq.check_commutes()
    x, y, z, w = sq.x, sq.y, sq.z, sq.w
    # cone(f) -> cone(k) given by (g, h) twisted by the homotopy
    cf, ck = cone(sq.f), cone(sq.k)
    mu = block_map(cf, [(x, 1), (y, 0)], ck, [(z, 1), (w, 0)],
                   sorted(set(cf.degrees()) | set(ck.degrees())),
                   lambda d: [[sq.g.comp(d - 1), None], [sq._hot(d - 1), sq.h.comp(d)]])
    total = cone(mu)
    return is_acyclic(total)


# ---------------------------------------------------------------------------
# cylinders: turning maps into strict (co)fibrations


def mapping_cylinder(phi: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """(Cyl, j: X -> Cyl split mono, pr: Cyl -> Y quasi-iso) with pr . j = phi.

    Cyl_d = X_d + X_{d-1} + Y_d, d(a, h, y) = (da - h, -dh, dy + phi h).
    """
    x, y = phi.src, phi.tgt
    parts = [(x, 0), (x, 1), (y, 0)]
    degs = sorted(set(x.degrees()) | set(d + 1 for d in x.degrees()) | set(y.degrees()))
    cyl = block_complex(parts, degs, lambda d: [
        [x.diff(d), negated(identity_at(x.term(d - 1))), None],
        [None, negated(x.diff(d - 1)), None],
        [None, phi.comp(d - 1), y.diff(d)]])
    j = block_map(x, [(x, 0)], cyl, parts, degs,
                  lambda d: [[identity_at(x.term(d))], [None], [None]])
    pr = block_map(cyl, parts, y, [(y, 0)], degs,
                   lambda d: [[phi.comp(d), None, identity_at(y.term(d))]])
    return cyl, j, pr


def mapping_path(phi: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """(P, inc: X -> P quasi-iso, ev: P -> Y split epi) with ev . inc = phi.

    P = X + fib(id_Y), P_d = X_d + Y_d + Y_{d+1}; ev(a, y, h) = phi a + y.
    """
    x, y = phi.src, phi.tgt
    p = x.direct_sum(fiber(ChainMap.identity(y)))
    parts = [(x, 0), (y, 0), (y, -1)]
    inc = block_map(x, [(x, 0)], p, parts, p.degrees(),
                    lambda d: [[identity_at(x.term(d))], [None], [None]])
    ev = block_map(p, parts, y, [(y, 0)], p.degrees(),
                   lambda d: [[phi.comp(d), identity_at(y.term(d)), None]])
    return p, inc, ev


def linear_dual_complex(c: Complex, target_shape: Optional[Poset] = None) -> Complex:
    """The k-linear dual over the opposite shape: degrees negate, maps transpose."""
    shape = target_shape if target_shape is not None else c.shape.opposite()
    terms = {-d: t.dual(shape) for d, t in c.terms.items()}
    diffs = {}
    for d in c.degrees():
        # d_d : C_d -> C_{d-1} dualizes to (C_{d-1})* -> (C_d)*, i.e. degree (-d+1) -> (-d)
        phi = c.diff(d)
        if any(not m.is_zero() for m in phi.values()):
            diffs[-d + 1] = {e: phi[e].transpose() for e in c.shape.elements}
    return Complex(shape, c.field, terms, diffs, validate=False)
