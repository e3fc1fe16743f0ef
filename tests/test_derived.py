import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrep.derived import (
    ChainMap, Complex, DerivedObject, Square, cone, cone_inclusion,
    cone_projection, derived_hom_dim, fiber, fiber_projection, glue, homology_basis,
    homology_coordinates, homology_dims, homology_rep, interval_hom_tables, is_acyclic, is_bicartesian,
    linear_dual_complex,
    mapping_cylinder, mapping_path, minimize, normalize, object_complex, restrict, split,
)
from meshrep.armesh import build_ar, merge_window_complex, pullback, pushout
from meshrep.bimod import duality_module, identity_prof
from meshrep.functors import reflect_plus_obj
from meshrep.hom_chain import tuple_into_sum
from meshrep.linalg import (GF, QQ, Matrix, column_space_basis, complement_columns, kernel_basis,
                            rank, solve)
from meshrep.rep import (Interval, Rep, all_intervals, decompose, ext1_dim, hom_dim, hom_space,
                         interval_module, random_interval_sum, random_rep)
from meshrep.serialize import complex_to_json, matrix_to_json
from meshrep.shapes import LineQuiver, all_orientations, point_poset

F = GF(32003)


def single(v=1):
    """Complex over the point shape with value k^v in degree 0."""
    pt = point_poset()
    return Complex.from_rep(
        __import__("meshrep.rep", fromlist=["Rep"]).Rep(pt, F, {(): v}, {}), 0)


def test_shift_identities():
    q = LineQuiver.linear(2)
    c = Complex.from_rep(interval_module(q, 1, 2, F))
    assert c.shift(0).degrees() == c.degrees()
    assert c.shift(1).degrees() == [1]
    assert c.shift(1).shift(-1).degrees() == [0]
    assert normalize(q, c.shift(1)) == normalize(q, c).shift(1)


def test_cone_of_identity_is_acyclic():
    q = LineQuiver.linear(3)
    c = Complex.from_rep(interval_module(q, 1, 3, F))
    cn = cone(ChainMap.identity(c))
    assert is_acyclic(cn)
    assert normalize(q, cn).is_zero()


def test_cone_of_zero_map():
    q = LineQuiver.linear(2)
    x = Complex.from_rep(interval_module(q, 1, 1, F))
    y = Complex.from_rep(interval_module(q, 2, 2, F))
    cn = cone(ChainMap.zero(x, y))
    got = normalize(q, cn)
    expect = {(0, Interval(2, 2)): 1, (1, Interval(1, 1)): 1}
    assert got.as_dict() == expect


def test_cone_of_inclusion():
    q = LineQuiver.linear(3)
    m23 = Complex.from_rep(interval_module(q, 2, 3, F))
    m13 = Complex.from_rep(interval_module(q, 1, 3, F))
    incl = ChainMap(m23, m13, {0: {
        1: Matrix.zeros(F, 1, 0),
        2: Matrix.identity(F, 1),
        3: Matrix.identity(F, 1),
    }})
    incl.validate()
    got = normalize(q, cone(incl))
    assert got.as_dict() == {(0, Interval(1, 1)): 1}


def test_triangle_maps_are_chain_maps():
    q = LineQuiver.linear(3)
    rng = np.random.default_rng(3)
    x = Complex.from_rep(random_rep(q, F, rng))
    y = Complex.from_rep(random_rep(q, F, rng))
    # build some chain map via hom of reps
    from meshrep.rep import hom_space
    basis = hom_space(x.term(0), y.term(0))
    if basis:
        phi = ChainMap(x, y, {0: basis[0]})
    else:
        phi = ChainMap.zero(x, y)
    phi.validate()
    cn = cone(phi)
    cone_inclusion(phi, cn).validate()
    cone_projection(phi, cn).validate()
    fib = fiber(phi)
    fiber_projection(phi).validate()
    # rotation: normalize(cone) determines fiber by shift
    assert normalize(q, fib) == normalize(q, cn).shift(-1)


def test_normalize_module_and_acyclic():
    q = LineQuiver.linear(2)
    rng = np.random.default_rng(5)
    x, multiset = random_interval_sum(q, F, rng)
    c = Complex.from_rep(x)
    n = normalize(q, c)
    assert n.as_dict() == {(0, itv): m for itv, m in multiset.items()}
    assert normalize(q, cone(ChainMap.identity(c))).is_zero()


def test_normalize_quasi_iso_invariance():
    # adding a contractible direct summand does not change the canonical form
    q = LineQuiver(3, "BF")
    rng = np.random.default_rng(11)
    x = Complex.from_rep(random_rep(q, F, rng))
    junk = cone(ChainMap.identity(Complex.from_rep(random_rep(q, F, rng))))
    assert normalize(q, x.direct_sum(junk)) == normalize(q, x)


def test_derived_hom_examples():
    q = LineQuiver.linear(3)
    m11 = DerivedObject.from_dict({(0, Interval(1, 1)): 1})
    m23s = DerivedObject.from_dict({(1, Interval(2, 3)): 1})
    assert derived_hom_dim(q, m11, m11, 0) == 1
    assert derived_hom_dim(q, m11, m23s, 0) == 1  # = ext1(M11, M23)
    anything = DerivedObject.from_dict({(2, Interval(1, 2)): 1})
    m12 = DerivedObject.from_dict({(0, Interval(1, 2)): 1})
    assert derived_hom_dim(q, m12, anything, 0) == 0


def test_interval_hom_tables_match_elimination():
    """dim Hom and dim Ext^1 read from the supports equal hom_dim and
    ext1_dim, one elimination per pair, for every pair of interval modules
    over every orientation with n <= 6."""
    field = GF(5)
    for n in range(1, 7):
        for q in all_orientations(n):
            homs, exts = interval_hom_tables(q)
            mods = {itv: interval_module(q, itv.i, itv.j, field) for itv in all_intervals(n)}
            for a, x in mods.items():
                for b, y in mods.items():
                    assert homs[(a, b)] == hom_dim(x, y), (q, a, b)
                    assert exts[(a, b)] == ext1_dim(q, x, y), (q, a, b)


def test_derived_hom_rotation_invariance():
    q = LineQuiver(4, "FBF")
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, _ = random_interval_sum(q, F, rng)
        y, _ = random_interval_sum(q, F, rng)
        dx = normalize(q, Complex.from_rep(x))
        dy = normalize(q, Complex.from_rep(y))
        for deg in (-1, 0, 1):
            assert derived_hom_dim(q, dx, dy, deg) == derived_hom_dim(q, dx.shift(1), dy.shift(1), deg)


def test_homology_rep_induced_maps():
    q = LineQuiver.linear(2)
    # two-term complex: M[1,2] --(1 at vertex 2 only... build explicit)
    x = interval_module(q, 2, 2, F)
    y = interval_module(q, 1, 2, F)
    phi = ChainMap(Complex.from_rep(x), Complex.from_rep(y),
                   {0: {1: Matrix.zeros(F, 1, 0), 2: Matrix.identity(F, 1)}})
    cn = cone(phi)  # ~ M[1,1]
    h0 = homology_rep(cn, 0)
    assert h0.dims == {1: 1, 2: 0}
    assert homology_rep(cn, 1).is_zero()


def fresh_homology_basis(c, d, e):
    """(boundaries, representatives) of H_d(c) at e by the three eliminations
    (kernel_basis, column_space_basis, complement_columns), whatever the
    differentials: the reference for homology_basis."""
    z = kernel_basis(c.diff(d)[e])
    bnd = column_space_basis(c.diff(d + 1)[e])
    return bnd, z.submatrix(range(z.nrows), complement_columns(bnd, z))


def fresh_coordinates(c, d, e, cycles):
    """The classes of d-cycles by a solve against fresh_homology_basis: the
    reference for homology_coordinates."""
    bnd, reps = fresh_homology_basis(c, d, e)
    sol = solve(Matrix.hstack(c.field, [bnd, reps], nrows=c.term(d).dims[e]), cycles)
    return sol.submatrix(range(bnd.ncols, bnd.ncols + reps.ncols), range(cycles.ncols))


def fresh_homology_rep(c, d):
    """H_d(c) from the differentials alone, with no bases kept on c: the
    reference for homology_rep."""
    reps = {e: fresh_homology_basis(c, d, e)[1] for e in c.shape.elements}
    mats = {(a, b): fresh_coordinates(c, d, b, c.term(d).mats[(a, b)] @ reps[a])
            for (a, b) in c.shape.covers}
    return Rep(c.shape, c.field, {e: r.ncols for e, r in reps.items()}, mats)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
def test_homology_memo_matches_a_fresh_computation(field):
    """homology_dims and homology_rep read the bases kept on a complex; at
    every element and degree they equal a computation from the differentials
    alone, over A_3 in every orientation."""
    rng = np.random.default_rng(3)
    for q in all_orientations(3):
        for _ in range(3):
            x, y = random_rep(q, field, rng), random_rep(q, field, rng)
            f = {e: Matrix.zeros(field, y.dims[e], x.dims[e]) for e in q.vertices}
            for h in hom_space(x, y):
                k = int(rng.integers(1, 5))
                f = {e: f[e] + h[e].scale(k) for e in q.vertices}
            c = cone(ChainMap(Complex.from_rep(x), Complex.from_rep(y), {0: f}))
            c = c.direct_sum(c.shift(1))
            degs = range(min(c.degrees()) - 1, max(c.degrees()) + 2)
            for e in q.vertices:
                assert homology_dims(c, e) == {
                    d: h for d in degs
                    if (h := c.term(d).dims[e] - rank(c.diff(d)[e]) - rank(c.diff(d + 1)[e]))}
            for d in degs:
                assert homology_rep(c, d) == fresh_homology_rep(c, d)


def _module_pairs(kind, field, rng):
    """(q, x, y): modules over the point (q None), over A_3 in each
    orientation, or over the spectator product A_3 x A_3^op (q None), with
    y containing x so that hom(x, y) holds the inclusion."""
    if kind == "point":
        pt = point_poset()
        dims = [int(rng.integers(1, 4)) for _ in range(4)]
        return [(None, Rep(pt, field, {(): a}, {}), Rep(pt, field, {(): a + b}, {}))
                for a, b in zip(dims[::2], dims[1::2])]
    if kind == "spectator":
        q = LineQuiver.linear(3)
        i, dq = identity_prof(q, field).complex.term(0), duality_module(q, field).complex.term(0)
        return [(None, i, i.direct_sum(dq)), (None, dq, dq.direct_sum(i))]
    out = []
    for q in all_orientations(3):
        x = random_rep(q, field, rng)
        out.append((q, x, x.direct_sum(random_rep(q, field, rng))))
    return out


def _vanishing_complexes(x, y, rng):
    """Complexes whose differentials vanish at some elements and degrees: x and
    its shifts, the cone of the zero map x -> y, the cone of a random map
    through the inclusion (zero where x is), and that cone plus a summand
    with no differential, and plus its own shift."""
    cx, cy = Complex.from_rep(x), Complex.from_rep(y)
    f = {e: Matrix.zeros(x.field, y.dims[e], x.dims[e]) for e in x.shape.elements}
    for h in hom_space(x, y):
        f = {e: f[e] + h[e].scale(int(rng.integers(1, 5))) for e in x.shape.elements}
    c = cone(ChainMap(cx, cy, {0: f}))
    return [cx, cx.shift(1), cy.shift(-2), cone(ChainMap.zero(cx, cy)), c,
            c.direct_sum(cx), c.direct_sum(cy.shift(1)), c.direct_sum(c.shift(1))]


@pytest.mark.parametrize("kind", ["point", "A3", "spectator"])
@pytest.mark.parametrize("field", [GF(5), GF(32003), QQ], ids=["F5", "F32003", "Q"])
def test_zero_differentials_read_as_the_eliminations_give(field, kind):
    """homology_basis reads a zero differential instead of eliminating it;
    its bases, homology_coordinates, is_acyclic, minimize and normalize equal
    the route through the three eliminations and a solve, byte for byte."""
    rng = np.random.default_rng(17)
    seen = set()
    for q, x, y in _module_pairs(kind, field, rng):
        for c in _vanishing_complexes(x, y, rng):
            degs = range(min(c.degrees()) - 1, max(c.degrees()) + 2)
            fresh = {d: fresh_homology_rep(c, d) for d in degs}
            for d in degs:
                lo, hi = c.diffs.get(d), c.diffs.get(d + 1)
                for e in c.shape.elements:
                    seen.add((lo is None or lo[e].is_zero(), hi is None or hi[e].is_zero()))
                    bnd, reps = homology_basis(c, d, e)
                    assert (bnd, reps) == fresh_homology_basis(c, d, e)
                    z = kernel_basis(c.diff(d)[e])
                    for cycles in (reps, z, z @ Matrix.random(field, z.ncols, 2, rng)):
                        assert homology_coordinates(c, d, e, cycles) == fresh_coordinates(c, d, e, cycles)
                    with pytest.raises(ValueError):
                        homology_coordinates(c, d, e, Matrix.zeros(field, reps.nrows + 1, 1))
                assert homology_rep(c, d) == fresh[d]
            assert is_acyclic(c) == all(h.is_zero() for h in fresh.values())
            m = minimize(c)
            assert not m.diffs and m.degrees() == [d for d, h in fresh.items() if not h.is_zero()]
            assert all(m.term(d) == h for d, h in fresh.items())
            if q is not None:
                route: dict = {}
                for d, h in fresh.items():
                    for itv, k in decompose(q, h).items():
                        route[(d, itv)] = k
                assert normalize(q, c) == DerivedObject.from_dict(route)
    # every combination of zero and nonzero differentials into and out of a degree was met
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_bicartesian_parallel_identities():
    q = LineQuiver.linear(2)
    x = Complex.from_rep(interval_module(q, 1, 2, F))
    y = Complex.from_rep(interval_module(q, 1, 1, F))
    from meshrep.rep import hom_space
    g = ChainMap(x, y, {0: hom_space(x.term(0), y.term(0))[0]})
    sq = Square(x, x, y, y, ChainMap.identity(x), g, g, ChainMap.identity(y))
    assert is_bicartesian(sq)


def test_bicartesian_sigma_square_with_homotopy():
    # X -> 0, 0 -> Sigma X with the identity homotopy is the defining square of Sigma
    pt = point_poset()
    from meshrep.rep import Rep
    x = Complex.from_rep(Rep(pt, F, {(): 2}, {}))
    zero = Complex.zero(pt, F)
    sx = x.shift(1)
    H = {0: {(): Matrix.identity(F, 2)}}
    sq = Square(x, zero, zero, sx,
                ChainMap.zero(x, zero), ChainMap.zero(x, zero),
                ChainMap.zero(zero, sx), ChainMap.zero(zero, sx), homotopy=H)
    assert is_bicartesian(sq)


def test_bicartesian_negative_control():
    # parallel identities into a zero-mapped corner: total complex has homology
    pt = point_poset()
    from meshrep.rep import Rep
    k1 = Complex.from_rep(Rep(pt, F, {(): 1}, {}))
    ident = ChainMap.identity(k1)
    zero = ChainMap(k1, k1, {0: {(): Matrix.zeros(F, 1, 1)}})
    sq = Square(k1, k1, k1, k1, ident, ident, zero, zero)
    assert not is_bicartesian(sq)


def test_noncommuting_square_detected():
    pt = point_poset()
    from meshrep.rep import Rep
    k1 = Complex.from_rep(Rep(pt, F, {(): 1}, {}))
    ident = ChainMap.identity(k1)
    zero = ChainMap(k1, k1, {0: {(): Matrix.zeros(F, 1, 1)}})
    sq = Square(k1, k1, k1, k1, ident, ident, ident, zero)
    with pytest.raises(ValueError):
        is_bicartesian(sq)


def test_mapping_cylinder_and_path():
    q = LineQuiver.linear(2)
    x = Complex.from_rep(interval_module(q, 2, 2, F))
    y = Complex.from_rep(interval_module(q, 1, 2, F))
    phi = ChainMap(x, y, {0: {1: Matrix.zeros(F, 1, 0), 2: Matrix.identity(F, 1)}})
    cyl, j, pr = mapping_cylinder(phi)
    j.validate(), pr.validate()
    assert normalize(q, cyl) == normalize(q, y)
    # pr o j = phi
    comp = pr.compose(j)
    for e in q.poset().elements:
        assert comp.comp(0)[e] == phi.comp(0)[e]
    p, inc, ev = mapping_path(phi)
    inc.validate(), ev.validate()
    assert normalize(q, p) == normalize(q, x)
    comp2 = ev.compose(inc)
    for e in q.poset().elements:
        assert comp2.comp(0)[e] == phi.comp(0)[e]


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
def test_compose_is_the_product_in_every_degree(field):
    """ChainMap.compose stores only the degrees where both factors store a
    component; in every degree of either source, and one beyond, its
    component equals the product of the factors' components, also where only
    one factor stores one, and with an identity or a zero factor."""
    rng = np.random.default_rng(11)
    q = LineQuiver.linear(3)

    def cx(*degrees):
        return Complex(q.poset(), field, {d: random_rep(q, field, rng) for d in degrees}, {},
                       validate=False)

    def random_map(src, tgt, degrees):
        return ChainMap(src, tgt, {d: {e: Matrix.random(field, tgt.term(d).dims[e],
                                                        src.term(d).dims[e], rng)
                                       for e in q.vertices} for d in degrees})

    a, b, c = cx(-1, 0, 1), cx(0, 1, 2), cx(-1, 1, 2)
    firsts = [random_map(a, b, [0, 1]), random_map(a, b, [-1, 0, 1, 2]), ChainMap.zero(a, b)]
    seconds = [random_map(b, c, [1, 2]), random_map(b, c, [0]), ChainMap.zero(b, c)]
    pairs = [(g, f) for g in seconds for f in firsts]
    pairs += [(ChainMap.identity(b), f) for f in firsts] + [(g, ChainMap.identity(b)) for g in seconds]
    for g, f in pairs:
        h = g.compose(f)
        assert (h.src, h.tgt) == (f.src, g.tgt)
        assert set(h.comps) == set(f.comps) & set(g.comps)
        for d in range(-2, 4):
            for e in q.vertices:
                assert h.comp(d)[e] == g.comp(d)[e] @ f.comp(d)[e]


def test_minimize_preserves_class():
    q = LineQuiver(3, "FB")
    rng = np.random.default_rng(9)
    x = Complex.from_rep(random_rep(q, F, rng))
    y = Complex.from_rep(random_rep(q, F, rng))
    cn = cone(ChainMap.zero(x, y))
    assert normalize(q, minimize(cn)) == normalize(q, cn)


def test_linear_dual_involution():
    q = LineQuiver(3, "BF")
    rng = np.random.default_rng(4)
    c = Complex.from_rep(random_rep(q, F, rng)).shift(1)
    d = linear_dual_complex(c)
    dd = linear_dual_complex(d, target_shape=c.shape)
    assert dd.degrees() == c.degrees()
    for deg in c.degrees():
        assert dd.term(deg).dims == c.term(deg).dims
        for cov in c.shape.covers:
            assert dd.term(deg).mats[cov] == c.term(deg).mats[cov]


def test_object_complex_roundtrip():
    q = LineQuiver(4, "BFB")
    obj = DerivedObject.from_dict({(0, Interval(1, 3)): 2, (-1, Interval(2, 2)): 1, (3, Interval(4, 4)): 1})
    assert normalize(q, object_complex(q, obj, F)) == obj


def assert_same_complex(a: Complex, b: Complex):
    """Entry for entry: dimensions, structure maps and differentials."""
    assert a.shape.elements == b.shape.elements
    assert set(a.shape.covers) == set(b.shape.covers)
    assert a.degrees() == b.degrees()
    for d in range(min(a.degrees(), default=0) - 1, max(a.degrees(), default=0) + 2):
        ta, tb = a.term(d), b.term(d)
        assert ta.dims == tb.dims
        assert all(ta.mats[cov] == tb.mats[cov] for cov in a.shape.covers)
        da, db = a.diff(d), b.diff(d)
        assert all(da[e] == db[e] for e in a.shape.elements)


def _reflected_complex(field, spectator: bool, seed: int):
    """A complex with nonzero differentials over q2 (x q^op): a reflection at a
    sink of a random orientation, applied to a random module or to I_q."""
    rng = np.random.default_rng(seed)
    q = all_orientations(4)[int(rng.integers(0, 8))]
    a = q.sinks()[0]
    if spectator:
        spec = q.poset().opposite()
        q2, c = reflect_plus_obj(q, a, identity_prof(q, field).complex, spectator=spec)
        return q2, spec, c
    x, _ = random_interval_sum(q, field, rng, max_total=5)
    # the full interval makes the arrows into the sink, hence the differential, nonzero
    x = x.direct_sum(interval_module(q, 1, q.n, field))
    q2, c = reflect_plus_obj(q, a, Complex.from_rep(x))
    return q2, None, c


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["F5", "Q"])
@pytest.mark.parametrize("spectator", [False, True], ids=["point", "spectator"])
@pytest.mark.parametrize("seed", [0, 1])
def test_glue_inverts_split(field, spectator, seed):
    q2, spec, c = _reflected_complex(field, spectator, seed)
    assert any(not m.is_zero() for phi in c.diffs.values() for m in phi.values())
    values, arrows = split(c, q2.poset(), spec)
    assert set(values) == set(q2.vertices) and set(arrows) == set(q2.arrows())
    assert_same_complex(glue(q2.poset(), spec, values, arrows), c)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["F5", "Q"])
def test_restrict_along_identity(field):
    for spectator in (False, True):
        _, _, c = _reflected_complex(field, spectator, 2)
        assert_same_complex(restrict(c, c.shape, lambda e: e), c)


@pytest.mark.parametrize("field", [GF(5), QQ])
def test_shared_zeros_stay_zero(field):
    """Zero reps, zero matrices and identity matrices are shared between all
    callers; a reflection, a tensor and a homology computation leave them as
    they were built."""
    from meshrep import linalg
    from meshrep.bimod import cancel_tensor, duality_module, from_left_complex
    from meshrep.functors import reflect_plus
    from meshrep.rep import Rep
    q = LineQuiver.linear(3)
    x, _ = random_interval_sum(q, field, np.random.default_rng(4), max_total=4)
    c = Complex.from_rep(x).direct_sum(Complex.from_rep(interval_module(q, 2, 3, field), 2))
    _, refl = reflect_plus(q, 3, c)
    tensor = cancel_tensor(duality_module(q, field), from_left_complex(q, c)).complex
    for d in range(-1, 4):
        homology_rep(c, d)
        homology_rep(tensor, d)
    for cx in (c, refl, tensor):
        for z in (Rep.zero(cx.shape, field), cx.term(max(cx.degrees(), default=0) + 1)):
            assert z is Rep.zero(cx.shape, field)
            assert all(v == 0 for v in z.dims.values())
            assert all(m.nrows == m.ncols == 0 for m in z.mats.values())
    for (f, r, k), m in linalg._ZEROS.items():
        assert (m.nrows, m.ncols) == (r, k) and m.is_zero()
    for (f, n), m in linalg._IDENTITIES.items():
        assert m.rows() == [[int(i == j) for j in range(n)] for i in range(n)]


def _block_inputs(field):
    """Fixed chain maps phi: X -> Y with nonzero differentials, over the point
    and over A_2: a map of two-term complexes of vector spaces, and the
    quasi-isomorphism (M[2,2] -> M[1,2]) -> M[1,1]."""
    pt = point_poset()

    def m(rows):
        return Matrix.from_rows(field, rows)

    x = Complex(pt, field, {0: Rep(pt, field, {(): 3}, {}), 1: Rep(pt, field, {(): 2}, {})},
                {1: {(): m([[1, 0], [0, 1], [0, 0]])}})
    y = Complex(pt, field, {0: Rep(pt, field, {(): 2}, {}), 1: Rep(pt, field, {(): 1}, {})},
                {1: {(): m([[1], [1]])}})
    point = ChainMap(x, y, {0: {(): m([[1, 2, 3], [1, 2, 4]])}, 1: {(): m([[1, 2]])}})
    q = LineQuiver.linear(2)
    m22, m12, m11 = (interval_module(q, i, j, field) for i, j in ((2, 2), (1, 2), (1, 1)))
    xa = Complex(q.poset(), field, {0: m12, 1: m22},
                 {1: {1: Matrix.zeros(field, 1, 0), 2: Matrix.identity(field, 1)}})
    ya = Complex.from_rep(m11)
    line = ChainMap(xa, ya, {0: {1: Matrix.identity(field, 1), 2: Matrix.zeros(field, 0, 1)}})
    return point, line


def _cx(c):
    """A complex as JSON, with the degrees of its stored differentials."""
    return [complex_to_json(c), sorted(c.diffs)]


def _block_outputs(field) -> str:
    """JSON of every block construction on the fixed inputs: complexes with
    the degrees of their stored differentials, chain maps in every degree of
    their source or target."""
    def cm(f):
        degs = sorted(set(f.src.degrees()) | set(f.tgt.degrees()))
        return [_cx(f.src), _cx(f.tgt),
                [[d, [matrix_to_json(f.comp(d)[e]) for e in f.src.shape.elements]] for d in degs]]

    out = []
    for phi in _block_inputs(field):
        x, y = phi.src, phi.tgt
        cyl, j, pr = mapping_cylinder(phi)
        path, inc, ev = mapping_path(phi)
        p, mt, mb = pushout(j, phi)
        a, pt, pb = pullback(ev, phi)
        out += [_cx(cone(phi)), cm(cone_inclusion(phi)), cm(cone_projection(phi)),
                cm(fiber_projection(phi)), _cx(cyl), cm(j), cm(pr), _cx(path), cm(inc), cm(ev),
                _cx(x.direct_sum(y)), _cx(p), cm(mt), cm(mb), _cx(a), cm(pt), cm(pb),
                cm(tuple_into_sum([phi, ChainMap.identity(x)]))]
    return json.dumps(out, sort_keys=True)


def _ar_output(case, field) -> str:
    """JSON of one AR diagram merged into a complex over its window.  The A3
    input sits in one degree and is trimmed in at most 2 degrees per fill;
    the FBF zigzag on A4 has terms in degrees 0 and 1 and is trimmed in up to 4."""
    if case == "A3":
        q = LineQuiver.linear(3)
        x = interval_module(q, 1, 3, field).direct_sum(interval_module(q, 2, 2, field))
        c = Complex.from_rep(x, 1)
    else:
        q = LineQuiver(4, "FBF")
        x = interval_module(q, 1, 4, field).direct_sum(interval_module(q, 2, 3, field))
        c = Complex.from_rep(x).direct_sum(Complex.from_rep(interval_module(q, 3, 4, field), 1))
    return json.dumps(_cx(merge_window_complex(build_ar(q, c))), sort_keys=True)


# recorded from the block constructions before the AR diagram got a hash of its own
BLOCK_GOLDEN = {
    "F5": "97b0a0e98eefc5854129d44eef5a154d427e1bdb760ac6ca5ee347e27424b86e",
    "F32003": "c41b863a64c6a2d20d4ec5053e663b690cbe31a8e47bfbd2e197a546348f90b0",
    "Q": "36f527ebd14b01208fb7d4e3cdebff7c0f8d5d01a6b61fcd43e3abd9365bb9b1",
}
AR_GOLDEN = {
    # recorded from the stiffening that adds one contractible summand per earlier vertex
    "A3": {
        "F5": "3c8e658432c6ab2e8b0d511fc6be763b5690d0f44ce24b1d7ae6caabd20d7fa7",
        "F32003": "3f92ae6dcba4a227709d4761123f498a1f8d327fa356baeab827efe4198b2959",
        "Q": "d23930073bfa0edde90ce3ece5de5b80964d9553975ec2ad2cd8510ee2082b5d",
    },
    # recorded while the trim still assembled its contractible subcomplex with a differential
    "FBF": {
        "F5": "44fc6d2a48389b1af1b59233731b5026d5e01136717e26c73f214b3da7bb4eab",
        "F32003": "bd3f6e105d9851718f30a3bdaef91d9937c0e771e7531b228694ac3e20c4b716",
        "Q": "dbc50bef56058e9f54a02b38e0ef338fa1b95e440d63426f3ffb21dc29fdeb1e",
    },
}


@pytest.mark.parametrize("field", [GF(5), GF(32003), QQ], ids=["F5", "F32003", "Q"])
def test_block_constructions_are_pinned(field):
    """The exact bytes of the cones, fibers, cylinders, path objects, direct
    sums, pushouts, pullbacks and tuple maps."""
    got = hashlib.sha256(_block_outputs(field).encode()).hexdigest()
    assert got == BLOCK_GOLDEN[str(field)]


@pytest.mark.parametrize("field", [GF(5), GF(32003), QQ], ids=["F5", "F32003", "Q"])
@pytest.mark.parametrize("case", ["A3", "FBF"])
def test_ar_diagram_is_pinned(case, field):
    """The exact bytes of one AR diagram: stiffening, fills and trimming."""
    got = hashlib.sha256(_ar_output(case, field).encode()).hexdigest()
    assert got == AR_GOLDEN[case][str(field)]
