import dataclasses
from collections import Counter

import numpy as np
import pytest

from meshrep import armesh
from meshrep.armesh import (ARDiagram, build_ar, check_flip_sigma,
                            check_mesh_relations, kernel_complex, mesh_hom_table, mesh_object,
                            quotient_complex, stiffen, suspension_orbits)
from meshrep.bimod import identity_prof
from meshrep.derived import (ChainMap, Complex, DerivedObject, cone, derived_hom_dim, glue,
                             homology_rep, is_acyclic, normalize, object_complex, split)
from meshrep.hom_chain import hom_class_data, projective_model
from meshrep.linalg import GF, Matrix, column_space_basis, complement_projection, rank, solve
from meshrep.rep import (Interval, Rep, all_intervals, decompose, hom_space,
                         interval_module, interval_presentation, projective_interval,
                         random_interval_sum)
from meshrep.functors import SerreTable, serre, transport, transport_embedding
from meshrep.shapes import (LineQuiver, MeshWindow, all_orientations, embed_iQ, happel_table,
                            mesh_interval, mesh_map_f, mesh_map_s, point_poset)

F = GF(32003)


def generic_chain_a3():
    """X = (x -> y -> z) with x = k, y = k^2, z = k, generic maps."""
    q = LineQuiver.linear(3)
    mats = {
        (1, 2): Matrix.from_rows(F, [[1], [0]]),
        (2, 3): Matrix.from_rows(F, [[0, 1]]),
    }
    return q, Complex.from_rep(Rep(q.poset(), F, {1: 1, 2: 2, 3: 1}, mats))


def test_build_ar_zero():
    q = LineQuiver.linear(2)
    d = build_ar(q, Complex.zero(q.poset(), F))
    for v in d.window.vertices():
        assert d.is_zero_at(v)
    rep = d.verify()
    assert all(rep.values())


def test_build_ar_p1_a3():
    q = LineQuiver.linear(3)
    x = Complex.from_rep(interval_module(q, 1, 3, F))  # P_1, (k -> k -> k)
    d = build_ar(q, x)
    # s(1) = (0, 3) holds z = k
    assert d.canonical((0, 3)) == {0: 1}
    assert d.canonical((1, 1)) == {}  # u = cone(id)
    assert d.canonical((1, 2)) == {}  # v
    assert d.canonical((2, 1)) == {}  # w
    rep = d.verify()
    assert all(rep.values()), rep


def test_build_ar_a3_diagram_shape():
    q, x = generic_chain_a3()
    d = build_ar(q, x)
    rep = d.verify()
    assert all(rep.values()), rep
    # the embedded column carries the input
    assert d.canonical((0, 1)) == {0: 1}
    assert d.canonical((0, 2)) == {0: 2}
    assert d.canonical((0, 3)) == {0: 1}
    # round trip: restriction along the embedding is the input
    back = d.restrict(q, embed_iQ(q))
    assert normalize(q, back) == normalize(q, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_ar_roundtrip_and_certificates(n):
    rng = np.random.default_rng(100 + n)
    for q in all_orientations(n)[:4]:
        x, _ = random_interval_sum(q, F, rng, max_total=3)
        c = Complex.from_rep(x)
        d = build_ar(q, c)
        rep = d.verify()
        assert all(rep.values()), (q, rep)
        back = d.restrict(q, embed_iQ(q))
        assert normalize(q, back) == normalize(q, c)


def _three_elimination_quotient_data(m, incl):
    """The projection data of quotient_complex by three eliminations of the
    same columns: rank for the mono check, then column_space_basis, then
    complement_projection; the reference for the one elimination."""
    proj, sec, dims = {}, {}, {}
    for d in sorted(set(m.degrees()) | set(incl.src.degrees())):
        proj[d], sec[d], dims[d] = {}, {}, {}
        for e in m.shape.elements:
            img = incl.comp(d)[e]
            if rank(img) != img.ncols:
                raise RuntimeError("quotient along a non-mono map")
            proj[d][e], sec[d][e] = complement_projection(column_space_basis(img))
            dims[d][e] = sec[d][e].ncols
    return proj, sec, dims


@pytest.mark.parametrize("field", [GF(5), F], ids=str)
def test_quotient_matches_three_eliminations(field, monkeypatch):
    """Every quotient that build_ar takes (pushouts and trimming) equals the
    one from the three-elimination projection data, term, differential and
    projection, byte for byte."""
    calls = []

    def recording(m, incl):
        calls.append((m, incl))
        return quotient_complex(m, incl)

    monkeypatch.setattr(armesh, "quotient_complex", recording)
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for q in all_orientations(n):
            x, _ = random_interval_sum(q, field, rng, max_total=3)
            build_ar(q, Complex.from_rep(x))
    monkeypatch.undo()
    assert len(calls) > 50
    got = [quotient_complex(m, incl) for m, incl in calls]
    monkeypatch.setattr(armesh, "_quotient_data", _three_elimination_quotient_data)
    for (m, incl), (qc, pi) in zip(calls, got):
        ref, ref_pi = quotient_complex(m, incl)
        assert (qc.terms, qc.diffs, pi.comps) == (ref.terms, ref.diffs, ref_pi.comps)


@pytest.mark.parametrize("cols", [[[0], [0]], [[1, 2], [2, 4], [0, 0]], [[1, 0, 1], [0, 1, 1]]])
def test_quotient_and_kernel_reject_a_non_mono_or_non_epi_map(cols):
    """A zero column, dependent columns, and more columns than rows make a
    non-mono map; their transposes are non-epi maps."""
    pt = point_poset()
    sub = Matrix.from_rows(F, cols)
    src, tgt = (Complex.from_rep(Rep(pt, F, {(): k}, {})) for k in (sub.ncols, sub.nrows))
    with pytest.raises(RuntimeError, match="quotient along a non-mono map"):
        quotient_complex(tgt, ChainMap(src, tgt, {0: {(): sub}}))
    with pytest.raises(RuntimeError, match="kernel along a non-epi map"):
        kernel_complex(ChainMap(tgt, src, {0: {(): sub.transpose()}}))


def _splits(m, src: Rep, tgt: Rep, mono: bool) -> bool:
    """Whether the rep map m: src -> tgt has a retraction (mono) or a section
    (epi) that is itself a rep map."""
    elems = src.shape.elements
    ident = [Matrix.identity(F, (src if mono else tgt).dims[e]) for e in elems]

    def flat(mats):
        return [x for mat in mats for row in mat.rows() for x in row]

    if not flat(ident):
        return True
    cols = [flat([r[e] @ m[e] if mono else m[e] @ r[e] for e in elems])
            for r in hom_space(tgt, src)]
    if not cols:
        return False
    return solve(Matrix.from_rows(F, [list(row) for row in zip(*cols)]),
                 Matrix.column(F, flat(ident))) is not None


def _check_stiffened(q, c, spec):
    """The stiffened diagram of c: its vertex totals, that its forward arrows
    are split monos and its backward arrows split epis in every degree, and
    that it glues to a complex with the homology of c."""
    values, arrows = split(c, q.poset(), spec)
    vals, arrs = stiffen(q, values, arrows)
    for k in q.vertices:
        expect = values[k].total_dim() + 2 * sum(values[l].total_dim() for l in range(1, k))
        assert vals[k].total_dim() == expect, (q, k)
    for (u, v), phi in arrs.items():
        assert phi.src is vals[u] and phi.tgt is vals[v]
        phi.validate()
        forward = v == u + 1
        for d in sorted(set(phi.src.degrees()) | set(phi.tgt.degrees())):
            assert _splits(phi.comp(d), phi.src.term(d), phi.tgt.term(d), mono=forward), (q, u, v, d)
    glued = glue(q.poset(), spec, vals, arrs)
    degs = sorted(set(c.degrees()) | set(glued.degrees()))
    for d in range(degs[0] - 1, degs[-1] + 2):
        assert homology_rep(glued, d) == homology_rep(c, d), (q, d)
    return sum(v.total_dim() for v in vals.values())


def test_stiffen_is_quadratic_and_split():
    """Stiffening adds cone(id) or fib(id) of each earlier input value once:
    M[1,n] stiffens to total dimension n^2, with split arrows and the input's
    homology, over linear and alternating A_n and over a spectator shape."""
    for n in range(2, 9):
        for q in (LineQuiver.linear(n), LineQuiver(n, ("FB" * n)[:n - 1])):
            c = Complex.from_rep(interval_module(q, 1, n, F)).shift(n % 2)
            assert _check_stiffened(q, c, None) == n * n, q
    q = LineQuiver(3, "FB")
    _check_stiffened(q, identity_prof(q, F).complex.shift(1), q.poset().opposite())


def test_flip_sigma():
    q, x = generic_chain_a3()
    d = build_ar(q, x)
    res = check_flip_sigma(d)
    assert res and all(res.values())
    # negative control: the value at f(v) replaced by the unshifted value at v
    v = next(v for v in res if not d.is_zero_at(v))
    bent = dataclasses.replace(d, values={**d.values, mesh_map_f(d.n, v): d.values[v]})
    assert check_flip_sigma(bent)[v] is False


def test_flip_sigma_shifted_input():
    q = LineQuiver(2, "B")
    rng = np.random.default_rng(17)
    x, _ = random_interval_sum(q, F, rng, max_total=2)
    d = build_ar(q, Complex.from_rep(x).shift(-1))
    assert all(check_flip_sigma(d).values())
    assert all(d.verify().values())


def test_suspension_orbits():
    assert suspension_orbits(1) == 1
    assert suspension_orbits(3) == 6
    assert suspension_orbits(5) == 15
    # f^2 moves a vertex n + 1 columns, so each f-orbit meets the columns
    # 0..n in v and f(v) taken mod n + 1, and the orbits are their minima
    for n in range(1, 9):
        fold = lambda v: (v[0] % (n + 1), v[1])
        orbits = {min(fold(v), fold(mesh_map_f(n, v))) for v in MeshWindow(n, 0, n).interior()}
        assert suspension_orbits(n) == len(orbits)


@pytest.mark.parametrize("n", range(1, 6))
def test_chain_level_routes_match_the_happel_table(n):
    """For every orientation, mesh_object (Coxeter functors applied to a
    projective) is the shifted interval that shapes.mesh_interval reads at
    every vertex of columns -n-2..n+2, more than two periods of f^2 =
    Sigma^2; and SerreTable (the serre functor on each interval) sends M[itv]
    to the interval read at s of its vertex in happel_table."""
    for q in all_orientations(n):
        for u in MeshWindow(n, -n - 2, n + 2).interior():
            s, (a, b) = mesh_interval(q, u)
            assert mesh_object(q, u) == DerivedObject.from_dict({(s, Interval(a, b)): 1}), (q, u)
        images = SerreTable(q, F).images
        for (a, b), u in happel_table(q).items():
            s, itv = mesh_interval(q, mesh_map_s(n, u))
            assert images[Interval(a, b)] == (s, Interval(*itv)), (q, a, b)


def test_serre_shift():
    # value at s_Q(l) of the AR diagram equals vertex l of serre(Q, X)
    for q in [LineQuiver.linear(3), LineQuiver(3, "BF")]:
        rng = np.random.default_rng(7)
        x, _ = random_interval_sum(q, F, rng, max_total=3)
        c = Complex.from_rep(x)
        d = build_ar(q, c)
        s = serre(q, c)
        emb = embed_iQ(q)
        for l in q.vertices:
            sv = mesh_map_s(q.n, emb[l])
            from meshrep.derived import homology_dims
            expect = homology_dims(s, l) if False else {
                deg: s.term(deg).dims[l] for deg in s.degrees() if s.term(deg).dims[l]}
            assert d.canonical(sv) == expect


def test_tau_is_translation():
    from meshrep.functors import coxeter_plus
    q = LineQuiver.linear(2)
    rng = np.random.default_rng(3)
    x, _ = random_interval_sum(q, F, rng, max_total=2)
    c = Complex.from_rep(x)
    d = build_ar(q, c)
    dtau = build_ar(q, coxeter_plus(q, c))
    # tau = t^*: the diagram of Phi^+ X at v is the diagram of X at t(v)
    for v in d.window.interior():
        tv = (v[0] - 1, v[1])
        if tv in d.window:
            assert dtau.canonical(v) == d.canonical(tv)


def test_orientation_independence_via_tracked_embedding():
    src = LineQuiver.linear(3)
    rng = np.random.default_rng(23)
    x, _ = random_interval_sum(src, F, rng, max_total=2)
    c = Complex.from_rep(x)
    d = build_ar(src, c)
    for dst in all_orientations(3):
        emb = transport_embedding(src, dst)
        moved = transport(src, dst, c)
        d2 = build_ar(dst, moved, embedding=emb)
        for v in d.window.vertices():
            if v in d2.window:
                assert d.canonical(v) == d2.canonical(v)


def test_mesh_objects_a2():
    q = LineQuiver.linear(2)
    assert mesh_object(q, (0, 1)) == DerivedObject.from_dict({(0, Interval(2, 2)): 1})
    assert mesh_object(q, (0, 2)) == DerivedObject.from_dict({(0, Interval(1, 2)): 1})
    assert mesh_object(q, (1, 1)) == DerivedObject.from_dict({(0, Interval(1, 1)): 1})
    assert mesh_object(q, (1, 2)) == DerivedObject.from_dict({(1, Interval(2, 2)): 1})


def test_mesh_hom_table_examples():
    q = LineQuiver.linear(2)
    w = MeshWindow(2, 0, 2)
    table = mesh_hom_table(q, w)
    assert table[((0, 1), (1, 1))] == 0
    assert table[((0, 1), (0, 2))] == 1
    for u in w.interior():
        assert table[(u, u)] == 1


@pytest.mark.parametrize("orient", ["FF", "BF", "FB", "BB"])
def test_mesh_relations_n3(orient):
    q = LineQuiver(3, orient)
    w = MeshWindow(3, -1, 4)
    rep = check_mesh_relations(q, w)
    assert all(rep.values()), rep


def test_exports():
    q, x = generic_chain_a3()
    d = build_ar(q, x)
    dot = d.to_dot()
    assert dot.startswith("digraph") and "->" in dot
    tikz = d.to_tikz()
    assert "tikzpicture" in tikz


def test_hom_class_dim_matches_derived_hom_dim():
    """Chain maps out of a projective model modulo homotopy have the
    dimension of the derived hom, for every pair of mesh objects."""
    nonzero = 0
    for n in (1, 2, 3):
        for q in all_orientations(n):
            inner = MeshWindow(n, -1, n + 2).interior()
            objs = {u: mesh_object(q, u) for u in inner}
            models = {u: projective_model(q, objs[u], F)[0] for u in inner}
            for u in inner:
                for v in inner:
                    want = derived_hom_dim(q, objs[u], objs[v], 0)
                    assert hom_class_data(models[u], object_complex(q, objs[v], F))[0] == want
                    nonzero += want != 0
    assert nonzero == 311


def test_projective_model_is_the_minimal_resolution():
    """For every shifted interval, twice: P0 is one P_v per top and P1 one
    P_w per relation of interval_presentation, and the augmentation is a
    quasi-isomorphism."""
    for n in range(1, 5):
        for q in all_orientations(n):
            for itv in all_intervals(n):
                tops, relations = interval_presentation(q, itv)
                for s in (0, 1):
                    p, aug = projective_model(q, DerivedObject.from_dict({(s, itv): 2}), F)
                    want = {s: Counter(projective_interval(q, v) for v in tops * 2),
                            s + 1: Counter(projective_interval(q, w) for w, _ in relations * 2)}
                    assert {d: decompose(q, p.term(d)) for d in p.degrees()} == \
                        {d: dict(c) for d, c in want.items() if c}
                    assert is_acyclic(cone(aug))
