import itertools

import pytest
from hypothesis import given, settings, strategies as st

from meshrep import shapes as sh
from meshrep.derived import Complex
from meshrep.functors import reflect_minus, reflect_minus_obj, reflect_plus, reflect_plus_obj
from meshrep.linalg import GF
from meshrep.rep import interval_module
from meshrep.shapes import (
    LineQuiver, MeshWindow, SymmetryElem, admissible_sequence, all_orientations,
    cosieve_of_diagonal, embed_iQ, group_generator_check, group_structure, happel_table,
    induced_alpha, is_admissible_sequence, is_valid_embedding, mesh_degree, mesh_hom,
    mesh_interval, mesh_leq, mesh_map_f, mesh_map_f_inv, mesh_map_s, mesh_map_t,
    reflection_embeddings, reflection_path, satisfies_rel_embed, sieve_of_diagonal, twisted_arrow,
)


def test_reflect_single_arrow():
    q = LineQuiver(2, "F")
    assert q.reflect(2) == LineQuiver(2, "B")
    q3 = LineQuiver(3, "FB")  # 1->2<-3
    assert q3.reflect(2) == LineQuiver(3, "BF")
    assert LineQuiver.linear(3).reflect(3) == LineQuiver(3, "FB")


def test_reflect_rejects_interior():
    with pytest.raises(ValueError):
        LineQuiver.linear(3).reflect(2)


@pytest.mark.parametrize("v", [0, 4, 7, -1])
def test_vertices_outside_the_quiver_are_rejected(v):
    """A vertex outside 1..n is neither a sink nor a source: asking raises
    ValueError, and so do reflecting at it and the reflection functors."""
    q = LineQuiver.linear(3)
    c = Complex.from_rep(interval_module(q, 1, 1, GF(5)))
    for call in (q.is_sink, q.is_source, q.reflect, lambda a: reflect_plus_obj(q, a, c),
                 lambda a: reflect_minus_obj(q, a, c), lambda a: reflect_plus(q, a, c),
                 lambda a: reflect_minus(q, a, c)):
        with pytest.raises(ValueError, match=f"vertex {v} is not in 1..3"):
            call(v)
    assert q.sinks() == [3] and q.sources() == [1]


def test_sinks_and_sources_match_the_arrows():
    """is_sink and is_source, read from the two orientation letters beside v,
    agree with the arrows on every vertex of every orientation with n <= 7:
    every arrow at a sink ends there, and every arrow at a source starts
    there."""
    for n in range(1, 8):
        for q in all_orientations(n):
            arrows = q.arrows()
            for v in q.vertices:
                assert q.is_sink(v) == all(t == v for s, t in arrows if v in (s, t)), (q, v)
                assert q.is_source(v) == all(s == v for s, t in arrows if v in (s, t)), (q, v)


def test_admissible_sequences():
    assert admissible_sequence(LineQuiver.linear(2)) == [2, 1]
    assert admissible_sequence(LineQuiver.linear(3)) == [3, 2, 1]
    assert admissible_sequence(LineQuiver(2, "B")) == [1, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_admissible_sequence_all_orientations(n):
    for q in all_orientations(n):
        seq = admissible_sequence(q)
        assert is_admissible_sequence(q, seq)


def test_admissible_oracle_by_enumeration():
    # brute force: check our sequence is among all valid ones
    for q in all_orientations(3):
        valid = [list(p) for p in itertools.permutations(q.vertices)
                 if is_admissible_sequence(q, list(p))]
        assert admissible_sequence(q) in valid


def test_mesh_maps_paper_values():
    assert mesh_map_f(3, (0, 1)) == (1, 3)
    assert mesh_map_t(3, (0, 2)) == (-1, 2)
    assert mesh_map_s(3, (1, 2)) == (2, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_symmetry_relations_pointwise(n):
    w = MeshWindow(n, -3, 3)
    f = lambda v: mesh_map_f(n, v)
    t = lambda v: mesh_map_t(n, v)
    for v in w.vertices():
        assert mesh_map_s(n, v) == f(t(v)) == t(f(v))
        assert f(f(v)) == (v[0] + n + 1, v[1])  # f^2 = t^-(n+1)
    # (tf)^(n+1) = f^(n-1) as vertex maps
    s = SymmetryElem.s(n)
    fe = SymmetryElem.f(n)
    assert s.power(n + 1) == fe.power(n - 1)
    for v in w.vertices():
        assert s.power(n + 1).apply(v) == fe.power(n - 1).apply(v)


def test_symmetry_group_normal_form():
    e3 = SymmetryElem.f(3)
    assert e3 * e3 == SymmetryElem(3, -4, 0)  # f^2 = t^-4
    x = SymmetryElem(5, 7, 1)
    assert SymmetryElem.identity(5) * x == x
    assert x * x.inverse() == SymmetryElem.identity(5)


@pytest.mark.parametrize("n", range(1, 9))
def test_group_structure(n):
    assert group_structure(n) == ("Z + Z/2" if n % 2 else "Z")
    assert group_generator_check(n)


def test_symmetry_apply_consistency():
    n = 4
    x = SymmetryElem(n, 2, 1)
    y = SymmetryElem(n, -1, 1)
    v = (1, 2)
    assert (x * y).apply(v) == x.apply(y.apply(v))


def test_embeddings():
    assert embed_iQ(LineQuiver.linear(3)) == {1: (0, 1), 2: (0, 2), 3: (0, 3)}
    q = LineQuiver(3, "BF")  # 1<-2->3
    assert embed_iQ(q) == {1: (1, 1), 2: (0, 2), 3: (0, 3)}
    # reflecting 1<-2->3 at the sink 1 gives the linear quiver; embeddings
    # differ only at vertex 1, which moves one column left
    e1, e2 = reflection_embeddings(q, 1)
    assert e2[1] == (0, 1) and e2[2] == (0, 2) and e2[3] == (0, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rel_embed_hypothesis_all_sinks(n):
    for q in all_orientations(n):
        assert is_valid_embedding(q, embed_iQ(q))
        for a in q.sinks():
            e1, e2 = reflection_embeddings(q, a)
            assert is_valid_embedding(q, e1)
            assert is_valid_embedding(q.reflect(a), e2)
            assert satisfies_rel_embed(q, a, e1, e2)


def test_twisted_arrow_counts():
    chain = sh.Poset([1, 2], [(1, 2)])
    tw = twisted_arrow(chain)
    assert set(tw.objects) == {(1, 1), (1, 2), (2, 2)}
    anti = sh.Poset(["a", "b"], [])
    assert len(twisted_arrow(anti).objects) == 2
    a3 = LineQuiver.linear(3).poset()
    assert len(twisted_arrow(a3).objects) == 6


def test_sieve_cosieve():
    q3 = LineQuiver.linear(3)
    assert cosieve_of_diagonal(q3) == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}
    assert sieve_of_diagonal(q3) == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}
    q1 = LineQuiver(1, "")
    assert sieve_of_diagonal(q1) == cosieve_of_diagonal(q1) == {(1, 1)}


def test_induced_alpha_examples():
    ident = induced_alpha(3, 3, {1: 1, 2: 2, 3: 3})
    for v in MeshWindow(3, -2, 2).vertices():
        assert ident(v) == v
    push = induced_alpha(1, 2, {1: 2})
    assert push((0, 1)) == (0, 2)
    # boundary to boundary
    assert push((1, 0))[1] in (0, 3)
    assert push((0, 2))[1] in (0, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_induced_alpha_functorial(m, n, p, data):
    alpha = sorted(data.draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
    beta = sorted(data.draw(st.lists(st.integers(1, p), min_size=n, max_size=n)))
    am = {i + 1: alpha[i] for i in range(m)}
    bn = {i + 1: beta[i] for i in range(n)}
    comp = {i + 1: beta[alpha[i] - 1] for i in range(m)}
    lhs = induced_alpha(m, p, comp)
    a_push = induced_alpha(m, n, am)
    b_push = induced_alpha(n, p, bn)
    for v in MeshWindow(m, -2, 2).vertices():
        assert lhs(v) == b_push(a_push(v))


def test_induced_alpha_order_and_f_equivariance():
    m, n = 2, 4
    alpha = {1: 2, 2: 3}
    push = induced_alpha(m, n, alpha)
    w = MeshWindow(m, -2, 2)
    for a in w.vertices():
        for b in w.vertices():
            if sh.mesh_leq(a, b):
                assert sh.mesh_leq(push(a), push(b))
        assert push(mesh_map_f(m, a)) == mesh_map_f(n, push(a))


def test_reflection_path():
    assert reflection_path(LineQuiver.linear(2), LineQuiver(2, "B")) == [2]
    src, dst = LineQuiver.linear(4), LineQuiver(4, "BFB")
    path = reflection_path(src, dst)
    cur = src
    for a in path:
        cur = cur.reflect(a)
    assert cur == dst


def boundary_between(n, a, b):
    """The oracle of mesh_hom: True if every mesh morphism a -> b is zero
    because it factors through the vanishing boundary rows."""
    if not mesh_leq(a, b):
        return True
    for k in range(a[0], b[0] + 1):
        for l in (0, n + 1):
            if mesh_leq(a, (k, l)) and mesh_leq((k, l), b):
                return True
    return False


@pytest.mark.parametrize("n", range(1, 9))
def test_mesh_hom_is_reachability_off_the_boundary(n):
    """mesh_hom is 1 exactly where u <= v and no morphism factors through a
    boundary vertex, on every pair of interior vertices of a window of 2n + 8
    columns, which holds the pairs checked by hand for n = 2."""
    if n == 2:  # the only route from (0, 1) to (1, 1) passes the boundary vertex (1, 0)
        assert [mesh_hom(2, (0, 1), v) for v in ((1, 1), (0, 2), (1, 2))] == [0, 1, 0]
    for a, b in itertools.product(MeshWindow(n, -3, 2 * n + 4).interior(), repeat=2):
        assert mesh_hom(n, a, b) == (not boundary_between(n, a, b)), (a, b)


@pytest.mark.parametrize("n", range(1, 6))
def test_mesh_degree_is_the_only_degree_of_hom(n):
    """mesh_degree(n, a, u) is the only D in -16..16 with mesh_hom(n, a,
    f^-D(u)), and None when there is no such D, on every pair of interior
    vertices of a window of 2n + 8 columns."""
    w = MeshWindow(n, -3, 2 * n + 4).interior()
    for u in w:
        orbit = {0: u}
        for d in range(1, 17):
            orbit[d], orbit[-d] = mesh_map_f_inv(n, orbit[d - 1]), mesh_map_f(n, orbit[1 - d])
        for a in w:
            got = mesh_degree(n, a, u)
            want = [d for d, x in orbit.items() if mesh_hom(n, a, x)]
            assert want == ([] if got is None else [got]), (a, u)


@pytest.mark.parametrize("n", range(1, 9))
def test_happel_table_is_a_bijection_onto_the_intervals(n):
    """Over every orientation each interval has one vertex of degree 0, the
    interval it reads is its own in degree 0, and f moves it to the same
    interval one degree up."""
    for q in all_orientations(n):
        table = happel_table(q)
        assert sorted(table) == [(a, b) for a in q.vertices for b in q.vertices if a <= b]
        for itv, u in table.items():
            assert mesh_interval(q, u) == (0, itv)
            assert mesh_interval(q, mesh_map_f(n, u)) == (1, itv)


def test_happel_table_rejects_a_collapsed_embedding(monkeypatch):
    """With both vertices of A2 on one mesh vertex, some vertex reads no one
    shifted interval, and the build raises instead of giving some table."""
    monkeypatch.setattr(sh, "embed_iQ", lambda q: {v: (0, 1) for v in q.vertices})
    happel_table.cache_clear()
    with pytest.raises(RuntimeError, match=r"A\(\(0, 1\)\) over A2\[F\] is not one shifted"):
        happel_table(LineQuiver.linear(2))


def test_happel_table_rejects_a_hom_without_its_degree(monkeypatch):
    """A mesh_degree that reads every nonzero hom in degree 0 gives u and f(u)
    the same interval in degree 0, and the build raises."""
    degree = sh.mesh_degree
    monkeypatch.setattr(sh, "mesh_degree", lambda n, a, u: None if degree(n, a, u) is None else 0)
    happel_table.cache_clear()
    with pytest.raises(RuntimeError, match="intervals over A3.FF. are not one vertex each"):
        happel_table(LineQuiver.linear(3))


def test_window_squares():
    w = MeshWindow(2, 0, 1)
    assert ((0, 1), (0, 2), (1, 0), (1, 1)) in w.squares()
    assert len(w.squares()) == 2
