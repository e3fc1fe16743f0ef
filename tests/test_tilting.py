import numpy as np
import pytest

from meshrep.bimod import (bimodules_quasi_isomorphic, cancel_tensor,
                           duality_module, from_left_complex, identity_prof,
                           to_left_complex)
from meshrep.derived import ChainMap, Complex, DerivedObject, cone, normalize
from meshrep.linalg import GF, QQ
from meshrep.rep import (Interval, all_intervals, hom_space, interval_module,
                         interval_presentation, random_interval_sum)
from meshrep.functors import (coxeter_plus, reflect_plus, serre,
                              reflect_plus_obj, transport)
from meshrep.shapes import LineQuiver, MeshWindow, all_orientations, embed_iQ
from meshrep.tilting import (apr_tilt, apply_bimodule, ar_constructor,
                             ar_constructor_restriction, coxeter_bimodule,
                             functor_kernel, iter_tilt, picard_check,
                             serre_bimodule, square_d4_bimodule,
                             square_d4_inverse, square_d4_pattern_matches,
                             tensor_power, tilting_check, yoneda_restriction_is_identity,
                             yoneda_serre_twist_holds, yoneda_window)

F = GF(32003)


def test_apr_inverse_laws_a2():
    q = LineQuiver.linear(2)
    tp, tm = apr_tilt(q, 2, F)
    q2 = q.reflect(2)
    assert bimodules_quasi_isomorphic(cancel_tensor(tm, tp), identity_prof(q, F))
    assert bimodules_quasi_isomorphic(cancel_tensor(tp, tm), identity_prof(q2, F))


@pytest.mark.parametrize("orient", ["FF", "BF", "FB", "BB"])
def test_apr_inverse_laws_n3(orient):
    q = LineQuiver(3, orient)
    for a in q.sinks():
        tp, tm = apr_tilt(q, a, F)
        q2 = q.reflect(a)
        assert bimodules_quasi_isomorphic(cancel_tensor(tm, tp), identity_prof(q, F))
        assert bimodules_quasi_isomorphic(cancel_tensor(tp, tm), identity_prof(q2, F))


def test_apr_commuting_sinks():
    q = LineQuiver(4, "FBF")  # sinks {2, 4}
    t2, _ = apr_tilt(q, 2, F)
    t4, _ = apr_tilt(q, 4, F)
    q2, q4 = q.reflect(2), q.reflect(4)
    t24, _ = apr_tilt(q2, 4, F)
    t42, _ = apr_tilt(q4, 2, F)
    lhs = cancel_tensor(t24, t2)
    rhs = cancel_tensor(t42, t4)
    assert bimodules_quasi_isomorphic(lhs, rhs)


def test_apr_reproduces_reflection():
    for orient in ("FF", "FB", "BB", "BF"):
        q = LineQuiver(3, orient)
        for a in q.sinks():
            tp, _ = apr_tilt(q, a, F)
            q2 = q.reflect(a)
            for itv in all_intervals(3):
                x = Complex.from_rep(interval_module(q, itv.i, itv.j, F))
                via_bimod = normalize(q2, apply_bimodule(tp, q, x))
                _, direct = reflect_plus(q, a, x)
                assert via_bimod == normalize(q2, direct)


def _kernels(q, field):
    """(name, kernel, quiver of its inputs): I, D, C+, C-, the APR tilts T+
    and T- at every sink, and an iterated tilt."""
    q3 = all_orientations(q.n)[-1]
    out = [("I", identity_prof(q, field), q), ("D", duality_module(q, field), q),
           ("C+", coxeter_bimodule(q, 1, field), q), ("C-", coxeter_bimodule(q, -1, field), q),
           ("iter_tilt", iter_tilt(q3, q, field), q)]
    for a in q.sinks():
        tp, tm = apr_tilt(q, a, field)
        out += [(f"T+{a}", tp, q), (f"T-{a}", tm, q.reflect(a))]
    return out


def _with_differential(q, field, rng):
    """The cone of a nonzero map between two random interval sums: a complex
    that stores a nonzero differential."""
    while True:
        x, _ = random_interval_sum(q, field, rng, max_total=2)
        y, _ = random_interval_sum(q, field, rng, max_total=2)
        basis = hom_space(x, y)
        if basis:
            return cone(ChainMap(Complex.from_rep(x), Complex.from_rep(y), {0: basis[0]}))


@pytest.mark.parametrize("field", [GF(5), F, QQ], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_bimodule_matches_the_bimodule_resolution(field, n):
    """apply_bimodule tensors through the minimal projective resolution of
    its input; cancel_tensor through the two-term bimodule resolution of I_Q.
    Both give the same canonical form on every interval, a shifted random
    sum, the zero complex and a complex with a nonzero differential."""
    rng = np.random.default_rng(n)
    for q in all_orientations(n):
        for name, t, src in _kernels(q, field):
            xs = [Complex.from_rep(interval_module(src, itv.i, itv.j, field))
                  for itv in all_intervals(n)]
            xs.append(Complex.from_rep(random_interval_sum(src, field, rng)[0]).shift(-1))
            xs.append(Complex.zero(src.poset(), field))
            xs.append(_with_differential(src, field, rng))
            assert any(not m.is_zero() for phi in xs[-1].diffs.values() for m in phi.values())
            for x in xs:
                reference = to_left_complex(cancel_tensor(t, from_left_complex(src, x)))
                assert normalize(t.left, apply_bimodule(t, src, x)) == \
                    normalize(t.left, reference), (name, q, src, x)


@pytest.mark.parametrize("n", range(1, 7))
def test_interval_presentation_has_the_dimensions_of_the_interval(n):
    """At every vertex, dim P0 - dim P1 = dim M[i,j]; every relation maps
    into a top above it, and two tops only from their valley."""
    for q in all_orientations(n):
        p = q.poset()
        for itv in all_intervals(n):
            tops, relations = interval_presentation(q, itv)
            for u in q.vertices:
                p0 = sum(p.leq(v, u) for v in tops)
                p1 = sum(p.leq(w, u) for w, _ in relations)
                assert p0 - p1 == int(itv.i <= u <= itv.j), (q, itv, u)
            for w, into in relations:
                assert all(p.leq(v, w) and v in tops for v, _ in into)
                assert sorted(sign for _, sign in into) in ([1], [-1, 1])


def test_interval_presentation_examples():
    q = LineQuiver(4, "FBF")  # 1 -> 2 <- 3 -> 4
    assert interval_presentation(q, Interval(1, 4)) == ([1, 3], [(2, [(1, 1), (3, -1)])])
    assert interval_presentation(q, Interval(3, 3)) == ([3], [(2, [(3, 1)]), (4, [(3, 1)])])
    assert interval_presentation(q, Interval(2, 2)) == ([2], [])


def test_tensor_rejects_a_middle_shape_of_another_orientation():
    """D over A3[FB] cannot be tensored with a module over A3[FF]: the
    middle shapes have the same elements but other covers."""
    qfb, qff = LineQuiver(3, "FB"), LineQuiver(3, "FF")
    dq = duality_module(qfb, F)
    x = Complex.from_rep(interval_module(qff, 1, 3, F))
    with pytest.raises(ValueError, match="middle shapes do not match"):
        apply_bimodule(dq, qff, x)
    with pytest.raises(ValueError, match="middle shapes do not match"):
        cancel_tensor(dq, from_left_complex(qff, x))


def test_iter_tilt_identity():
    q = LineQuiver(3, "FB")
    t = iter_tilt(q, q, F)
    assert bimodules_quasi_isomorphic(t, identity_prof(q, F))


def test_serre_bimodule_is_duality():
    for n in (2, 3, 4):
        for q in all_orientations(n)[:4]:
            assert bimodules_quasi_isomorphic(serre_bimodule(q, F), duality_module(q, F)), q


def test_kernel_agreement_functors():
    q = LineQuiver(3, "BF")
    ker_cox = functor_kernel(q, lambda qq, c, spec: coxeter_plus(qq, c, spectator=spec), F)
    ker_sigma = functor_kernel(q, lambda qq, c, spec: c.shift(1), F)
    for itv in all_intervals(3):
        x = Complex.from_rep(interval_module(q, itv.i, itv.j, F))
        assert normalize(q, apply_bimodule(ker_cox, q, x)) == normalize(q, coxeter_plus(q, x))
        assert normalize(q, apply_bimodule(ker_sigma, q, x)) == normalize(q, x.shift(1))


def test_adjoint_hom_identity():
    """dim hom(T+ (x) X, Y) = dim hom(X, T- (x) Y) over the reflected pair."""
    from meshrep.derived import derived_hom_dim
    q = LineQuiver(3, "FF")
    a = 3
    q2 = q.reflect(a)
    tp, tm = apr_tilt(q, a, F)
    rng = np.random.default_rng(4)
    from meshrep.rep import random_interval_sum
    for _ in range(5):
        x, _m = random_interval_sum(q, F, rng, max_total=2)
        y, _m = random_interval_sum(q2, F, rng, max_total=2)
        cx, cy = Complex.from_rep(x), Complex.from_rep(y)
        lhs = derived_hom_dim(q2, normalize(q2, apply_bimodule(tp, q, cx)), normalize(q2, cy), 0)
        rhs = derived_hom_dim(q, normalize(q, cx), normalize(q, apply_bimodule(tm, q2, cy)), 0)
        assert lhs == rhs


def test_tilting_check_reports():
    q = LineQuiver.linear(3)
    iq = identity_prof(q, F)
    rep = tilting_check(iq, F, inverse=iq)
    assert rep.all_pass()
    # I + Sigma I is not rigid
    bad = iq.complex.direct_sum(iq.complex.shift(1))
    from meshrep.bimod import Bimodule
    rep2 = tilting_check(Bimodule(q, q, bad), F)
    assert not rep2.rigid
    # APR bimodules tilt
    tp, tm = apr_tilt(q, 3, F)
    rep3 = tilting_check(tp, F, inverse=tm)
    assert rep3.all_pass()


def test_tilting_check_perfect_needs_a_quasi_isomorphic_model(monkeypatch):
    """perfect rests on the projective model of each column: with its
    augmentation corrupted to zero the cone is not acyclic."""
    import meshrep.hom_chain as hom_chain
    from meshrep.derived import ChainMap
    q = LineQuiver.linear(3)
    iq = identity_prof(q, F)
    assert tilting_check(iq, F).perfect
    model = hom_chain.projective_model

    def zero_augmentation(*args):
        p, aug = model(*args)
        return p, ChainMap.zero(p, aug.tgt)
    monkeypatch.setattr(hom_chain, "projective_model", zero_augmentation)
    assert not tilting_check(iq, F).perfect


@pytest.mark.parametrize("n", [2, 3])
def test_picard(n):
    rep = picard_check(n, F)
    assert rep.all_pass(), rep


def test_ar_constructor_restriction_is_identity():
    q = LineQuiver(3, "BF")
    d = ar_constructor(q, F)
    rest = ar_constructor_restriction(d, q, embed_iQ(q))
    assert bimodules_quasi_isomorphic(rest, identity_prof(q, F))
    # boundary entries vanish
    for v in d.window.vertices():
        if v[1] in (0, q.n + 1):
            assert d.is_zero_at(v)


def test_ar_constructor_tensor_matches_build_ar():
    from meshrep.armesh import build_ar
    q = LineQuiver.linear(2)
    d = ar_constructor(q, F)
    rng = np.random.default_rng(9)
    from meshrep.rep import random_interval_sum
    x, _ = random_interval_sum(q, F, rng, max_total=2)
    cx = Complex.from_rep(x)
    dx = build_ar(q, cx)
    from meshrep.armesh import merge_window_complex
    from meshrep.bimod import Bimodule
    from meshrep.derived import homology_dims
    # tensor the constructor with x and compare entries on the window
    arq = Bimodule(d.window.poset(), q, merge_window_complex(d))
    out = cancel_tensor(arq, from_left_complex(q, cx))
    for v in dx.window.vertices():
        got = homology_dims(out.complex, (v, ()))
        assert got == dx.canonical(v), v


def test_iter_tilt_vs_restriction():
    from meshrep.functors import transport_embedding
    q = LineQuiver.linear(3)
    q2 = LineQuiver(3, "BF")
    t = iter_tilt(q2, q, F)
    d = ar_constructor(q, F)
    emb = transport_embedding(q, q2)
    rest = ar_constructor_restriction(d, q2, emb)
    assert bimodules_quasi_isomorphic(rest, t)


def test_yoneda_window():
    for n in (2, 3):
        q = LineQuiver.linear(n)
        w = MeshWindow(n, -1, n + 2)
        table = yoneda_window(q, w)
        assert yoneda_restriction_is_identity(q, table)
        for k in range(w.kmin, w.kmax + 1):
            assert table[((k, 0), (k, 0))] == {}
        assert yoneda_serre_twist_holds(q, w, table)


def test_square_d4():
    t = square_d4_bimodule(F)
    t.complex.validate()
    assert square_d4_pattern_matches(t)
    tinv = square_d4_inverse(F)
    tinv.complex.validate()
    one = cancel_tensor(tinv, t)   # middle square (bar route)
    other = cancel_tensor(t, tinv)  # middle D4 (hereditary route)
    from meshrep.tilting import d4_poset, square_poset
    assert bimodules_quasi_isomorphic(one, identity_prof(square_poset(), F))
    assert bimodules_quasi_isomorphic(other, identity_prof(d4_poset(), F))
