import hashlib
import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrep.bimod import identity_prof
from meshrep.derived import (ChainMap, Complex, DerivedObject, cone, minimize, normalize,
                             object_complex)
from meshrep.linalg import GF, QQ, Matrix
from meshrep.rep import (Interval, all_intervals, hom_space, interval_module,
                         injective_interval, projective_interval, random_interval_sum)
from meshrep import functors
from meshrep.functors import (SerreTable, coxeter_minus, coxeter_plus, reflect_map,
                              reflect_minus, reflect_minus_obj, reflect_plus, reflect_plus_obj,
                              serre, serre_inverse, serre_on_object, serre_power,
                              transport, untransport)
from meshrep.serialize import complex_to_json
from meshrep.shapes import LineQuiver, all_orientations, admissible_sequence
from meshrep.tilting import coxeter_bimodule

F = GF(32003)


def interval_complex(q, i, j, field=F):
    return Complex.from_rep(interval_module(q, i, j, field))


def obj(*summands):
    return DerivedObject.from_dict({(s, Interval(i, j)): m for (s, i, j, m) in summands})


def test_reflect_plus_examples():
    q = LineQuiver.linear(2)
    q2, out = reflect_plus(q, 2, interval_complex(q, 2, 2))
    assert q2 == LineQuiver(2, "B")
    assert normalize(q2, out) == obj((-1, 2, 2, 1))
    _, out2 = reflect_plus(q, 2, interval_complex(q, 1, 2))
    assert normalize(q2, out2) == obj((0, 1, 1, 1))
    _, out3 = reflect_plus(q, 2, Complex.zero(q.poset(), F))
    assert out3.is_zero_object()


def test_reflect_minus_inverts():
    q = LineQuiver.linear(3)
    for itv in all_intervals(3):
        c = interval_complex(q, itv.i, itv.j)
        for a in q.sinks():
            q2, out = reflect_plus(q, a, c)
            q3, back = reflect_minus(q2, a, out)
            assert q3 == q
            assert normalize(q, back) == normalize(q, c)
    # and the dual order
    qb = LineQuiver(2, "B")
    _, mid = reflect_minus(qb, 2, interval_complex(qb, 2, 2).shift(-1))
    assert normalize(LineQuiver.linear(2), mid) == obj((0, 2, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reflection_inverse_laws_all(n):
    for q in all_orientations(n):
        for itv in all_intervals(n):
            c = interval_complex(q, itv.i, itv.j)
            for a in q.sinks():
                q2, out = reflect_plus(q, a, c)
                _, back = reflect_minus(q2, a, out)
                assert normalize(q, back) == normalize(q, c)
            for b in q.sources():
                q2, out = reflect_minus(q, b, c)
                _, back = reflect_plus(q2, b, out)
                assert normalize(q, back) == normalize(q, c)


def test_commuting_sinks():
    q = LineQuiver(3, "FB")  # 1->2<-3 has sinks {2}; use n=4 with two sinks
    q = LineQuiver(4, "FBF")  # arrows 1->2, 3->2, 3->4: sinks {2, 4}
    assert set(q.sinks()) == {2, 4}
    for itv in all_intervals(4):
        c = interval_complex(q, itv.i, itv.j)
        qa, ca = reflect_plus(q, 2, c)
        qab, cab = reflect_plus(qa, 4, ca)
        qb, cb = reflect_plus(q, 4, c)
        qba, cba = reflect_plus(qb, 2, cb)
        assert qab == qba
        assert normalize(qab, cab) == normalize(qba, cba)


def _route_inputs(q, field, rng, ndeg):
    """A random interval sum in each of the degrees 0..ndeg-1, the cone of a
    nonzero map between two random interval sums (a nonzero differential),
    and the zero complex."""
    def rand():
        return random_interval_sum(q, field, rng, max_total=3)[0]

    spread = reduce(Complex.direct_sum, [Complex.from_rep(rand()).shift(d) for d in range(ndeg)])
    x = rand()
    y = rand().direct_sum(x)  # so that Hom(x, y) is not zero
    basis = hom_space(x, y)
    phi = {e: reduce(lambda m1, m2: m1 + m2, [b[e] for b in basis]) for e in q.vertices}
    return [spread, cone(ChainMap(Complex.from_rep(x), Complex.from_rep(y), {0: phi})),
            Complex.zero(q.poset(), field)]


def _check_routes(q, field, rng, ndeg):
    """At every sink and source, reflect_plus and reflect_minus give the
    normal form of the chain-level reflection of c, and matrix for matrix
    minimize of the chain-level reflection of minimize(c).  An input with no
    differential is its own minimize(c), and each arrow away from the
    reflected vertex is then the input's own Matrix."""
    for c in _route_inputs(q, field, rng, ndeg):
        m = minimize(c)
        for a, new, chain in ([(a, reflect_plus, reflect_plus_obj) for a in q.sinks()]
                              + [(b, reflect_minus, reflect_minus_obj) for b in q.sources()]):
            q2, got = new(q, a, c)
            q3, want = chain(q, a, c)
            assert q2 == q3 and not got.diffs
            assert normalize(q2, got) == normalize(q2, want)
            exact = minimize(chain(q, a, m)[1])
            assert got.degrees() == exact.degrees()
            for d in got.degrees():
                assert got.term(d) == exact.term(d)
                for cov in q2.arrows() if not c.diffs else []:
                    if a not in cov:
                        assert got.term(d).mats[cov] is c.term(d).mats[cov]


ROUTE_FIELDS = [GF(2), GF(3), GF(32003), QQ]


@pytest.mark.parametrize("field", ROUTE_FIELDS, ids=str)
def test_homology_route_matches_the_chain_route_in_every_orientation(field):
    rng = np.random.default_rng(19)
    for n in range(1, 6):
        for i, q in enumerate(all_orientations(n)):
            _check_routes(q, field, rng, 2 + i % 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ROUTE_FIELDS), st.integers(1, 5), st.integers(2, 3),
       st.integers(0, 10**6), st.data())
def test_homology_route_matches_the_chain_route(field, n, ndeg, seed, data):
    q = data.draw(st.sampled_from(all_orientations(n)))
    _check_routes(q, field, np.random.default_rng(seed), ndeg)


def test_object_reflections_raise_as_the_chain_level_ones():
    """A vertex that is not a sink (source) given to reflect_plus
    (reflect_minus) raises the ValueError of reflect_plus_obj (reflect_minus_obj)."""
    q = LineQuiver.linear(3)
    c = interval_complex(q, 1, 3)
    for a, new, chain in ((1, reflect_plus, reflect_plus_obj), (2, reflect_plus, reflect_plus_obj),
                          (2, reflect_minus, reflect_minus_obj), (3, reflect_minus, reflect_minus_obj)):
        errors = []
        for route in (new, chain):
            with pytest.raises(ValueError) as err:
                route(q, a, c)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == f"{a} is not a {'sink' if new is reflect_plus else 'source'} of {q}"


def test_coxeter_examples():
    q = LineQuiver.linear(3)
    p1 = interval_complex(q, 1, 3)  # P_1
    assert normalize(q, coxeter_plus(q, p1)) == obj((-1, 1, 1, 1))
    assert coxeter_plus(q, Complex.zero(q.poset(), F)).is_zero_object()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coxeter_inverse(n):
    for q in all_orientations(n)[:4]:
        for itv in all_intervals(n):
            c = interval_complex(q, itv.i, itv.j)
            assert normalize(q, coxeter_minus(q, coxeter_plus(q, c))) == normalize(q, c)


def test_coxeter_sequence_independence():
    q = LineQuiver(4, "FBF")
    seqs = []
    import itertools
    from meshrep.shapes import is_admissible_sequence
    for p in itertools.permutations(q.vertices):
        if is_admissible_sequence(q, list(p)):
            seqs.append(list(p))
    assert len(seqs) >= 2
    for itv in all_intervals(4):
        c = interval_complex(q, itv.i, itv.j)
        outs = {normalize(q, coxeter_plus(q, c, sequence=s)) for s in seqs}
        assert len(outs) == 1


def test_serre_sends_projectives_to_injectives():
    for n in (2, 3, 4):
        for q in all_orientations(n):
            for v in q.vertices:
                p = projective_interval(q, v)
                i = injective_interval(q, v)
                got = normalize(q, serre(q, interval_complex(q, p.i, p.j)))
                assert got == obj((0, i.i, i.j, 1))


def test_serre_example_a3():
    q = LineQuiver.linear(3)
    assert normalize(q, serre(q, interval_complex(q, 1, 3))) == obj((0, 1, 1, 1))
    assert serre(q, Complex.zero(q.poset(), F)).is_zero_object()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fractional_calabi_yau(n):
    for q in all_orientations(n)[:4]:
        for itv in all_intervals(n):
            c = interval_complex(q, itv.i, itv.j)
            lhs = normalize(q, serre_power(q, c, n + 1))
            rhs = normalize(q, c).shift(n - 1)
            assert lhs == rhs


def test_serre_square_not_shift_n3():
    q = LineQuiver.linear(3)
    bad = []
    for itv in all_intervals(3):
        c = interval_complex(q, itv.i, itv.j)
        s2 = normalize(q, serre_power(q, c, 2))
        if s2 != normalize(q, c).shift(1):
            bad.append(itv)
    assert bad  # S^2 is not Sigma for n = 3


def test_transport_examples():
    q = LineQuiver.linear(2)
    q2 = LineQuiver(2, "B")
    out = transport(q, q2, interval_complex(q, 1, 2))
    assert normalize(q2, out) == obj((0, 1, 1, 1))  # single reflection
    # identity transport
    same = transport(q, q, interval_complex(q, 1, 1))
    assert normalize(q, same) == obj((0, 1, 1, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_transport_roundtrip(n):
    for q in all_orientations(n):
        for q2 in all_orientations(n):
            for itv in all_intervals(n):
                c = interval_complex(q, itv.i, itv.j)
                there = transport(q, q2, c)
                back = untransport(q, q2, there)
                assert normalize(q, back) == normalize(q, c)


def test_exactness_cone_compatibility():
    """Reflections send cones to cones (checked on canonical forms)."""
    rng = np.random.default_rng(12)
    q = LineQuiver(3, "FB")
    a = q.sinks()[0]
    for _ in range(6):
        x, _ = random_interval_sum(q, F, rng, max_total=3)
        y, _ = random_interval_sum(q, F, rng, max_total=3)
        basis = hom_space(x, y)
        if not basis:
            continue
        cx, cy = Complex.from_rep(x), Complex.from_rep(y)
        phi = ChainMap(cx, cy, {0: basis[0]})
        q2, _ = reflect_plus_obj(q, a, cx)
        fphi = reflect_map(q, a, phi, plus=True)
        fphi.validate()
        lhs = normalize(q2, cone(fphi))
        _, fcone = reflect_plus(q, a, cone(phi))
        assert lhs == normalize(q2, fcone)


def test_serre_duality_hom_dims():
    from meshrep.derived import derived_hom_dim
    for n in (2, 3):
        for q in all_orientations(n):
            objs = [DerivedObject.from_dict({(s, itv): 1})
                    for itv in all_intervals(n) for s in (-1, 0, 1)]
            for x in objs:
                for y in objs:
                    sx = serre_on_object(q, x, F)
                    assert derived_hom_dim(q, x, y, 0) == derived_hom_dim(q, y, sx, 0)



def test_serre_table_matches_serre_on_object():
    for n in (2, 3, 4):
        for q in all_orientations(n):
            table = SerreTable(q, F)
            for itv in all_intervals(n):
                for j in (-2, -1, 0, 1, 3):
                    delta, img = table.power(itv, j)
                    want = serre_on_object(q, obj((0, itv.i, itv.j, 1)), F, power=j)
                    assert want == obj((delta, img.i, img.j, 1))


def test_serre_table_raises_on_a_decomposable_image(monkeypatch):
    """Both users of the table raise, not assert (python -O drops asserts),
    when an image is not indecomposable."""
    from meshrep.suites import suite_frac_cy
    from meshrep.tilting import _minimality_grid
    real = functors.serre
    monkeypatch.setattr(functors, "serre", lambda q, c: real(q, c).direct_sum(c))
    with pytest.raises(RuntimeError, match="not indecomposable"):
        suite_frac_cy(nmax=2)
    with pytest.raises(RuntimeError, match="not indecomposable"):
        _minimality_grid(LineQuiver.linear(2), 2, F)


def _reflections(q, c, spectator=None):
    """Every one-step reflection of c: s^+ at each sink, s^- at each source."""
    return ([reflect_plus_obj(q, a, c, spectator) for a in q.sinks()]
            + [reflect_minus_obj(q, b, c, spectator) for b in q.sources()])


def _reflection_outputs(field) -> str:
    """JSON, with the degrees of the stored differentials, of every reflection
    at every sink and source of every orientation of A_1..A_4: of a random
    interval sum, of each of its reflections again (nonzero differentials),
    and of I_Q over Q x Q^op and of its reflections again; then C_Q^+ and
    C_Q^-."""
    out = []
    rng = np.random.default_rng(12)
    for n in range(1, 5):
        for q in all_orientations(n):
            x, _ = random_interval_sum(q, field, rng, max_total=4)
            x = x.direct_sum(interval_module(q, 1, n, field))
            spec = q.poset().opposite()
            for c, s in ((Complex.from_rep(x), None), (identity_prof(q, field).complex, spec)):
                for q2, c2 in _reflections(q, c, s):
                    out.append(_cx(c2))
                    out += [_cx(c3) for _, c3 in _reflections(q2, c2, s)]
            out += [_cx(coxeter_bimodule(q, sign, field).complex) for sign in (1, -1)]
    return json.dumps(out, sort_keys=True)


def _cx(c):
    return [complex_to_json(c), sorted(c.diffs)]


# recorded from the reflections that laid out their fibers and cones by hand
REFLECTION_GOLDEN = {
    "F5": "74695433801d636b1d2c0f061d5ca9f66829224ad670b91e89568a3726aecc6d",
    "F32003": "47d7dc48c9100efdb17d24fc0cb86508f9d8b889ed61cea5ef6fb942c36b0e14",
    "Q": "5323d6605fad2399f2b462a6dd12f8da2fba55f2a944dd3285afb9a4e86f78cf",
}


@pytest.mark.parametrize("field", [GF(5), GF(32003), QQ], ids=["F5", "F32003", "Q"])
def test_reflections_are_pinned(field):
    """The exact bytes of s_a^+ and s_a^-, chained, with and without a
    spectator, and of the Coxeter bimodules."""
    got = hashlib.sha256(_reflection_outputs(field).encode()).hexdigest()
    assert got == REFLECTION_GOLDEN[str(field)]
