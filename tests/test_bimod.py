import numpy as np
import pytest

from meshrep.bimod import (Bimodule, bar_tensor_oracle, bimodule_shape,
                           bimodules_quasi_isomorphic, cancel_tensor,
                           duality_module, from_left_complex,
                           identity_prof, linear_dual, to_left_complex)
from meshrep.derived import Complex, DerivedObject, normalize
from meshrep.linalg import GF, Matrix
from meshrep.rep import Interval, Rep, all_intervals, interval_module, random_interval_sum
from meshrep.functors import serre
from meshrep.shapes import LineQuiver, Poset, all_orientations

F = GF(32003)


def support_of(b: Bimodule):
    return {e: dims for e, dims in b.entry_pattern().items()}


def test_identity_prof_a3_pattern():
    q = LineQuiver.linear(3)
    i3 = identity_prof(q, F)
    got = {e for e in support_of(i3)}
    assert got == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}
    assert all(v == {0: 1} for v in support_of(i3).values())


def test_duality_module_a3_pattern():
    q = LineQuiver.linear(3)
    d3 = duality_module(q, F)
    got = set(support_of(d3))
    assert got == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}


def test_patterns_zigzag():
    q = LineQuiver(3, "BF")  # 1<-2->3
    iq = identity_prof(q, F)
    dq = duality_module(q, F)
    assert set(support_of(iq)) == {(1, 1), (2, 2), (3, 3), (1, 2), (3, 2)}
    assert set(support_of(dq)) == {(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)}


def test_n1_patterns():
    q = LineQuiver(1, "")
    assert set(support_of(identity_prof(q, F))) == {(1, 1)}
    assert set(support_of(duality_module(q, F))) == {(1, 1)}


def test_linear_dual():
    q = LineQuiver(3, "BF")
    iq = identity_prof(q, F)
    d = linear_dual(iq)
    # dual of I with swap is the duality module
    assert bimodules_quasi_isomorphic(d, duality_module(q, F))
    dd = linear_dual(d)
    assert bimodules_quasi_isomorphic(dd, iq)
    zero = Bimodule(q, q, Complex.zero(bimodule_shape(q, q), F))
    assert linear_dual(zero).complex.is_zero_object()


@pytest.mark.parametrize("orient", ["FF", "BF", "FB", "BB"])
def test_unit_law(orient):
    q = LineQuiver(3, orient)
    iq = identity_prof(q, F)
    rng = np.random.default_rng(5)
    x, _ = random_interval_sum(q, F, rng, max_total=3)
    nx = from_left_complex(q, Complex.from_rep(x))
    for method in ("hereditary", "bar"):
        out = cancel_tensor(iq, nx, method=method)
        out.complex.validate()
        got = normalize(q, to_left_complex(out))
        assert got == normalize(q, Complex.from_rep(x))


def test_tensor_zero():
    q = LineQuiver.linear(2)
    iq = identity_prof(q, F)
    z = from_left_complex(q, Complex.zero(q.poset(), F))
    assert cancel_tensor(iq, z).complex.is_zero_object()


def test_nakayama_is_serre():
    for orient in ("FFF", "BFB"):
        q = LineQuiver(4, orient)
        dq = duality_module(q, F)
        for itv in all_intervals(4):
            x = Complex.from_rep(interval_module(q, itv.i, itv.j, F))
            lhs = normalize(q, to_left_complex(cancel_tensor(dq, from_left_complex(q, x))))
            rhs = normalize(q, serre(q, x))
            assert lhs == rhs, (orient, itv)


def test_nakayama_example_d3_p1():
    q = LineQuiver.linear(3)
    dq = duality_module(q, F)
    p1 = from_left_complex(q, Complex.from_rep(interval_module(q, 1, 3, F)))
    out = normalize(q, to_left_complex(cancel_tensor(dq, p1)))
    assert out == DerivedObject.from_dict({(0, Interval(1, 1)): 1})


def test_unit_tensor_identity_bimodules():
    q = LineQuiver(2, "B")
    iq = identity_prof(q, F)
    out = cancel_tensor(iq, iq)
    out.complex.validate()
    assert bimodules_quasi_isomorphic(out, iq)


def test_bar_agrees_with_hereditary():
    rng = np.random.default_rng(31)
    for orient in ("FF", "BF"):
        q = LineQuiver(3, orient)
        iq = identity_prof(q, F)
        dq = duality_module(q, F)
        for (m, n) in [(iq, dq), (dq, dq), (dq, iq)]:
            h = cancel_tensor(m, n, method="hereditary")
            b = cancel_tensor(m, n, method="bar")
            h.complex.validate()
            b.complex.validate()
            assert bimodules_quasi_isomorphic(h, b)


def test_tensor_opposite_symmetry():
    """R (x)_[A] Y = Y (x)_[A^op] R for a right module R and a left module Y."""
    from meshrep.bimod import from_right_complex
    from meshrep.derived import homology_dims
    q = LineQuiver(3, "FB")
    qop = q.opposite()
    rng = np.random.default_rng(8)
    for _ in range(5):
        r, _m = random_interval_sum(qop, F, rng, max_total=2)   # a rep of q^op
        y, _m = random_interval_sum(q, F, rng, max_total=2)     # a rep of q
        rc, yc = Complex.from_rep(r), Complex.from_rep(y)
        lhs = cancel_tensor(from_right_complex(q, rc), from_left_complex(q, yc))
        rhs = cancel_tensor(from_right_complex(qop, yc), from_left_complex(qop, rc))
        assert homology_dims(lhs.complex, ((), ())) == homology_dims(rhs.complex, ((), ()))


# sha256 of the serialized tensor, and the number of middle actions it builds,
# on five inputs: D_Q (x) D_Q on linear A4 over F_32003 by each route (6
# actions on the covers, 12 on the comparable pairs), on linear A3 over Q by
# the hereditary and over F_5 by the bar route, and the square/D4 pair over Q
# (the bar route with inner faces over a non-tree middle): pins every term and
# differential of the result
TENSOR_DIGESTS = {
    "hereditary": (6, "b35679ac94aebdba920604065799ebf15ce73b84098cf44fa1a89decf275f134"),
    "bar": (12, "563a82fb3d9bb2b9e7bb696510e29cd78909d6c413ea4a76828254234737db67"),
    "a3-q": (4, "0a03a80ef27eafef4c981abb9ee3362e96ddaa401c559dd0d9b2bf26e5809e87"),
    "a3-f5": (6, "597d8577e51c61580f9ec490f23e42c45d85ea96c77e8096e08e293a037a3212"),
    "square-d4-q": (6, "121acc529e4da37cd1473ac68502298b3009f3e0ec6bfec4a1cc31efc3fa3001"),
}


@pytest.mark.parametrize("case", sorted(TENSOR_DIGESTS))
def test_cancel_tensor_builds_each_action_once(case, monkeypatch):
    """One restrict_map per middle action, and the pinned output.  The inputs
    are built before restrict_map is counted, as building them restricts too."""
    import hashlib
    from meshrep import derived
    from meshrep.linalg import QQ
    from meshrep.serialize import complex_to_json, dumps
    from meshrep.tilting import square_d4_bimodule, square_d4_inverse
    if case in ("hereditary", "bar"):
        m = n = duality_module(LineQuiver.linear(4), F)
        method = case
    elif case == "square-d4-q":
        m, n, method = square_d4_inverse(QQ), square_d4_bimodule(QQ), "auto"
    else:
        m = n = duality_module(LineQuiver.linear(3), QQ if case == "a3-q" else GF(5))
        method = "hereditary" if case == "a3-q" else "bar"
    calls = []
    original = derived.restrict_map

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(derived, "restrict_map", counting)
    out = cancel_tensor(m, n, method=method)
    n_maps, digest = TENSOR_DIGESTS[case]
    assert len(calls) == n_maps
    assert hashlib.sha256(dumps(complex_to_json(out.complex)).encode()).hexdigest() == digest


# sha256 of the serialized external tensor on three inputs with differentials
# on both sides, shifts and both kinds of field: pins the (i, j) layout, the
# Kronecker order and the sign (-1)^i on id (x) d of boxtimes
BOXTIMES_DIGESTS = {
    "apr": "3f50d588459ad83b1bdfe0a5e65a89f988be605e7aacb002abdfc4ee577cca42",
    "coxeter-duality": "c517c42e86d81859f88f7f8b3b4e21efb83cdb2de3713512b43b622b623c7652",
    "apr-q": "87e1aa02158ce4c7cef58e66f7737ec159f846e6496c7af8a87686b08b50bdb2",
}


@pytest.mark.parametrize("case", sorted(BOXTIMES_DIGESTS))
def test_boxtimes_digest(case):
    import hashlib
    from meshrep.bimod import boxtimes
    from meshrep.linalg import QQ
    from meshrep.serialize import complex_to_json, dumps
    from meshrep.tilting import apr_tilt, coxeter_bimodule
    if case == "apr":
        tp, tm = apr_tilt(LineQuiver.linear(3), 3, F)
        out = boxtimes(tm, tp)
    elif case == "coxeter-duality":
        out = boxtimes(coxeter_bimodule(LineQuiver(3, "FB"), 1, F),
                       duality_module(LineQuiver(2, "B"), F).shift(1))
    else:
        _, tm = apr_tilt(LineQuiver(3, "BF"), 1, QQ)
        out = boxtimes(tm, identity_prof(LineQuiver(2, "B"), QQ))
    out.complex.validate()
    digest = hashlib.sha256(dumps(complex_to_json(out.complex)).encode()).hexdigest()
    assert digest == BOXTIMES_DIGESTS[case]


def _cover_paths(p: Poset, a, b) -> int:
    """The number of cover paths from a to b, by brute force."""
    return 1 if a == b else sum(_cover_paths(p, v, b) for (u, v) in p.covers if u == a)


def test_treelike_is_at_most_one_cover_path():
    """_treelike agrees with counting the cover paths between every two
    elements: on every orientation with n <= 5, the square, D4, a mesh
    window, and the products Q x Q'^op of orientations with n <= 3."""
    from meshrep.bimod import _treelike
    from meshrep.shapes import MeshWindow
    from meshrep.tilting import d4_poset, square_poset
    shapes = [q.poset() for n in range(1, 6) for q in all_orientations(n)]
    shapes += [square_poset(), d4_poset(), MeshWindow(3, 0, 2).poset()]
    shapes += [bimodule_shape(q, q2) for n in range(1, 4)
               for q in all_orientations(n) for q2 in all_orientations(n)]
    got = [(p.name, _treelike(p)) for p in shapes]
    want = [(p.name, all(_cover_paths(p, a, b) <= 1 for a in p.elements for b in p.elements))
            for p in shapes]
    assert got == want
    assert {t for _, t in want} == {True, False}
