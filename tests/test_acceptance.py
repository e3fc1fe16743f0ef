"""The acceptance battery: one test per criterion, exact tolerances.

Each test prints its pass/fail line (run pytest with -s to stream them; the
same suites back `meshrep check`).
"""

import pytest

from meshrep import suites
from meshrep.rep import decompose
from meshrep.suites import ALL_SUITES, DEFAULT_SEED, run_seed


def _run(name, **kwargs):
    rep = ALL_SUITES[name](seed=run_seed(DEFAULT_SEED), **kwargs)
    print(rep.line())
    assert rep.passed, rep.line()


def test_criterion_01_census():
    """n(n+1)/2 indecomposables; decompose recovers random sums over Q and F5."""
    _run("census")


def test_census_fails_when_decompose_drops_a_summand(monkeypatch):
    """Negative control: a decompose that loses one summand makes census FAIL."""
    def dropping(q, x):
        got = decompose(q, x)
        first = next(iter(got))
        got[first] -= 1
        return {itv: m for itv, m in got.items() if m}

    monkeypatch.setattr(suites, "decompose", dropping)
    rep = suites.suite_census(seed=DEFAULT_SEED, nmax=2, samples=2)
    assert not rep.passed and rep.detail == "decompose mismatch", rep.line()


def test_census_fails_when_the_thin_path_ignores_zero_arrows(monkeypatch):
    """Mutation: reading a thin rep as its runs of support, joined also by
    zero arrows, makes census FAIL."""
    from meshrep import rep as rep_module
    from meshrep.rep import Interval

    def runs_of_support(q, x):
        out, birth = {}, 0
        for k in q.vertices:
            if x.dims[k]:
                birth = birth or k
                if k == q.n or not x.dims[k + 1]:
                    out[Interval(birth, k)] = 1
                    birth = 0
        return out

    monkeypatch.setattr(rep_module, "_thin_intervals", runs_of_support)
    rep = suites.suite_census(seed=DEFAULT_SEED, nmax=3, samples=10)
    assert not rep.passed and rep.detail == "decompose mismatch", rep.line()


def test_criterion_02_ar_construction():
    """Boundary vanishing, bicartesian squares, round trip, Sigma = f^*."""
    _run("ar")


def test_ar_fails_when_stiffen_forgets_the_arrows(monkeypatch):
    """Negative control: a stiffening handed zero maps in place of the input
    arrows makes ar FAIL."""
    from meshrep import armesh
    from meshrep.derived import ChainMap
    stiffen = armesh.stiffen
    monkeypatch.setattr(armesh, "stiffen", lambda q, values, arrows: stiffen(
        q, values, {k: ChainMap.zero(a.src, a.tgt) for k, a in arrows.items()}))
    rep = suites.suite_ar(seed=DEFAULT_SEED, nmax=2)
    assert not rep.passed and rep.detail == "round trip failed", rep.line()


def test_criterion_03_reflections():
    """Inverse laws, commuting sinks, admissible-sequence independence."""
    _run("reflections")


def test_reflections_fail_when_split_loses_an_arrow(monkeypatch):
    """Negative control: reflections built from a split whose last arrow is
    zero make reflections FAIL."""
    from meshrep import functors
    from meshrep.derived import ChainMap
    split = functors.split

    def losing(c, base, spec):
        values, arrows = split(c, base, spec)
        last = list(arrows)[-1]
        arrows[last] = ChainMap.zero(arrows[last].src, arrows[last].tgt)
        return values, arrows

    monkeypatch.setattr(functors, "split", losing)
    rep = suites.suite_reflections(seed=DEFAULT_SEED, nmax=3)
    assert not rep.passed and rep.detail == "s- s+ != id", rep.line()


def test_homology_route_fails_when_the_cokernel_is_dropped(monkeypatch):
    """Mutation: object-level reflections that drop the cokernel summand
    (a projection onto nothing) make kernels FAIL on coxeter+ and
    reflections FAIL on s- s+."""
    from meshrep import functors
    from meshrep.linalg import Matrix, kernel_cokernel
    monkeypatch.setattr(functors, "kernel_cokernel", lambda psi: (
        kernel_cokernel(psi)[0], Matrix.zeros(psi.field, 0, psi.nrows)))
    rep = suites.suite_kernels(seed=DEFAULT_SEED, nmax=2, oracle_pairs=0)
    assert not rep.passed and rep.detail == "kernel disagrees with coxeter+", rep.line()
    rep = suites.suite_reflections(seed=DEFAULT_SEED, nmax=3)
    assert not rep.passed and rep.detail == "s- s+ != id", rep.line()


def test_criterion_04_fractional_calabi_yau():
    """S^(n+1) = Sigma^(n-1) for n = 2..6; S^2 != Sigma at n = 3."""
    _run("frac-cy")


def test_frac_cy_fails_when_serre_powers_are_shifted_once_more(monkeypatch):
    """Negative control: a SerreTable whose powers carry one more shift
    makes frac-cy FAIL."""
    table = suites.SerreTable

    class Shifted(table):
        def power(self, itv, j):
            delta, img = super().power(itv, j)
            return delta + 1, img

    monkeypatch.setattr(suites, "SerreTable", Shifted)
    rep = suites.suite_frac_cy(seed=DEFAULT_SEED, nmax=3)
    assert not rep.passed and rep.detail == "S^(n+1) != Sigma^(n-1)", rep.line()


def test_criterion_05_serre_duality():
    """hom(x, y) = hom(y, Sx) over shifted intervals in a 3-domain window."""
    _run("serre-duality")


def test_serre_duality_fails_when_serre_is_shifted_once_more(monkeypatch):
    """Negative control: a SerreTable whose every image is shifted once more
    makes serre-duality FAIL."""
    table = suites.SerreTable

    class Shifted(table):
        def __init__(self, q, field):
            super().__init__(q, field)
            self.images = {itv: (delta + 1, img) for itv, (delta, img) in self.images.items()}

    monkeypatch.setattr(suites, "SerreTable", Shifted)
    rep = suites.suite_serre_duality(seed=DEFAULT_SEED, nmax=3)
    assert not rep.passed and rep.detail == "hom(x,y) != hom(y,Sx)", rep.line()


def test_criterion_06_nakayama_is_serre():
    """D_Q (x) x = S(x) and Sigma(C_Q+) = D_Q, all orientations, n <= 4."""
    _run("nakayama")


def test_nakayama_fails_when_serre_is_shifted_once(monkeypatch):
    """Negative control: a Serre functor shifted once makes nakayama FAIL."""
    serre = suites.serre
    monkeypatch.setattr(suites, "serre", lambda *a, **kw: serre(*a, **kw).shift(1))
    rep = suites.suite_nakayama(seed=DEFAULT_SEED, nmax=2)
    assert not rep.passed and rep.detail == "D (x) x != S(x)", rep.line()


def test_criterion_07_bimodule_calculus():
    """Unit law, T+- inverses, functor/kernel agreement, bar oracle."""
    _run("kernels")


def test_kernels_fails_when_each_kernel_is_shifted_once_more(monkeypatch):
    """Negative control: a functor_kernel whose bimodule is shifted once more
    than the functor makes kernels FAIL.  It is patched where suites looks it
    up, and in tilting for the Coxeter and Serre kernels built there."""
    from meshrep import tilting
    kernel = tilting.functor_kernel
    shifted = lambda *a, **kw: kernel(*a, **kw).shift(1)  # noqa: E731
    monkeypatch.setattr(suites, "functor_kernel", shifted)
    monkeypatch.setattr(tilting, "functor_kernel", shifted)
    rep = suites.suite_kernels(seed=DEFAULT_SEED, nmax=2, oracle_pairs=0)
    assert not rep.passed and rep.detail == "kernel disagrees with sigma", rep.line()


def test_criterion_08_golden_diagrams():
    """I(A3), D(A3), D(1<-2->3), square<->D4 patterns entry-for-entry."""
    _run("golden")


def test_golden_fails_when_the_duality_module_is_the_identity(monkeypatch):
    """Negative control: a duality module that returns I_Q makes golden FAIL."""
    monkeypatch.setattr(suites, "duality_module", suites.identity_prof)
    rep = suites.suite_golden(seed=DEFAULT_SEED)
    assert not rep.passed and rep.detail == "D(A3) pattern mismatch", rep.line()


def test_criterion_09_tilting_characterization():
    """Perfect / rigid / generator / invertible for every T_{Q',Q}, n <= 4."""
    _run("tilting")


def test_tilting_fails_when_the_reverse_tilt_is_shifted(monkeypatch):
    """Negative control: a reverse tilt shifted once makes tilting FAIL."""
    reverse = suites._reverse_tilt
    monkeypatch.setattr(suites, "_reverse_tilt", lambda *a: reverse(*a).shift(1))
    rep = suites.suite_tilting(seed=DEFAULT_SEED, nmax=2)
    assert not rep.passed and rep.detail == "tilting characterization failed", rep.line()


def test_criterion_10_picard_relations():
    """Commutation, (Sigma I)^(n-1) = D^(n+1) for n = 2..4, minimality grid."""
    _run("picard")


def test_picard_fails_when_the_duality_module_is_shifted_once(monkeypatch):
    """Negative control: a duality module shifted once makes picard FAIL."""
    from meshrep import tilting
    duality = tilting.duality_module
    monkeypatch.setattr(tilting, "duality_module", lambda *a, **kw: duality(*a, **kw).shift(1))
    rep = suites.suite_picard(seed=DEFAULT_SEED, nmax=3)
    assert not rep.passed and rep.detail == "Picard relations failed at n=2", rep.line()
    assert "fractional_relation=False" in rep.line()


def test_criterion_11_mesh_happel():
    """Hom table in {0,1}, support = mesh reachability, mesh triangles."""
    _run("mesh")


def test_mesh_fails_when_one_row_is_shifted(monkeypatch):
    """Negative control: mesh objects shifted once on the row l = 1 make mesh
    FAIL.  (Translating every object by t is an autoequivalence, which the
    suite rightly accepts.)"""
    from meshrep import armesh
    mesh_object = armesh.mesh_object
    monkeypatch.setattr(armesh, "mesh_object", lambda q, u, *a: mesh_object(q, u, *a).shift(
        1 if u[1] == 1 else 0))
    rep = suites.suite_mesh(seed=DEFAULT_SEED, nmax=2)
    assert not rep.passed and rep.detail == "Happel comparison failed", rep.line()


def test_criterion_12_yoneda_window():
    """Restriction = I_Q, boundary zero, Serre-twist self-duality."""
    _run("yoneda")


@pytest.mark.parametrize("on_column,detail", [
    (True, "(i x i^op)-restriction != I at n=1"),
    (False, "U_n |> S != (s x id)^* U_n at n=1"),
])
def test_yoneda_fails_when_one_entry_is_shifted(monkeypatch, on_column, detail):
    """Negative control: one nonzero entry of the Yoneda table shifted once
    makes yoneda FAIL, through the restriction check when the entry lies on
    the embedded column and through the Serre twist otherwise."""
    from meshrep.shapes import embed_iQ
    table_of = suites.yoneda_window

    def shifted(q, window):
        table = table_of(q, window)
        column = set(embed_iQ(q).values())
        key = next(k for k in sorted(table) if table[k] and (set(k) <= column) == on_column)
        return {**table, key: {d + 1: m for d, m in table[key].items()}}

    monkeypatch.setattr(suites, "yoneda_window", shifted)
    rep = suites.suite_yoneda(seed=DEFAULT_SEED, nmax=2)
    assert not rep.passed and rep.detail == detail, rep.line()


def test_criterion_13_higher_triangulation():
    """STC0-STC3 on 100 random bases per n in {2,3,4} plus the sign control."""
    _run("stc")


@pytest.mark.parametrize("bend,fires", [("one phi", True), ("one arrow", True), ("every phi", False)])
def test_stc_fails_when_one_interval_record_is_bent(monkeypatch, bend, fires):
    """Negative control: each interval record of the reference of
    is_distinguished with phi negated at one vertex, or with the map of one
    cover zeroed, makes stc FAIL at its first standard triangle.  Negating
    every phi does not fire, and must not: rescaling H_d by (-1)^d at every
    vertex keeps each cover and negates each phi, so it is an isomorphism
    from a record to its copy with every phi negated."""
    from meshrep import highertri
    from meshrep.linalg import Matrix
    from meshrep.shapes import mesh_map_f
    record = highertri._interval_record

    def bent(q, itv, field):
        dims, maps = record(q, itv, field)
        phis = [key for key in maps if key[2:4] == mesh_map_f(q.n, key[:2])]
        if bend == "one phi":
            return dims, {**maps, min(phis): -maps[min(phis)]}
        if bend == "one arrow":
            return dims, {**maps, min(maps.keys() - set(phis)): Matrix.zeros(field, 1, 1)}
        return dims, {**maps, **{key: -maps[key] for key in phis}}

    monkeypatch.setattr(highertri, "_interval_record", bent)
    rep = suites.suite_stc(seed=DEFAULT_SEED, samples=1)
    if fires:
        assert not rep.passed and rep.detail == "standard triangle not distinguished (STC1)", rep.line()
    else:
        assert rep.passed, rep.line()


def test_extra_d4_square_invertibility():
    _run("d4-square")


def test_d4_square_fails_when_the_inverse_is_shifted(monkeypatch):
    """Negative control: the square<->D4 inverse shifted once makes
    d4-square FAIL."""
    inverse = suites.square_d4_inverse
    monkeypatch.setattr(suites, "square_d4_inverse", lambda field: inverse(field).shift(1))
    rep = suites.suite_d4_square(seed=DEFAULT_SEED)
    assert not rep.passed and rep.detail == "square<->D4 bimodule not invertible", rep.line()


@pytest.mark.parametrize("name,kwargs,size", [
    ("census", {"nmax": 2, "samples": 2}, "for n<=2 and"),
    ("ar", {"nmax": 2}, "n<=2"),
    ("reflections", {"nmax": 2}, "n<=2"),
    ("frac-cy", {"nmax": 3}, "n=2..3; S^2 != Sigma witnessed at n=3"),
    ("frac-cy", {"nmax": 2}, "all orientations, n=2..2"),
    ("serre-duality", {"nmax": 3}, "n<=3"),
    ("nakayama", {"nmax": 2}, "n<=2"),
    ("kernels", {"nmax": 2, "oracle_pairs": 1}, "(n<=2)"),
    ("tilting", {"nmax": 2}, "n<=2"),
    ("picard", {"nmax": 2}, "D^(n+1), and relation minimality on the exponent grid, n=2..2"),
    ("picard", {"nmax": 3}, "n=3 negative control, and relation minimality on the exponent grid, n=2..3"),
    ("mesh", {"nmax": 2}, "n<=2"),
    ("yoneda", {"nmax": 2}, "n<=2"),
])
def test_report_lines_state_the_size_they_ran(name, kwargs, size):
    """A line names the nmax the suite ran, not its default, and claims the
    n = 3 witnesses only when it reached n = 3."""
    rep = ALL_SUITES[name](seed=DEFAULT_SEED, **kwargs)
    assert rep.passed and size in rep.detail, rep.line()
    assert kwargs["nmax"] >= 3 or "n=3" not in rep.detail, rep.line()
