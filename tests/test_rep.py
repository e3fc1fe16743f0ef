import hashlib
import json
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrep.linalg import GF, QQ, Matrix, rank
from meshrep.rep import (
    Interval, all_intervals, assemble, decompose, direct_sum, ext1_dim, euler_form,
    find_isomorphism, generalized_rank, hom_dim, hom_space, injective, injective_interval,
    interval_module, projective, projective_interval, random_interval_sum,
    random_rep, simple, Rep,
)
from meshrep.shapes import LineQuiver, all_orientations

F = GF(32003)


def test_interval_modules():
    q = LineQuiver.linear(3)
    m13 = interval_module(q, 1, 3, F)
    assert [m13.dims[v] for v in q.vertices] == [1, 1, 1]
    assert all(m.nrows == m.ncols == 1 and m[0, 0] == 1 for m in m13.mats.values())
    m22 = interval_module(q, 2, 2, F)
    assert [m22.dims[v] for v in q.vertices] == [0, 1, 0]
    qb = LineQuiver(2, "B")
    m12 = interval_module(qb, 1, 2, F)
    assert m12.mats[(2, 1)] == Matrix.identity(F, 1)


def test_projective_injective_simple():
    q = LineQuiver.linear(3)
    assert projective_interval(q, 1) == Interval(1, 3)
    assert injective_interval(q, 1) == Interval(1, 1)
    assert simple(q, 2, F).dims == {1: 0, 2: 1, 3: 0}
    qz = LineQuiver(3, "BF")  # 1<-2->3
    assert projective_interval(qz, 2) == Interval(1, 3)
    assert injective_interval(qz, 1) == Interval(1, 2)


def test_hom_dims_linear_a3():
    q = LineQuiver.linear(3)
    m13 = interval_module(q, 1, 3, F)
    m11 = interval_module(q, 1, 1, F)
    assert hom_dim(m13, m11) == 1
    assert hom_dim(m11, m13) == 0
    for itv in all_intervals(3):
        x = interval_module(q, itv.i, itv.j, F)
        assert hom_dim(x, x) == 1  # intervals are bricks


def test_hom_dims_in_01():
    for q in all_orientations(4):
        for a in all_intervals(4):
            x = interval_module(q, a.i, a.j, F)
            for b in all_intervals(4):
                y = interval_module(q, b.i, b.j, F)
                assert hom_dim(x, y) in (0, 1)


def test_ext1_examples():
    q = LineQuiver.linear(3)
    m11 = interval_module(q, 1, 1, F)
    m23 = interval_module(q, 2, 3, F)
    m13 = interval_module(q, 1, 3, F)
    assert ext1_dim(q, m11, m23) == 1
    assert ext1_dim(q, m13, m13) == 0
    # projectives have no Ext^1 against anything
    for v in q.vertices:
        p = projective(q, v, F)
        for itv in all_intervals(3):
            assert ext1_dim(q, p, interval_module(q, itv.i, itv.j, F)) == 0


def rank_decompose(q: LineQuiver, x: Rep) -> Dict[Interval, int]:
    """Interval multiplicities by rank inclusion-exclusion: the oracle of decompose.

    m[i,j] = r(i,j) - r(i-1,j) - r(i,j+1) + r(i-1,j+1) with r the generalized
    rank (lim -> colim) over vertex windows; valid in any orientation.
    """
    n = q.n
    r = {(i, j): generalized_rank(x, i, j) for i in range(1, n + 1) for j in range(i, n + 1)}

    def rr(i, j):
        return r.get((i, j), 0)

    out: Dict[Interval, int] = {}
    for i, j in r:
        m = rr(i, j) - rr(i - 1, j) - rr(i, j + 1) + rr(i - 1, j + 1)
        assert m >= 0, f"negative multiplicity at [{i},{j}]"
        if m:
            out[Interval(i, j)] = m
    return out


def _random_map(field, rows, cols, kind, rng):
    """A random rows x cols matrix of full rank, or of rank one where both sizes are positive."""
    if kind == "rank1" and rows and cols:
        while True:
            u, v = Matrix.random(field, rows, 1, rng), Matrix.random(field, 1, cols, rng)
            if not (u.is_zero() or v.is_zero()):
                return u @ v
    while True:
        m = Matrix.random(field, rows, cols, rng)
        if rank(m) == min(rows, cols):
            return m


def _random_rep(q, field, dims, kinds, rng) -> Rep:
    mats = {(u, v): _random_map(field, dims[v], dims[u], kind, rng)
            for (u, v), kind in zip(q.arrows(), kinds)}
    return Rep(q.poset(), field, dims, mats, validate=False)


def _check_against_oracle(q, x):
    got = decompose(q, x)
    assert got == rank_decompose(q, x)
    for v in q.vertices:  # partition property
        assert sum(m for itv, m in got.items() if itv.i <= v <= itv.j) == x.dims[v]


ORACLE_FIELDS = [GF(2), GF(5), GF(32003), QQ]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(1, 6), st.data())
def test_decompose_matches_rank_decompose(field, n, data):
    """The sweep agrees with the generalized-rank oracle on arbitrary reps:
    dims 0..3, each map of full rank or of rank one."""
    q = data.draw(st.sampled_from(all_orientations(n)))
    dims = {v: data.draw(st.integers(0, 3)) for v in q.vertices}
    kinds = [data.draw(st.sampled_from(["full", "rank1"])) for _ in q.arrows()]
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    _check_against_oracle(q, _random_rep(q, field, dims, kinds, rng))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_decompose_matches_rank_decompose_in_every_orientation(field):
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for q in all_orientations(n):
            for kind in ("full", "rank1"):
                dims = {v: int(rng.integers(0, 4)) for v in q.vertices}
                _check_against_oracle(q, _random_rep(q, field, dims, [kind] * (n - 1), rng))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_thin_decompose_matches_rank_decompose_in_every_orientation(field):
    """Thin reps (every dimension 0 or 1) take the run reading of decompose:
    arrows between two 1-dimensional vertices are 0, 1 or another scalar."""
    rng = np.random.default_rng(7)
    zeros = others = 0
    for n in range(1, 7):
        for q in all_orientations(n):
            for _ in range(3):
                dims = {v: int(rng.random() < 0.8) for v in q.vertices}
                mats = {}
                for (u, v) in q.arrows():
                    if dims[u] and dims[v]:
                        m = mats[(u, v)] = Matrix.from_rows(field, [[int(rng.integers(-3, 4))]])
                        zeros += m.is_zero()
                        others += m[0, 0] not in (0, 1)
                _check_against_oracle(q, Rep(q.poset(), field, dims, mats, validate=False))
    assert zeros and (others or field.p == 2)


def test_decompose_rejects_a_rep_over_another_quiver():
    x = interval_module(LineQuiver.linear(3), 1, 3, F)
    with pytest.raises(ValueError):
        decompose(LineQuiver.linear(2), x)
    with pytest.raises(ValueError):  # same n, another orientation
        decompose(LineQuiver(3, "FB"), x)
    assert decompose(LineQuiver.linear(3), x) == {Interval(1, 3): 1}


def test_direct_sum_rejects_another_orientation():
    """Two shapes on the same vertices with other covers do not add up."""
    x = interval_module(LineQuiver.linear(3), 1, 3, F)
    y = interval_module(LineQuiver(3, "BF"), 1, 3, F)
    with pytest.raises(ValueError, match="shape mismatch"):
        x.direct_sum(y)
    assert x.direct_sum(interval_module(LineQuiver.linear(3), 2, 3, F)).dims == {1: 1, 2: 2, 3: 2}


def test_decompose_simple_cases():
    q = LineQuiver.linear(2)
    iso = Rep(q.poset(), F, {1: 1, 2: 1}, {(1, 2): Matrix.identity(F, 1)})
    assert decompose(q, iso) == {Interval(1, 2): 1}
    zero = Rep(q.poset(), F, {1: 1, 2: 1}, {(1, 2): Matrix.zeros(F, 1, 1)})
    assert decompose(q, zero) == {Interval(1, 1): 1, Interval(2, 2): 1}


def test_decompose_121():
    q = LineQuiver.linear(3)
    mats = {
        (1, 2): Matrix.from_rows(F, [[1], [0]]),
        (2, 3): Matrix.from_rows(F, [[0, 1]]),
    }
    x = Rep(q.poset(), F, {1: 1, 2: 2, 3: 1}, mats)
    assert decompose(q, x) == {Interval(1, 2): 1, Interval(2, 3): 1}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10**6), st.booleans())
def test_decompose_roundtrip(n, seed, rational):
    rng = np.random.default_rng(seed)
    field = QQ if rational else F
    orientations = all_orientations(n)
    q = orientations[int(rng.integers(0, len(orientations)))]
    x, multiset = random_interval_sum(q, field, rng)
    got = decompose(q, x)
    assert got == multiset
    # partition property
    for v in q.vertices:
        assert sum(m for itv, m in got.items() if itv.i <= v <= itv.j) == x.dims[v]
    # explicit invertible intertwiner back to the plain sum
    phi = find_isomorphism(assemble(q, got, field), x, seed=seed)
    assert phi is not None


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_decompose_random_reps_partition(n, seed):
    rng = np.random.default_rng(seed)
    orientations = all_orientations(n)
    q = orientations[int(rng.integers(0, len(orientations)))]
    x = random_rep(q, F, rng)
    got = decompose(q, x)
    for v in q.vertices:
        assert sum(m for itv, m in got.items() if itv.i <= v <= itv.j) == x.dims[v]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_generalized_rank_counts_intervals(field):
    """The rank of lim -> colim over [a, b] counts the summands whose
    interval contains [a, b]."""
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for q in all_orientations(n):
            x, multiset = random_interval_sum(q, field, rng)
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    want = sum(m for itv, m in multiset.items() if itv.i <= a and b <= itv.j)
                    assert generalized_rank(x, a, b) == want


def test_hom_space_gives_intertwiners():
    q = LineQuiver(3, "FB")
    rng = np.random.default_rng(7)
    x, y = random_rep(q, F, rng), random_rep(q, F, rng)
    for phi in hom_space(x, y):
        for (a, b) in q.arrows():
            assert (phi[b] @ x.mats[(a, b)]) == (y.mats[(a, b)] @ phi[a])


def test_census_count():
    for n in range(1, 7):
        assert len(all_intervals(n)) == n * (n + 1) // 2


def _found_json(found):
    """The matrices of a search result as JSON-ready lists, keys in order."""
    if found is None:
        return None
    return [[repr(k), m.nrows, m.ncols, [[str(x) for x in row] for row in m.rows()]]
            for k, m in sorted(found.items())]


def _isomorphism_outputs(field) -> str:
    """find_isomorphism from the plain sum to a random interval sum, four
    seeds on each of three orientations of A3, and one no-instance each."""
    out = []
    for spec in ("FF", "FB", "BFB"):
        q = LineQuiver(len(spec) + 1, spec)
        for seed in range(4):
            x, ms = random_interval_sum(q, field, np.random.default_rng(seed), max_total=5)
            out.append(_found_json(find_isomorphism(assemble(q, ms, field), x, seed=seed)))
        split = direct_sum([interval_module(q, 1, 1, field), interval_module(q, 2, 2, field)],
                           q.poset(), field)
        out.append(_found_json(find_isomorphism(interval_module(q, 1, 2, field), split)))
    return json.dumps(out)


# recorded while find_isomorphism still combined hom_space dicts itself
ISOMORPHISM_GOLDEN = {
    "F5": "0eed202b10b26a13f5fe1cd131d5a5f3ee975b192f2056f56a176b0cdb8ca506",
    "F32003": "efa5ffb55c5c8668453cf4afc3413fd3b8b88c1fb5560f7f367edcb9f3e9906a",
    "Q": "8eb8879921ad45a41c05e1ca0d70b2a73b6b542b3a347fe82c896d7b2b22907b",
}


@pytest.mark.parametrize("field", [GF(5), F, QQ], ids=str)
def test_find_isomorphism_is_pinned(field):
    """The exact matrices find_isomorphism returns on fixed seeded inputs."""
    got = hashlib.sha256(_isomorphism_outputs(field).encode()).hexdigest()
    assert got == ISOMORPHISM_GOLDEN[str(field)]


def _path_composites(r: Rep, a, b):
    """The composite along each monotone cover path a -> b, by brute force."""
    if a == b:
        return [Matrix.identity(r.field, r.dims[a])]
    return [m @ r.mats[(a, v)] for (u, v) in r.shape.covers if u == a
            for m in _path_composites(r, v, b)]


def test_path_map_is_the_composite_along_every_monotone_path():
    """On the terms of I_Q, D_Q and C_Q^+- for every orientation with n <= 3,
    path_map(a, b) is the composite along every monotone path a -> b, and
    raises ValueError when a and b are incomparable."""
    from meshrep.bimod import duality_module, identity_prof
    from meshrep.tilting import coxeter_bimodule
    incomparable = 0
    for n in (1, 2, 3):
        for q in all_orientations(n):
            for b in (identity_prof(q, F), duality_module(q, F),
                      coxeter_bimodule(q, 1, F), coxeter_bimodule(q, -1, F)):
                for d in b.complex.degrees():
                    r = b.complex.term(d)
                    p = r.shape
                    for x in p.elements:
                        for y in p.elements:
                            if p.leq(x, y):
                                want = _path_composites(r, x, y)
                                assert want and all(r.path_map(x, y) == m for m in want)
                            elif not p.leq(y, x):
                                incomparable += 1
                                with pytest.raises(ValueError):
                                    r.path_map(x, y)
    assert incomparable
