import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrep.linalg import (
    GF, MAX_PRIME, QQ, FieldSpec, Matrix, column_space_basis, complement_columns,
    complement_projection, inverse, is_invertible, kernel_basis, rank, rref, solve, split_vector,
    sylvester_system,
)

FIELDS = [QQ, GF(5), GF(32003)]


@pytest.mark.parametrize("field", FIELDS)
def test_rank_empty_and_identity(field):
    assert rank(Matrix.zeros(field, 0, 0)) == 0
    assert rank(Matrix.identity(field, 3)) == 3


def test_rank_dependent_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_identity_and_zero(field):
    assert kernel_basis(Matrix.identity(field, 2)).ncols == 0
    k = kernel_basis(Matrix.zeros(field, 2, 2))
    assert k.ncols == 2 and rank(k) == 2


def test_kernel_f5_row():
    m = Matrix.from_rows(GF(5), [[1, 1]])
    k = kernel_basis(m)
    assert k.ncols == 1
    assert (m @ k).is_zero()
    # spans (1, -1): second entry = -first
    assert (k[1, 0] + k[0, 0]) % 5 == 0 and k[0, 0] != 0


def test_solve_cases():
    ident = Matrix.identity(QQ, 2)
    b = Matrix.column(QQ, [3, 4])
    assert solve(ident, b) == b
    assert solve(Matrix.zeros(QQ, 2, 2), b) is None
    two = Matrix.from_rows(QQ, [[2]])
    x = solve(two, Matrix.column(QQ, [1]))
    assert x[0, 0] * 2 == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2), st.data())
def test_rank_nullity_and_solve(nr, nc, fidx, data):
    field = FIELDS[fidx]
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    m = Matrix.random(field, nr, nc, rng)
    r = rank(m)
    k = kernel_basis(m)
    assert r + k.ncols == nc
    assert (m @ k).is_zero()
    # transposed elimination order gives the same rank
    assert rank(m.transpose()) == r
    x = Matrix.random(field, nc, 1, rng)
    b = m @ x
    sol = solve(m, b)
    assert sol is not None
    assert (m @ sol - b).is_zero()


def test_block_and_inverse():
    f = GF(7)
    a = Matrix.from_rows(f, [[1, 2], [3, 4]])
    blk = Matrix.block(f, [[a, None], [None, Matrix.identity(f, 1)]], [2, 1], [2, 1])
    assert blk.nrows == 3 and blk.ncols == 3
    assert is_invertible(a)
    ai = inverse(a)
    assert (a @ ai) == Matrix.identity(f, 2)


def test_column_space_basis():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    b = column_space_basis(m)
    assert b.ncols == rank(m) == 2


def test_large_primes_rejected():
    # int64 products would wrap: [p-1]*3 @ [p-1]*3 gave p-1 instead of 3 at p = 2^31 - 1
    for p in (2 ** 31 - 1, 65537):
        with pytest.raises(ValueError, match="2\\^16"):
            FieldSpec.prime(p)
    assert GF(65521).p == 65521  # the largest prime below the bound


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# primes up to the bound, weighted towards the largest one
PRIMES = st.one_of(st.just(65521),
                   st.integers(2, MAX_PRIME - 1).map(
                       lambda n: next(p for p in range(n, 1, -1) if _is_prime(p))))


def _ref_matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _ref_rref(a, p):
    a = [[x % p for x in row] for row in a]
    pivots, r = [], 0
    for c in range(len(a[0]) if a else 0):
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


@settings(max_examples=80, deadline=None)
@given(PRIMES, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_fp_arithmetic_matches_integer_reference(p, nr, k, nc, data):
    f = GF(p)
    entries = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=nr, max_size=nr))
    b = data.draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=k, max_size=k))
    assert (Matrix.from_rows(f, a) @ Matrix.from_rows(f, b)).rows() == _ref_matmul(a, b, p)
    red, pivots = rref(Matrix.from_rows(f, a))
    assert (red.rows(), pivots) == _ref_rref(a, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2), st.data())
def test_complement_columns_extend_the_span(nr, ns, nc, fidx, data):
    field = FIELDS[fidx]
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    sub = column_space_basis(Matrix.random(field, nr, ns, rng))
    cand = Matrix.random(field, nr, nc, rng)
    idx = complement_columns(sub, cand)
    both = Matrix.hstack(field, [sub, cand], nrows=nr)
    chosen = Matrix.hstack(field, [sub, cand.submatrix(range(nr), idx)], nrows=nr)
    assert rank(chosen) == chosen.ncols == rank(both)
    proj, sec = complement_projection(sub)
    assert (proj @ sub).is_zero()
    assert proj @ sec == Matrix.identity(field, nr - sub.ncols)


@pytest.mark.parametrize("field", [GF(5), QQ])
def test_zero_and_identity_are_shared_and_immutable(field):
    z = Matrix.zeros(field, 2, 3)
    assert z is Matrix.zeros(field, 2, 3)
    assert Matrix.identity(field, 3) is Matrix.identity(field, 3)
    assert z is not Matrix.zeros(field, 3, 2)
    for m in (z, Matrix.identity(field, 3)):
        if field.is_rational:
            assert isinstance(m._rows, tuple) and all(isinstance(r, tuple) for r in m._rows)
        else:
            assert not m._a.flags.writeable
            with pytest.raises(ValueError):
                m._a[0, 0] = 1
    rows = z.rows()
    rows[0][0] = 1
    rows.append([1, 1, 1])
    assert z.rows() == [[0, 0, 0], [0, 0, 0]] and z.is_zero()
    rows = Matrix.identity(field, 3).rows()
    rows[1][1] = 0
    assert Matrix.identity(field, 3).rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("field", [GF(5), GF(32003), QQ])
@pytest.mark.parametrize("seed", range(5))
def test_sylvester_system_matches_definition(field, seed):
    rng = np.random.default_rng(seed)

    def size():
        return int(rng.integers(0, 4))

    shapes = [(size(), size()) for _ in range(5)]
    shapes[1] = shapes[0]  # two unknowns that an identity can connect
    shapes[2] = (0, size())  # zero-size unknowns
    shapes[3] = (size(), 0)
    eqs = [(0, None, 1, None), (1, None, 0, Matrix.random(field, shapes[0][1], shapes[0][1], rng)),
           (0, Matrix.random(field, shapes[1][0], shapes[0][0], rng), 1, None)]
    for _ in range(6):
        a, b = (int(i) for i in rng.integers(0, len(shapes), size=2))
        (ra, ca), (rb, cb) = shapes[a], shapes[b]
        left = None if ra == rb and rng.random() < 0.5 else Matrix.random(field, rb, ra, rng)
        right = None if cb == ca and rng.random() < 0.5 else Matrix.random(field, cb, ca, rng)
        eqs.append((a, left, b, right))
    xs = [Matrix.random(field, r, c, rng) for r, c in shapes]
    vec = [x for m in xs for row in m.rows() for x in row]
    assert split_vector(field, vec, shapes) == xs

    def apply(m, x, on_left):
        if m is None:
            return x
        return m @ x if on_left else x @ m

    want = [x for a, left, b, right in eqs
            for row in (apply(left, xs[a], True) - apply(right, xs[b], False)).rows() for x in row]
    system = sylvester_system(field, shapes, eqs)
    assert system.ncols == len(vec)
    assert system @ Matrix.column(field, vec) == Matrix.column(field, want)
    with pytest.raises(ValueError):
        sylvester_system(field, [(1, 2), (2, 2)], [(0, None, 1, None)])
