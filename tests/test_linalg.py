from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrep.linalg import (
    GF, MAX_PRIME, QQ, FieldSpec, Matrix, _gauss_jordan, column_space_basis, complement_columns,
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


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("n,k", [(0, 0), (0, 2), (1, 0), (3, 1), (2, 4)])
def test_solve_without_equations_is_the_elimination_answer(field, n, k):
    """A system with no rows is answered by the shared zero, the matrix that
    the elimination of [m | b] and its zero padding give."""
    m, b = Matrix.zeros(field, 0, n), Matrix.zeros(field, 0, k)
    red, pivots = rref(Matrix.hstack(field, [m, b], nrows=0))
    padded = Matrix.vstack(field, [red, Matrix.zeros(field, 1, n + k)])
    eliminated = padded.submatrix([0] * n, range(n, n + k))
    assert pivots == []
    assert solve(m, b) == eliminated
    assert solve(m, b) is Matrix.zeros(field, n, k)


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


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_of_singular_matrix_raises(field):
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValueError, match="singular"):
            inverse(Matrix.from_rows(field, rows))
    m = Matrix.from_rows(field, [[0, 1, 2], [1, 0, 3], [4, -3, 8]])
    assert m @ inverse(m) == Matrix.identity(field, 3) == inverse(m) @ m
    assert inverse(Matrix.zeros(field, 0, 0)) == Matrix.zeros(field, 0, 0)
    with pytest.raises(ValueError, match="non-square"):
        inverse(Matrix.zeros(field, 2, 3))


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


def test_rationals_take_no_characteristic():
    # a FieldSpec("Q", 5) would claim is_rational while its matrices compute mod 5
    with pytest.raises(ValueError, match="rationals"):
        FieldSpec("Q", 5)
    assert FieldSpec("Q") == QQ and QQ.p is None


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [3, 13])  # 13 x 13 takes the numpy path over F_p
def test_submatrix_indices_are_checked(field, n):
    m = Matrix.from_rows(field, [[i * n + j for j in range(n)] for i in range(n)])
    rows, cols = list(range(n)), list(range(n))
    for bad_rows, bad_cols in ((rows, [n]), ([n], cols), (rows, cols[:-1] + [n + 1])):
        with pytest.raises(IndexError):
            m.submatrix(bad_rows, bad_cols)
    # negative indices count from the end, as in Python and numpy
    assert m.submatrix([-1] + rows[1:], cols).rows() == \
        m.submatrix([n - 1] + rows[1:], cols).rows()
    assert m.submatrix([0], [-1])[0, 0] == m[0, n - 1]


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# primes up to the bound, weighted towards the largest one
PRIMES = st.one_of(st.just(65521),
                   st.integers(2, MAX_PRIME - 1).map(
                       lambda n: next(p for p in range(n, 1, -1) if _is_prime(p))))


# Plain-list references; p is a prime, or None for Q (entries are Fractions).


def _red(x, p):
    return x % p if p else x


def _ref_matmul(a, b, p):
    return [[_red(sum(x * y for x, y in zip(row, col)), p) for col in zip(*b)] for row in a]


def _ref_rref(a, p):
    a = [[_red(x, p) for x in row] for row in a]
    pivots, r = [], 0
    for c in range(len(a[0]) if a else 0):
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [_red(x * inv, p) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [_red(x - f * y, p) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _ref_kernel(a, ncols, p):
    """Columns e_f - sum_i red[i][f] e_{pivot i}, one per free column f."""
    red, pivots = _ref_rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    cols = []
    for f in free:
        col = [0] * ncols
        col[f] = 1
        for i, pc in enumerate(pivots):
            col[pc] = _red(-red[i][f], p)
        cols.append(col)
    return [list(row) for row in zip(*cols)] if cols else [[] for _ in range(ncols)]


def _ref_solve(a, b, p):
    """The solution of rref([a | b]) with the free unknowns zero, or None."""
    n, k = len(a[0]), len(b[0])
    red, pivots = _ref_rref([ra + rb for ra, rb in zip(a, b)], p)
    if any(pc >= n for pc in pivots):
        return None
    x = [[0] * k for _ in range(n)]
    for i, pc in enumerate(pivots):
        x[pc] = red[i][n:]
    return x


def _check_against_reference(f, p, a, b, c):
    """a (r x k), b (k x l), c (r x k) as lists, reduced by the constructor;
    every operation of Matrix and the eliminations against the plain-list
    references.  Entries must come out as Fractions over Q, ints over F_p."""
    def rows(m):
        got = m.rows()
        assert all(type(x) is (int if p else Fraction) for row in got for x in row)
        return got

    a, b, c = ([[_red(x, p) for x in row] for row in m] for m in (a, b, c))
    ma, mb, mc = (Matrix.from_rows(f, x) for x in (a, b, c))
    r, k, l = len(a), len(a[0]), len(b[0])
    assert rows(ma @ mb) == _ref_matmul(a, b, p)
    # the shared identity and zero factors on either side, and built ones
    eye_r, eye_k = ([[int(i == j) for j in range(n)] for i in range(n)] for n in (r, k))
    zero_lr, zero_kl = [[0] * r for _ in range(l)], [[0] * l for _ in range(k)]
    for x, y, mx, my in ((eye_r, a, Matrix.identity(f, r), ma),
                         (a, eye_k, ma, Matrix.identity(f, k)),
                         (eye_r, a, Matrix.from_rows(f, eye_r), ma),
                         (zero_lr, a, Matrix.zeros(f, l, r), ma),
                         (a, zero_kl, ma, Matrix.zeros(f, k, l)),
                         (zero_lr, a, Matrix.from_rows(f, zero_lr), ma),
                         (a, zero_kl, ma, Matrix.from_rows(f, zero_kl))):
        assert rows(mx @ my) == _ref_matmul(x, y, p)
    assert rows(ma + mc) == [[_red(x + y, p) for x, y in zip(u, v)] for u, v in zip(a, c)]
    assert rows(ma - mc) == [[_red(x - y, p) for x, y in zip(u, v)] for u, v in zip(a, c)]
    assert rows(-ma) == [[_red(-x, p) for x in u] for u in a]
    assert rows(ma.scale(3)) == [[_red(3 * x, p) for x in u] for u in a]
    assert rows(ma.transpose()) == [list(col) for col in zip(*a)]
    assert rows(ma.kron(mb)) == [[_red(x * y, p) for x in u for y in v] for u in a for v in b]
    assert rows(Matrix.hstack(f, [ma, mc])) == [u + v for u, v in zip(a, c)]
    assert rows(Matrix.vstack(f, [ma, mc])) == a + c
    assert rows(Matrix.block(f, [[ma, None], [None, mb]], [r, k], [k, l])) == \
        [u + [0] * l for u in a] + [[0] * k + v for v in b]
    ri, ci = list(range(r - 1, -1, -2)), [j for j in range(k) if j % 3 != 1]
    assert rows(ma.submatrix(ri, ci)) == [[a[i][j] for j in ci] for i in ri]
    ri, ci = list(range(r - 1, -1, -1)) + [0], list(range(k))  # the numpy path from 12 x 12
    assert rows(ma.submatrix(ri, ci)) == [[a[i][j] for j in ci] for i in ri]
    for m in (a, b, a + c):
        red, pivots = rref(Matrix.from_rows(f, m))
        assert (rows(red), pivots) == _ref_rref(m, p)
        assert rows(kernel_basis(Matrix.from_rows(f, m))) == _ref_kernel(m, len(m[0]), p)
    for rhs in ((ma @ mb).rows(), c):  # consistent, and most likely not
        got = solve(ma, Matrix.from_rows(f, rhs))
        assert (got and rows(got)) == _ref_solve(a, rhs, p)
    assert rows(ma) == a and ma[r - 1, k - 1] == a[-1][-1]


# matrix sides on both sides of the numpy thresholds: up to 7 (49 entries, and
# 1 to 343 products in @, whose threshold is 16) and 12 to 16 (144 to 256 entries)
SIDES = st.one_of(st.integers(1, 7), st.integers(12, 16))


def _draw_matrix(data, nrows, ncols, entries):
    """Rows of entries; zeros are likely, so that ranks drop."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    pick = data.draw(entries)
    return [[pick(rng) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=80, deadline=None)
@given(PRIMES, SIDES, SIDES, SIDES, st.data())
def test_fp_arithmetic_matches_integer_reference(p, nr, k, nc, data):
    # entries: all p - 1 (the overflow edge), small and unreduced, or uniform
    entries = st.sampled_from([lambda rng: p - 1, lambda rng: int(rng.integers(-2, 3)),
                               lambda rng: int(rng.integers(0, p))])
    a, c = (_draw_matrix(data, nr, k, entries) for _ in range(2))
    b = _draw_matrix(data, k, nc, entries)
    _check_against_reference(GF(p), p, a, b, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
def test_q_arithmetic_matches_fraction_reference(nr, k, nc, data):
    entries = st.sampled_from([lambda rng: Fraction(int(rng.integers(-4, 5))),
                               lambda rng: Fraction(int(rng.integers(-9, 10)),
                                                    int(rng.integers(1, 7)))])
    a, c = (_draw_matrix(data, nr, k, entries) for _ in range(2))
    b = _draw_matrix(data, k, nc, entries)
    _check_against_reference(QQ, None, a, b, c)


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


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=str)
def test_complement_projection_rejects_dependent_columns(field):
    """complement_projection reads full column rank from its one elimination:
    dependent columns, a zero column, more columns than rows, and columns
    dependent only mod 5 raise ValueError; independent ones give the split."""
    dependent = [[[1, 2, 3], [0, 1, 1], [2, 0, 2], [1, 1, 2]],  # column 3 = column 1 + column 2
                 [[1, 0], [0, 0], [2, 0]],
                 [[1, 0, 1], [0, 1, 1]]]
    for rows in dependent:
        with pytest.raises(ValueError):
            complement_projection(Matrix.from_rows(field, rows))
    with pytest.raises(ValueError):
        complement_projection(Matrix.zeros(field, 0, 1))
    mod5 = Matrix.from_rows(field, [[1, 1], [2, 7], [0, 0]])  # determinant 5 on the top rows
    independent = [Matrix.from_rows(field, [[1, 2], [0, 1], [2, 0], [1, 1]])]
    if field == GF(5):
        with pytest.raises(ValueError):
            complement_projection(mod5)
    else:
        independent.append(mod5)
    for sub in independent:
        proj, sec = complement_projection(sub)
        assert (proj @ sub).is_zero()
        assert proj @ sec == Matrix.identity(field, sub.nrows - sub.ncols)
        assert rank(Matrix.hstack(field, [sub, sec])) == sub.nrows


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n", [0, 1, 4])
def test_complement_projection_of_no_columns_is_the_elimination_answer(field, n):
    """With no columns to divide out, complement_projection returns the
    shared identity twice without eliminating: rref([sub | I]) is I, every
    unit vector is a pivot, and both matrices it gives equal I."""
    sub, eye = Matrix.zeros(field, n, 0), Matrix.identity(field, n)
    red, pivots = rref(Matrix.hstack(field, [sub, eye], nrows=n))
    proj, sec = complement_projection(sub)
    assert pivots == list(range(n))
    assert proj == red.submatrix(range(n), range(n)) and sec == eye.submatrix(range(n), pivots)
    assert proj is eye and sec is eye


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_is_invertible_reads_a_1x1_matrix_from_its_entry(field):
    """A 1x1 matrix is invertible exactly when its rank is 1, also for an
    entry that is a multiple of the characteristic."""
    for x in (0, 1, -1, 2, 5, 32003, 5 * 32003 + 1):
        m = Matrix.from_rows(field, [[x]])
        assert is_invertible(m) == (rank(m) == 1), x
    assert is_invertible(Matrix.from_rows(field, [[5]])) == (field.p != 5)
    assert not is_invertible(Matrix.from_rows(field, [[1, 0]]))


@pytest.mark.parametrize("field", [GF(5), QQ])
def test_zero_and_identity_are_shared_and_immutable(field):
    z = Matrix.zeros(field, 2, 3)
    assert z is Matrix.zeros(field, 2, 3)
    assert Matrix.identity(field, 3) is Matrix.identity(field, 3)
    assert z is not Matrix.zeros(field, 3, 2)
    for m in (z, Matrix.identity(field, 3)):
        # the storage is immutable: bytes over F_p, a tuple over Q
        assert type(m._data) is (tuple if field.is_rational else bytes)
        with pytest.raises(TypeError):
            m._data[0] = 1
    rows = z.rows()
    rows[0][0] = 1
    rows.append([1, 1, 1])
    assert z.rows() == [[0, 0, 0], [0, 0, 0]] and z.is_zero()
    rows = Matrix.identity(field, 3).rows()
    rows[1][1] = 0
    assert Matrix.identity(field, 3).rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_block_shortcuts_return_the_shared_zero_or_the_block(field):
    a = Matrix.from_rows(field, [[1, 2], [3, 4]])
    # no block of positive size: the shared zero, also for a result of positive size
    assert Matrix.block(field, [[None, None]], [2], [2, 3]) is Matrix.zeros(field, 2, 5)
    assert Matrix.block(field, [[Matrix.zeros(field, 0, 2)]], [0], [2]) is Matrix.zeros(field, 0, 2)
    # one block that fills the result, the others of zero size: that block
    grid = [[a, Matrix.zeros(field, 2, 0)], [None, Matrix.zeros(field, 0, 0)]]
    assert Matrix.block(field, grid, [2, 0], [2, 0]) is a
    assert Matrix.block(field, [[a, None]], [2], [2, 1]).rows() == [[1, 2, 0], [3, 4, 0]]
    # a wrongly shaped block still raises, also in a row of size zero
    for grid, rows, cols in (([[a], [Matrix.zeros(field, 1, 2)]], [2, 0], [2]),
                             ([[None], [a]], [0, 0], [2]),
                             ([[a, Matrix.zeros(field, 2, 1)]], [2], [2, 0])):
        with pytest.raises(ValueError, match="wrong shape"):
            Matrix.block(field, grid, rows, cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n", [3, 13])  # 13 x 13 is past the numpy size over F_p
def test_submatrix_shortcuts_return_the_shared_zero_or_self(field, n):
    m = Matrix.from_rows(field, [[i * n + j for j in range(n)] for i in range(n)])
    assert m.submatrix(range(n), range(n)) is m
    assert m.submatrix(list(range(n)), [j - n for j in range(n)]) is m  # the same indices
    assert m.submatrix([], range(n)) is Matrix.zeros(field, 0, n)
    assert m.submatrix(range(2), []) is Matrix.zeros(field, 2, 0)
    turned = m.submatrix(range(n - 1, -1, -1), range(n))  # every row, out of order
    assert turned is not m and turned.rows() == m.rows()[::-1]
    # an index out of range raises also when the other selection is empty
    for rows, cols in (([n], []), ([], [n]), ([0, -n - 1], [])):
        with pytest.raises(IndexError):
            m.submatrix(rows, cols)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hstack_shortcuts_return_the_shared_zero_or_the_part(field):
    a = Matrix.from_rows(field, [[1, 2], [3, 4]])
    none = Matrix.zeros(field, 2, 0)
    assert Matrix.hstack(field, [none, a, none]) is a
    assert Matrix.hstack(field, [none, none]) is none
    flat = Matrix.zeros(field, 0, 3)
    assert Matrix.hstack(field, [flat, Matrix.zeros(field, 0, 2)]) is Matrix.zeros(field, 0, 5)
    assert Matrix.hstack(field, [a, a]).rows() == [[1, 2, 1, 2], [3, 4, 3, 4]]
    with pytest.raises(ValueError, match="row mismatch"):  # the row check reads every part
        Matrix.hstack(field, [a, Matrix.zeros(field, 3, 0)])


@pytest.mark.parametrize("field", FIELDS + [GF(2)], ids=str)
def test_one_row_rref_is_the_elimination_answer(field):
    """A one-row rref scales the row by the inverse of its first nonzero
    entry, and returns the matrix itself when that entry is 1."""
    for row in ([0, 0, 0], [0, 3, 1], [4, 0, 2], [1, 2, 3], [0, -1], [7], list(range(2, 160))):
        m = Matrix.from_rows(field, [row])
        rows = m.rows()
        pivots = _gauss_jordan(rows, field.p)
        red, got = rref(m)
        assert (red, got) == (Matrix.from_rows(field, rows), pivots), row
        if not pivots or m[0, pivots[0]] == 1:
            assert red is m


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
