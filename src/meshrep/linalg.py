"""Exact linear algebra over the rationals and prime fields.

Everything downstream (hom spaces, homology, tensor calculus) reduces to
rank / kernel / solve over an exact field, so no floating point appears
anywhere in the package.  Rational matrices are stored as Fraction grids;
prime-field matrices as numpy int64 arrays reduced mod p, which keeps the
heavy suites (tensor powers of duality bimodules) fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_PRIME = 32003  # large enough that random invertibility searches succeed
# int64 products stay exact: k (p-1)^2 < 2^63 for every inner dimension k < 2^31
MAX_PRIME = 2 ** 16


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: the rationals or a prime field F_p."""

    kind: str  # "Q" | "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Fp":
            if self.p is not None and self.p >= MAX_PRIME:
                raise ValueError(f"characteristic must be below 2^16 = {MAX_PRIME} "
                                 f"so that int64 arithmetic is exact, got {self.p}")
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError(f"characteristic must be prime, got {self.p}")
        elif self.kind != "Q":
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime(p: int = DEFAULT_PRIME) -> "FieldSpec":
        return FieldSpec("Fp", p)

    @property
    def is_rational(self) -> bool:
        return self.kind == "Q"

    def __str__(self):
        return "Q" if self.is_rational else f"F{self.p}"


QQ = FieldSpec.rationals()


def GF(p: int = DEFAULT_PRIME) -> FieldSpec:
    return FieldSpec.prime(p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


Scalar = Union[int, Fraction]


class Matrix:
    """Immutable exact matrix over a FieldSpec.

    Internal storage: numpy int64 array (mod p) for prime fields, tuple of
    Fraction tuples for the rationals.  All operations return new matrices.
    """

    __slots__ = ("field", "nrows", "ncols", "_a", "_rows")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if field.is_rational:
            self._a = None
            self._rows = tuple(tuple(Fraction(x) for x in row) for row in data)
            if len(self._rows) != nrows or any(len(r) != ncols for r in self._rows):
                raise ValueError("ragged rational matrix data")
        else:
            a = np.asarray(data, dtype=np.int64).reshape(nrows, ncols) % field.p
            a.setflags(write=False)
            self._a = a
            self._rows = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        """The zero matrix; one shared instance per field and size."""
        key = (field, nrows, ncols)
        m = _ZEROS.get(key)
        if m is None:
            if field.is_rational:
                m = Matrix(field, nrows, ncols, [[0] * ncols for _ in range(nrows)])
            else:
                m = Matrix(field, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))
            _ZEROS[key] = m
        return m

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        """The identity matrix; one shared instance per field and size."""
        key = (field, n)
        m = _IDENTITIES.get(key)
        if m is None:
            if field.is_rational:
                m = Matrix(field, n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
            else:
                m = Matrix(field, n, n, np.eye(n, dtype=np.int64))
            _IDENTITIES[key] = m
        return m

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        return Matrix(field, nrows, ncols, rows)

    @staticmethod
    def column(field: FieldSpec, entries: Sequence[Scalar]) -> "Matrix":
        return Matrix.from_rows(field, [[e] for e in entries]) if entries else Matrix.zeros(field, 0, 1)

    @staticmethod
    def random(field: FieldSpec, nrows: int, ncols: int, rng: np.random.Generator) -> "Matrix":
        vals = rng.integers(-4, 5, size=(nrows, ncols))
        if field.is_rational:
            return Matrix(field, nrows, ncols, vals.tolist())
        return Matrix(field, nrows, ncols, vals)

    # -- basic access --------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> Scalar:
        i, j = ij
        if self.field.is_rational:
            return self._rows[i][j]
        return int(self._a[i, j])

    def rows(self) -> List[List[Scalar]]:
        if self.field.is_rational:
            return [list(r) for r in self._rows]
        return self._a.tolist()

    def is_zero(self) -> bool:
        if self.nrows == 0 or self.ncols == 0:
            return True
        if self.field.is_rational:
            return all(x == 0 for row in self._rows for x in row)
        return not self._a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        if self.field.is_rational:
            return self._rows == other._rows
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, str(self.rows())))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        if self.field.is_rational:
            return Matrix(self.field, self.nrows, self.ncols,
                          [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)])
        return Matrix(self.field, self.nrows, self.ncols, self._a + other._a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        if self.field.is_rational:
            return Matrix(self.field, self.nrows, self.ncols,
                          [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)])
        return Matrix(self.field, self.nrows, self.ncols, self._a - other._a)

    def __neg__(self) -> "Matrix":
        if self.field.is_rational:
            return Matrix(self.field, self.nrows, self.ncols, [[-a for a in r] for r in self._rows])
        return Matrix(self.field, self.nrows, self.ncols, -self._a)

    def scale(self, c: Scalar) -> "Matrix":
        if self.field.is_rational:
            c = Fraction(c)
            return Matrix(self.field, self.nrows, self.ncols, [[c * a for a in r] for r in self._rows])
        return Matrix(self.field, self.nrows, self.ncols, (self._a * (int(c) % self.field.p)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        if self.field.is_rational:
            out = [[sum((a * b for a, b in zip(row, col)), Fraction(0))
                    for col in zip(*other._rows)] if other.ncols else []
                   for row in self._rows]
            if self.ncols == 0:
                out = [[Fraction(0)] * other.ncols for _ in range(self.nrows)]
            return Matrix(self.field, self.nrows, other.ncols, out)
        prod = (self._a @ other._a) % self.field.p
        return Matrix(self.field, self.nrows, other.ncols, prod)

    def transpose(self) -> "Matrix":
        if self.field.is_rational:
            return Matrix(self.field, self.ncols, self.nrows, list(map(list, zip(*self._rows)))
                          if self.nrows and self.ncols else [[0] * self.nrows for _ in range(self.ncols)])
        return Matrix(self.field, self.ncols, self.nrows, self._a.T)

    # -- block assembly -------------------------------------------------

    @staticmethod
    def hstack(field: FieldSpec, mats: Sequence["Matrix"], nrows: Optional[int] = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, nrows or 0, 0)
        n = mats[0].nrows
        if any(m.nrows != n for m in mats):
            raise ValueError("hstack: row mismatch")
        cols = sum(m.ncols for m in mats)
        if field.is_rational:
            rows = [[x for m in mats for x in m._rows[i]] for i in range(n)]
            return Matrix(field, n, cols, rows)
        return Matrix(field, n, cols, np.hstack([m._a for m in mats]) if cols else np.zeros((n, 0), dtype=np.int64))

    @staticmethod
    def vstack(field: FieldSpec, mats: Sequence["Matrix"], ncols: Optional[int] = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, ncols or 0)
        c = mats[0].ncols
        if any(m.ncols != c for m in mats):
            raise ValueError("vstack: column mismatch")
        n = sum(m.nrows for m in mats)
        if field.is_rational:
            rows = [list(r) for m in mats for r in m._rows]
            return Matrix(field, n, c, rows)
        return Matrix(field, n, c, np.vstack([m._a for m in mats]) if n else np.zeros((0, c), dtype=np.int64))

    @staticmethod
    def block(field: FieldSpec, grid: Sequence[Sequence[Optional["Matrix"]]],
              row_dims: Sequence[int], col_dims: Sequence[int]) -> "Matrix":
        """Assemble a block matrix; None blocks are zero of the declared size."""
        rows = []
        for i, brow in enumerate(grid):
            blocks = []
            for j, blk in enumerate(brow):
                if blk is None:
                    blk = Matrix.zeros(field, row_dims[i], col_dims[j])
                if blk.nrows != row_dims[i] or blk.ncols != col_dims[j]:
                    raise ValueError(f"block ({i},{j}) has wrong shape")
                blocks.append(blk)
            rows.append(Matrix.hstack(field, blocks, nrows=row_dims[i]))
        return Matrix.vstack(field, rows, ncols=sum(col_dims))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, first factor major."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        nr, nc = self.nrows * other.nrows, self.ncols * other.ncols
        if not self.field.is_rational:
            if nr == 0 or nc == 0:
                return Matrix.zeros(self.field, nr, nc)
            return Matrix(self.field, nr, nc, np.kron(self._a, other._a))
        rows = [[Fraction(0)] * nc for _ in range(nr)]
        for i in range(self.nrows):
            for j in range(self.ncols):
                a = self._rows[i][j]
                if a == 0:
                    continue
                for k in range(other.nrows):
                    for l in range(other.ncols):
                        rows[i * other.nrows + k][j * other.ncols + l] = a * other._rows[k][l]
        return Matrix(self.field, nr, nc, rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        if self.field.is_rational:
            return Matrix(self.field, len(row_idx), len(col_idx),
                          [[self._rows[i][j] for j in col_idx] for i in row_idx])
        return Matrix(self.field, len(row_idx), len(col_idx),
                      self._a[np.ix_(row_idx, col_idx)] if row_idx and col_idx
                      else np.zeros((len(row_idx), len(col_idx)), dtype=np.int64))


# A Matrix is never changed after construction (F_p arrays are read-only,
# rational rows are tuples), so zero and identity matrices are built once per
# field and size and shared by every caller.
_ZEROS: Dict[Tuple[FieldSpec, int, int], Matrix] = {}
_IDENTITIES: Dict[Tuple[FieldSpec, int], Matrix] = {}


# -- elimination -------------------------------------------------------


def _rref_fp(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_p, deterministic first-nonzero pivoting."""
    a = a.copy() % p
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col_vals = a[:, c].copy()
        col_vals[r] = 0
        mask = col_vals != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col_vals[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _rref_q(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    if m.nrows == 0 or m.ncols == 0:
        return m, []
    if m.field.is_rational:
        rows, piv = _rref_q([list(r) for r in m._rows])
        return Matrix(m.field, m.nrows, m.ncols, rows), piv
    a, piv = _rref_fp(m._a, m.field.p)
    return Matrix(m.field, m.nrows, m.ncols, a), piv


def rank(m: Matrix) -> int:
    """Rank via exact Gaussian elimination."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span ker(m); column count = ncols - rank."""
    if m.nrows == 0:
        return Matrix.identity(m.field, m.ncols)
    r, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    field = m.field
    cols = []
    for fc in free:
        vec = [Fraction(0) if field.is_rational else 0] * m.ncols
        vec[fc] = Fraction(1) if field.is_rational else 1
        for i, pc in enumerate(pivots):
            val = r[i, fc]
            vec[pc] = -val if field.is_rational else (-int(val)) % field.p
        cols.append(vec)
    if not cols:
        return Matrix.zeros(field, m.ncols, 0)
    return Matrix.from_rows(field, [list(row) for row in zip(*cols)])


def solve(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """A particular solution of m @ x = b (column-wise), or None if inconsistent."""
    if m.field != b.field:
        raise ValueError("field mismatch")
    if m.nrows != b.nrows:
        raise ValueError("dimension mismatch in solve")
    aug = Matrix.hstack(m.field, [m, b], nrows=m.nrows)
    r, pivots = rref(aug)
    for pc in pivots:
        if pc >= m.ncols:
            return None  # pivot in the rhs block: inconsistent
    field = m.field
    zero = Fraction(0) if field.is_rational else 0
    xs = [[zero] * b.ncols for _ in range(m.ncols)]
    for i, pc in enumerate(pivots):
        for j in range(b.ncols):
            xs[pc][j] = r[i, m.ncols + j]
    return Matrix.from_rows(field, xs) if m.ncols else Matrix.zeros(field, 0, b.ncols)


def sylvester_system(field: FieldSpec, shapes: Sequence[Tuple[int, int]],
                     equations: Iterable[Tuple[int, Optional[Matrix], int, Optional[Matrix]]]
                     ) -> Matrix:
    """Coefficient matrix of linear equations L X_a = X_b R in unknown matrices.

    The unknowns X_i have the given (rows, cols) shapes and are flattened
    row-major, one after another in the given order.  An equation
    (a, L, b, R) contributes the entries of L X_a - X_b R as rows, row-major;
    None stands for an identity.
    """
    offs = list(itertools.accumulate((r * c for r, c in shapes), initial=0))
    total = offs[-1]
    rows: List[List[Scalar]] = []
    for a, left, b, right in equations:
        (ra, ca), (rb, cb) = shapes[a], shapes[b]
        lshape = (ra, ra) if left is None else (left.nrows, left.ncols)
        rshape = (cb, cb) if right is None else (right.nrows, right.ncols)
        if lshape != (rb, ra) or rshape != (cb, ca):
            raise ValueError(f"equation on unknowns {a}, {b} does not fit their shapes")
        # the nonzero (k, value) of each row of L and of each column of R
        if left is None:
            lnz = [[(i, 1)] for i in range(ra)]
        else:
            lnz = [[(k, x) for k, x in enumerate(row) if x] for row in left.rows()]
        if right is None:
            rnz = [[(j, 1)] for j in range(cb)]
        else:
            rrows = right.rows()
            rnz = [[(k, row[j]) for k, row in enumerate(rrows) if row[j]] for j in range(ca)]
        oa, ob = offs[a], offs[b]
        for i in range(rb):
            for j in range(ca):
                row = [0] * total
                for k, x in lnz[i]:
                    row[oa + k * ca + j] += x
                for k, x in rnz[j]:
                    row[ob + i * cb + k] -= x
                rows.append(row)
    return Matrix(field, len(rows), total, rows) if rows else Matrix.zeros(field, 0, total)


def split_vector(field: FieldSpec, vals: Sequence[Scalar],
                 shapes: Sequence[Tuple[int, int]]) -> List[Matrix]:
    """The matrices of the given shapes whose row-major entries, one after
    another, are vals: the inverse of the flattening in sylvester_system."""
    out, o = [], 0
    for r, c in shapes:
        out.append(Matrix(field, r, c, [vals[o + i * c:o + (i + 1) * c] for i in range(r)])
                   if r and c else Matrix.zeros(field, r, c))
        o += r * c
    return out


def complement_columns(sub: Matrix, cand: Matrix) -> List[int]:
    """Indices of the columns of cand that extend span(sub) to span([sub | cand]):
    the pivots of rref([sub | cand]) beyond the sub block."""
    _, pivots = rref(Matrix.hstack(sub.field, [sub, cand], nrows=sub.nrows))
    return [p - sub.ncols for p in pivots if p >= sub.ncols]


def complement_projection(sub: Matrix) -> Tuple[Matrix, Matrix]:
    """(proj, sec) for the quotient by span(sub), sub of full column rank:
    sec includes the complement spanned by the unit vectors that extend sub,
    and proj projects onto it along span(sub).

    The pivots of rref([sub | I]) are the columns of sub followed by those of
    sec, so its right block is inv([sub | sec]) and proj is that block's rows
    below sub's."""
    n, k = sub.nrows, sub.ncols
    eye = Matrix.identity(sub.field, n)
    red, pivots = rref(Matrix.hstack(sub.field, [sub, eye], nrows=n))
    sec = eye.submatrix(range(n), [p - k for p in pivots if p >= k])
    return red.submatrix(range(k, n), range(k, k + n)), sec


def column_space_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are the pivot columns of m (a basis of im m)."""
    _, pivots = rref(m)
    return m.submatrix(range(m.nrows), pivots)


def is_invertible(m: Matrix) -> bool:
    return m.nrows == m.ncols and rank(m) == m.nrows


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    x = solve(m, Matrix.identity(m.field, m.nrows))
    if x is None or not is_invertible(m):
        raise ValueError("matrix is singular")
    return x
