"""Exact linear algebra over the rationals and prime fields.

Everything downstream (hom spaces, homology, tensor calculus) reduces to rank /
kernel / solve over an exact field, so no floating point appears anywhere in
the package.  A Matrix keeps its entries in one flat, row-major, immutable
sequence: a tuple of Fractions over Q, bytes of 16-bit entries over F_p.  Most
matrices are tiny, so operations run over Python lists.  Over F_p, rref, kron,
submatrix and the constructor run in numpy above _NUMPY_ENTRIES = 144 entries,
and products above _NUMPY_PRODUCTS = 16 multiplications, on exact int64
copies: the measured break-evens, given below.

Over Q, rref and @ run on Python integers and build one Fraction per entry of
the result: rref eliminates fraction-free on rows cleared of denominators,
and each entry of a product is one integer dot product over the denominators
of its row and its column.  Per call on a 2-core x86-64 host (Python 3.11),
random entries in -4..4, Fraction arithmetic against integers: rref 2x4 39
against 25 us, 3x6 140 against 54, 4x8 322 against 70, 8x8 1563 against 241,
12x12 4993 against 496; with denominators 1..3, 3x6 133 against 35 and 8x8
1493 against 179; @ n x n by n x n, n = 1 4.7 against 3.9 us, 2 28.7 against
10.7, 3 84 against 19, 5 372 against 49, and with denominators, n = 1 4.2
against 4.4 and 3 83 against 24.  No size threshold: integers are not slower
at any size measured.

Most calls are degenerate, and these return without building storage: a
block, submatrix or hstack with an empty result gives the shared zero, and
one whose result is an operand (a single block of positive size filling the
grid, every row and column selected in order, a single part with columns)
gives that operand; a one-row rref scales the row.  In one benchmark-size
suite_kernels call (perfbench seed 1) these are 6,805 of 8,501 block, 9,721
of 11,849 submatrix and 5,265 of 8,475 hstack calls, and 3,843 of 7,219 rref
calls have one row.  Every shape and index check runs before a shortcut.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_PRIME = 32003  # large enough that random invertibility searches succeed
# Entries are stored in 16 bits, and on the numpy path int64 products stay
# exact: k (p-1)^2 < 2^63 for every inner dimension k < 2^31.
MAX_PRIME = 2 ** 16
# Over F_p, rref, kron, submatrix and the constructor run in numpy on more
# than this many entries.  Measured per call on a 2-core x86-64 host (Python
# 3.11, numpy 2.4), list path against numpy, random F_32003 input: rref 8x8
# 114 against 277 us, 12x12 381 against 324, 24x24 2332 against 707, [m | I]
# 8x16 212 against 213, 9x18 331 against 322; kron 3x3 (x) 4x4 31 against 31,
# 4x4 (x) 4x4 49 against 33; submatrix to 72 entries 12 against 17, 84
# entries 16 against 13; constructor from 12x12 lists 13 against 9, 8x8 6
# against 9.  The picard and tilting suites (11-12 s each) need the numpy
# constructor and submatrix, whose inputs reach 1.2M entries: on the list path
# these two took 1.5 and 0.8 s longer.  + - scale and transpose have no numpy
# path: the suites never apply + - or transpose to large matrices, and scale
# on the list path cost picard 0.1 s.
_NUMPY_ENTRIES = 144
# F_p products of more than this many multiplications r*k*c run in numpy:
# 2x4 @ 4x2 9.0 against 10.6 us, 2x2 @ 2x2 9.1 against 11.1, 3x3 @ 3x2 8.2
# against 7.6, 3x3 @ 3x3 12.1 against 11.1, 5x5 @ 5x5 36 against 10.
_NUMPY_PRODUCTS = 16


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: the rationals or a prime field F_p."""

    kind: str  # "Q" | "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Q" and self.p is not None:
            raise ValueError(f"the rationals have no characteristic p, got {self.p}")
        if self.kind == "Fp":
            if self.p is not None and self.p >= MAX_PRIME:
                raise ValueError(f"characteristic must be below 2^16 = {MAX_PRIME} "
                                 f"so that entries fit in 16 bits, got {self.p}")
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

    `_data` holds the entries row-major: a tuple of Fractions over Q, bytes of
    native 16-bit unsigned ints in 0..p-1 over F_p; neither can be written.
    The constructor checks the shape of data (nrows rows of ncols entries) and
    reduces the entries; operations wrap their reduced results with `_new`.
    """

    __slots__ = ("field", "nrows", "ncols", "_data")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, data):
        self.field, self.nrows, self.ncols, p = field, nrows, ncols, field.p
        if p is not None and nrows * ncols > _NUMPY_ENTRIES:
            a = np.array(data, dtype=np.int64)
            if a.shape != (nrows, ncols):
                raise ValueError(f"matrix data of shape {a.shape}, expected {nrows}x{ncols}")
            self._data = (a % p).astype(np.uint16).tobytes()
        elif len(data) != nrows or any(len(row) != ncols for row in data):
            raise ValueError(f"matrix data is not {nrows}x{ncols}")
        elif p is None:
            self._data = tuple([Fraction(x) for row in data for x in row])
        else:
            self._data = array("H", [x % p for row in data for x in row]).tobytes()

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        """The zero matrix; one shared instance per field and size."""
        key = (field.p, nrows, ncols)
        m = _ZEROS.get(key)
        if m is None:
            m = _ZEROS[key] = _new(field, nrows, ncols, _zero_data(field, nrows * ncols))
        return m

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        """The identity matrix; one shared instance per field and size."""
        m = _IDENTITIES.get((field.p, n))
        if m is None:
            m = _IDENTITIES[(field.p, n)] = Matrix(
                field, n, n, [[int(i == j) for j in range(n)] for i in range(n)])
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
        return Matrix(field, nrows, ncols, rng.integers(-4, 5, size=(nrows, ncols)).tolist())

    # -- basic access --------------------------------------------------

    def __getitem__(self, ij: Tuple[int, int]) -> Scalar:
        k = range(self.nrows)[ij[0]] * self.ncols + range(self.ncols)[ij[1]]
        return (self._data if self.field.p is None else memoryview(self._data).cast("H"))[k]

    def rows(self) -> List[List[Scalar]]:
        d, c = self._data, self.ncols
        vals = list(d) if type(d) is tuple else memoryview(d).cast("H").tolist()
        return [vals[i * c:(i + 1) * c] for i in range(self.nrows)]

    def is_zero(self) -> bool:
        return not any(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field.p == other.field.p and self.nrows == other.nrows
                and self.ncols == other.ncols and self._data == other._data)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self._data))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        """The entries op(x, y), op being + or -."""
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        r, c = self.nrows, self.ncols
        if (r, c) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch {r}x{c} vs {other.nrows}x{other.ncols}")
        return _from_vals(self.field, r, c, list(map(op, _entries(self), _entries(other))))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Matrix":
        c = Fraction(c) if self.field.p is None else int(c) % self.field.p
        return _from_vals(self.field, self.nrows, self.ncols, [c * x for x in _entries(self)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        r, k, c = self.nrows, self.ncols, other.ncols
        if k != other.nrows:
            raise ValueError(f"dimension mismatch {r}x{k} @ {other.nrows}x{c}")
        if k == 0 or r == 0 or c == 0 or self.is_zero() or other.is_zero():
            return Matrix.zeros(self.field, r, c)
        # the shared identity is known by instance: comparing entries would cost a product's scan
        if _IDENTITIES.get((self.field.p, r)) is self:
            return other
        if _IDENTITIES.get((other.field.p, c)) is other:
            return self
        if self.field.p is None:  # entry (i, j) is one integer dot product over d_i e_j
            a, b = self._data, other._data
            rows = [_clear_denominators(a[i:i + k]) for i in range(0, r * k, k)]
            cols = [_clear_denominators(b[j::c]) for j in range(c)]
            return _new(self.field, r, c, tuple([Fraction(sum(map(mul, x, y)), d * e)
                                                 for d, x in rows for e, y in cols]))
        if r * k * c > _NUMPY_PRODUCTS:
            return _from_np(self.field, _np(self) @ _np(other))
        a, b = _entries(self), _entries(other)
        cols = [b[j::c] for j in range(c)]
        return _from_vals(self.field, r, c, [sum(map(mul, a[i:i + k], col))
                                             for i in range(0, r * k, k) for col in cols])

    def transpose(self) -> "Matrix":
        r, c = self.nrows, self.ncols
        vals = _entries(self)
        return _from_vals(self.field, c, r, [x for j in range(c) for x in vals[j::c]], True)

    # -- block assembly -------------------------------------------------

    @staticmethod
    def hstack(field: FieldSpec, mats: Sequence["Matrix"], nrows: Optional[int] = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, nrows or 0, 0)
        n = mats[0].nrows
        if any(m.nrows != n for m in mats):
            raise ValueError("hstack: row mismatch")
        wide = [m for m in mats if m.ncols]
        if not (n and wide):
            return Matrix.zeros(field, n, sum(m.ncols for m in wide))
        if len(wide) == 1:
            return wide[0]
        w = 1 if field.p is None else 2  # storage units per entry
        return _new(field, n, sum(m.ncols for m in wide),
                    _side_by_side(field, n, [(m._data, w * m.ncols, w * m.ncols) for m in wide]))

    @staticmethod
    def vstack(field: FieldSpec, mats: Sequence["Matrix"], ncols: Optional[int] = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, ncols or 0)
        c = mats[0].ncols
        if any(m.ncols != c for m in mats):
            raise ValueError("vstack: column mismatch")
        return _new(field, sum(m.nrows for m in mats), c, _join(field, [m._data for m in mats]))

    @staticmethod
    def block(field: FieldSpec, grid: Sequence[Sequence[Optional["Matrix"]]],
              row_dims: Sequence[int], col_dims: Sequence[int]) -> "Matrix":
        """Assemble a block matrix; None blocks are zero of the declared size.
        With no block of positive size the result is the shared zero, and a
        block that fills the result is returned itself."""
        sized = []
        for i, brow in enumerate(grid):
            for j, blk in enumerate(brow):
                if blk is None:
                    continue
                if blk.nrows != row_dims[i] or blk.ncols != col_dims[j]:
                    raise ValueError(f"block ({i},{j}) has wrong shape")
                if blk.nrows and blk.ncols:
                    sized.append(blk)
        r, c = sum(row_dims), sum(col_dims)
        if not sized:
            return Matrix.zeros(field, r, c)
        if (sized[0].nrows, sized[0].ncols) == (r, c):
            return sized[0]
        w = 1 if field.p is None else 2
        zero_rows = [(_zero_data(field, n), 0, w * n) for n in col_dims]
        parts = [_side_by_side(field, row_dims[i], [
            zero_rows[j] if blk is None else (blk._data, w * col_dims[j], w * col_dims[j])
            for j, blk in enumerate(brow)])
            for i, brow in enumerate(grid) if row_dims[i]]
        return _new(field, r, c, _join(field, parts))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, first factor major.  An empty product is the
        shared zero, and a factor that is the shared 1 x 1 identity returns
        the other factor."""
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        (sr, sc), (orow, oc) = (self.nrows, self.ncols), (other.nrows, other.ncols)
        nr, nc = sr * orow, sc * oc
        if nr == 0 or nc == 0:
            return Matrix.zeros(self.field, nr, nc)
        one = _IDENTITIES.get((self.field.p, 1))
        if self is one or other is one:
            return other if self is one else self
        if _numpy_size(self.field, nr * nc):
            return _from_np(self.field, np.kron(_np(self), _np(other)))
        a, b = _entries(self), _entries(other)
        return _from_vals(self.field, nr, nc, [x * y for i in range(0, sr * sc, sc)
                                               for k in range(0, orow * oc, oc)
                                               for x in a[i:i + sc] for y in b[k:k + oc]])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """The entries at the given rows and columns.  Selecting nothing gives
        the shared zero, and selecting every row and column in order gives self."""
        # indices go through range() so that a wrong one raises IndexError
        rows = [range(self.nrows)[i] for i in row_idx]
        cols = [range(self.ncols)[j] for j in col_idx]
        r, c, n = len(rows), len(cols), self.ncols
        if not (r and c):
            return Matrix.zeros(self.field, r, c)
        if (r, c) == (self.nrows, n) and rows == list(range(r)) and cols == list(range(c)):
            return self
        if _numpy_size(self.field, r * c):
            return _from_np(self.field, _np(self)[np.ix_(rows, cols)])
        d = self._data if self.field.p is None else memoryview(self._data).cast("H")
        return _from_vals(self.field, r, c, [d[i * n + j] for i in rows for j in cols], True)


# A Matrix never changes (its storage is bytes or a tuple), so zero and
# identity matrices are built once per field and size and shared by every caller.
_ZEROS: Dict[Tuple[Optional[int], int, int], Matrix] = {}
_IDENTITIES: Dict[Tuple[Optional[int], int], Matrix] = {}


def _new(field: FieldSpec, nrows: int, ncols: int, data) -> Matrix:
    """A Matrix around storage that is already reduced and of the right size."""
    m = object.__new__(Matrix)
    m.field, m.nrows, m.ncols, m._data = field, nrows, ncols, data
    return m


def _entries(m: Matrix) -> Sequence[Scalar]:
    """The entries, row-major: the stored tuple over Q, a new list over F_p."""
    return m._data if m.field.p is None else memoryview(m._data).cast("H").tolist()


def _from_vals(field: FieldSpec, nrows: int, ncols: int, vals: List[Scalar],
               reduced: bool = False) -> Matrix:
    """The matrix of row-major entries, reduced mod p here unless they are."""
    p = field.p
    return _new(field, nrows, ncols, tuple(vals) if p is None else
                array("H", vals if reduced else [x % p for x in vals]).tobytes())


def _join(field: FieldSpec, parts: List):
    """Storage that concatenates storage slices."""
    return tuple(itertools.chain.from_iterable(parts)) if field.p is None else b"".join(parts)


def _side_by_side(field: FieldSpec, nrows: int, blocks: List[Tuple]):
    """Storage of nrows rows, row t joining storage[step t:step t + length] of
    each (storage, step, length) in blocks; step 0 repeats one row."""
    blocks = [b for b in blocks if b[2]]
    if len(blocks) == 1 and blocks[0][1]:
        return blocks[0][0]
    return _join(field, [d[s * t:s * t + n] for t in range(nrows) for d, s, n in blocks])


def _clear_denominators(xs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(d, [d x for x in xs]) for the lcm d of the denominators of xs."""
    dens = [x.denominator for x in xs]
    if dens.count(1) == len(dens):
        return 1, [x.numerator for x in xs]
    d = lcm(*dens)
    return d, [x.numerator * (d // e) for x, e in zip(xs, dens)]


def _zero_data(field: FieldSpec, n: int):
    return (Fraction(0),) * n if field.p is None else bytes(2 * n)


def _numpy_size(field: FieldSpec, n: int) -> bool:
    """Whether an F_p rref, kron, submatrix or construction of n entries runs in numpy."""
    return field.p is not None and n > _NUMPY_ENTRIES


def _np(m: Matrix) -> np.ndarray:
    """A writable int64 copy of an F_p matrix, read zero-copy from its bytes."""
    return np.frombuffer(m._data, dtype=np.uint16).reshape(m.nrows, m.ncols).astype(np.int64)


def _from_np(field: FieldSpec, a: np.ndarray) -> Matrix:
    """The F_p matrix of an int64 array, reducing its entries mod p."""
    return _new(field, a.shape[0], a.shape[1], (a % field.p).astype(np.uint16).tobytes())


# -- elimination -------------------------------------------------------


def _gauss_jordan(rows: List[List[Scalar]], p: Optional[int]) -> List[int]:
    """Reduce rows (lists of entries of F_p, of Q when p is None) to rref in
    place, pivoting on the first nonzero entry of each column; return the pivots.

    Over Q the elimination runs on integers (fraction-free, as in Bareiss,
    Math. Comp. 22, 1968): each row is scaled by the lcm of its denominators,
    pivot x clears column c from row i by row_i <- (x row_i - f row_r) / g,
    g = gcd(x, f), and a changed row is divided by the gcd of its entries so
    that they stay small.  Scaling a row by a nonzero integer moves no zero,
    so the pivots are those of the division at every step; at the end each
    pivot row is divided by its pivot.  The rref is unique, so its Fractions
    are the same too."""
    if p is None:
        rows[:] = [_clear_denominators(row)[1] for row in rows]
    nrows, ncols, pivots, r = len(rows), len(rows[0]), [], 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow, rows[i], x = rows[i], rows[r], rows[i][c]
        if p is not None:
            x = pow(x, p - 2, p)
            prow = [y * x % p for y in prow]
        rows[r] = prow
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                if p is not None:
                    rows[i] = [(y - f * z) % p for y, z in zip(rows[i], prow)]
                else:
                    g = gcd(x, f)
                    a, f = x // g, f // g
                    row = [a * y - f * z for y, z in zip(rows[i], prow)]
                    g = gcd(*row)
                    rows[i] = [y // g for y in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if p is None:
        zero = Fraction(0)
        for i, c in enumerate(pivots):
            x = rows[i][c]
            rows[i] = [Fraction(y, x) if y else zero for y in rows[i]]
        rows[r:] = [[zero] * ncols for _ in range(r, nrows)]
    return pivots


def _rref_np(a: np.ndarray, p: int) -> List[int]:
    """The elimination of _gauss_jordan over F_p, in place on an int64 array."""
    pivots: List[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        i = r + int(np.argmax(a[r:, c] != 0))  # the first nonzero, if any
        if a[i, c] == 0:
            continue
        a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        mask = a[:, c] != 0
        mask[r] = False
        if mask.any():
            a[mask] = (a[mask] - np.outer(a[mask, c], a[r])) % p
        pivots.append(c)
    return pivots


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    if m.nrows == 0 or m.ncols == 0:
        return m, []
    if m.nrows == 1:  # scale the row by the inverse of its first nonzero entry
        vals = _entries(m)
        c = next((j for j, x in enumerate(vals) if x), None)
        if c is None:
            return m, []
        x = vals[c]
        if x != 1:
            m = m.scale(1 / x if m.field.p is None else pow(x, -1, m.field.p))
        return m, [c]
    if _numpy_size(m.field, m.nrows * m.ncols):
        a = _np(m)
        pivots = _rref_np(a, m.field.p)
        return _new(m.field, m.nrows, m.ncols, a.astype(np.uint16).tobytes()), pivots
    rows = m.rows()
    pivots = _gauss_jordan(rows, m.field.p)
    return _from_vals(m.field, m.nrows, m.ncols, [x for row in rows for x in row], True), pivots


def rank(m: Matrix) -> int:
    """Rank via exact Gaussian elimination."""
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns span ker(m); column count = ncols - rank."""
    if m.nrows == 0:
        return Matrix.identity(m.field, m.ncols)
    return _kernel_of_rref(*rref(m), m.ncols)


def _kernel_of_rref(red: Matrix, pivots: List[int], n: int) -> Matrix:
    """The kernel basis of the matrix whose rref is the first n columns of
    red, pivots its pivots among them."""
    pivot_set, w = set(pivots), red.ncols
    free = [c for c in range(n) if c not in pivot_set]
    k, vals = len(free), _entries(red)
    zero, one = (Fraction(0), Fraction(1)) if red.field.p is None else (0, 1)
    out = [zero] * (n * k)  # column t is e_f - sum_i red[i, f] e_(pivot i), f = free[t]
    for t, f in enumerate(free):
        out[f * k + t] = one
        for i, pc in enumerate(pivots):
            out[pc * k + t] = -vals[i * w + f]
    return _from_vals(red.field, n, k, out)


def kernel_cokernel(m: Matrix) -> Tuple[Matrix, Matrix]:
    """(kernel_basis(m), proj) from the one elimination rref([m | I]), proj
    being complement_projection's proj for a basis of im m: the projection
    onto the complement spanned by the unit vectors that extend im m, along im m.

    The left block of rref([m | I]) is rref(m) above zero rows, and the rank
    r of m is the number of pivots in it.  The other pivots are those unit
    vectors, one per row below r, so the right block of those rows vanishes
    on im m and is the identity on the unit vectors: it is proj."""
    n, k = m.nrows, m.ncols
    red, pivots = rref(Matrix.hstack(m.field, [m, Matrix.identity(m.field, n)], nrows=n))
    r = bisect_left(pivots, k)
    return _kernel_of_rref(red, pivots[:r], k), red.submatrix(range(r, n), range(k, k + n))


def solve(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """A particular solution of m @ x = b (column-wise), or None if inconsistent."""
    if m.field.p != b.field.p:
        raise ValueError("field mismatch")
    if m.nrows != b.nrows:
        raise ValueError("dimension mismatch in solve")
    if not m.nrows:
        return Matrix.zeros(m.field, m.ncols, b.ncols)  # no equations: zero solves them
    n, w = m.ncols, m.ncols + b.ncols
    red, pivots = rref(Matrix.hstack(m.field, [m, b], nrows=m.nrows))
    if pivots and pivots[-1] >= n:
        return None  # pivot in the rhs block: inconsistent
    # row j of x is the rhs part of the row with pivot j, or zero (the padding)
    at = {pc: i for i, pc in enumerate(pivots)}
    padded = Matrix.vstack(m.field, [red, Matrix.zeros(m.field, 1, w)])
    return padded.submatrix([at.get(j, m.nrows) for j in range(n)], range(n, w))


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
    return list(_split(field, vals, shapes))


def _split(field: FieldSpec, vals: Sequence[Scalar],
           shapes: Sequence[Tuple[int, int]]) -> Iterator[Matrix]:
    """split_vector one block at a time."""
    o = 0
    for r, c in shapes:
        yield (Matrix(field, r, c, [vals[o + i * c:o + (i + 1) * c] for i in range(r)])
               if r and c else Matrix.zeros(field, r, c))
        o += r * c


def invertible_member(field: FieldSpec, shapes: Sequence[Tuple[int, int]], part: Matrix,
                      span: Matrix, seed: int) -> Optional[List[Matrix]]:
    """The split_vector blocks of part + span c for a column c, all square and
    invertible, or None when no c tried gives such blocks.

    The blocks of part + span c are invertible iff the product of their
    determinants, a polynomial in c of degree at most the sum of the block
    sizes, is nonzero at c.  When that polynomial is not zero, a c drawn
    uniformly from F_p^k is a root with probability at most degree / p
    (Schwartz-Zippel), so the seeded draws find a member over a large field.
    Then, with at most 6 columns of span, every c with entries in -2..2 is
    tried: over F_3 and F_5 that is every c, and None means that no member
    is invertible.  Over Q the draws take entries in 0..100.  With no
    columns, part is the one member."""
    k = span.ncols
    cols = list(zip(*span.rows()))
    part_vals = [row[0] for row in part.rows()]
    rng = np.random.default_rng(seed)
    draws = (rng.integers(0, field.p or 101, size=k).tolist() for _ in range(40 if k else 1))
    small = itertools.product(range(-2, 3), repeat=k) if 0 < k <= 6 else ()
    for coeffs in itertools.chain(draws, small):
        vals = part_vals
        for c, col in zip(coeffs, cols):
            if c:
                vals = [x + y * c for x, y in zip(vals, col)]
        # each block is tested as it is split, so a singular one ends the try
        blocks = list(itertools.takewhile(is_invertible, _split(field, vals, shapes)))
        if len(blocks) == len(shapes):
            return blocks
    return None


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
    below sub's.  sub has full column rank iff its columns are the first k
    pivots; otherwise this raises ValueError.  With no columns, rref([I]) is
    I and every unit vector is a pivot, so both are the shared identity."""
    n, k = sub.nrows, sub.ncols
    eye = Matrix.identity(sub.field, n)
    if not k:
        return eye, eye
    red, pivots = rref(Matrix.hstack(sub.field, [sub, eye], nrows=n))
    if pivots[:k] != list(range(k)):
        raise ValueError("complement_projection: the columns are linearly dependent")
    sec = eye.submatrix(range(n), [p - k for p in pivots if p >= k])
    return red.submatrix(range(k, n), range(k, k + n)), sec


def column_space_basis(m: Matrix) -> Matrix:
    """Matrix whose columns are the pivot columns of m (a basis of im m)."""
    _, pivots = rref(m)
    return m.submatrix(range(m.nrows), pivots)


def is_invertible(m: Matrix) -> bool:
    if m.nrows == m.ncols == 1:
        return m[0, 0] != 0  # a 1x1 matrix is invertible iff its one entry is
    return m.nrows == m.ncols and rank(m) == m.nrows


def inverse(m: Matrix) -> Matrix:
    """The inverse, read with the rank from the one elimination rref([m | I])."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("inverse of non-square matrix")
    red, pivots = rref(Matrix.hstack(m.field, [m, Matrix.identity(m.field, n)], nrows=n))
    if n and pivots[n - 1] != n - 1:  # [m | I] has rank n; m does iff its pivots are 0..n-1
        raise ValueError("matrix is singular")
    return red.submatrix(range(n), range(n, 2 * n))
