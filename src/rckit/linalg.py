"""Exact linear algebra over the small finite fields.

Vectors are tuples of element indices, matrices are flat row-major tuples.
Subspaces are always held in reduced row echelon form, so two subspaces are
equal exactly when their SubspaceBasis values are equal.  Row reduction has
two interchangeable implementations: a generic table-driven one and a packed
integer-bitset one for F_2 (rows become Python ints, elimination becomes XOR).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedFields, ShapeMismatch
from .field import FieldSpec

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# row reduction


def pack(v, bits: int = 1) -> int:
    """The entries of v in one int, bits per entry, entry t at bit t*bits:
    the one packed format of rckit's rows, matrix keys and case keys."""
    key = shift = 0
    for x in v:
        key |= x << shift
        shift += bits
    return key


def unpack(key: int, width: int, bits: int = 1) -> Vec:
    """The first width entries packed in key by pack."""
    mask = (1 << bits) - 1
    return tuple([key >> s & mask for s in range(0, width * bits, bits)])


class Gf2Accumulator:
    """Incremental reduced row echelon form over F_2 on packed-int rows.

    Rows are keyed by their pivot bit (1 << pivot column), and mask is the OR
    of those bits.  In reduced form each row has no other pivot bit, so
    XORing it into a new row clears exactly its own pivot bit there: one XOR
    per pivot bit of row & mask reduces the row completely.
    """

    def __init__(self, width: int):
        self.width = width
        self.piv: dict[int, int] = {}  # pivot bit -> packed row
        self.mask = 0

    def add(self, row: int) -> bool:
        """Fold one packed row in; return True when the rank grows."""
        piv = self.piv
        h = row & self.mask
        while h:
            b = h & -h
            row ^= piv[b]
            h ^= b
        if not row:
            return False
        # the reduced row's lowest bit is its pivot; every other row's bits
        # start at its own pivot, so clearing the new one keeps them reduced
        b = row & -row
        for b2, r2 in piv.items():
            if r2 & b:
                piv[b2] = r2 ^ row
        piv[b] = row
        self.mask |= b
        return True

    @property
    def rank(self) -> int:
        return len(self.piv)

    def rows_pivots(self) -> tuple[list[int], list[int]]:
        bits = sorted(self.piv)
        return [self.piv[b] for b in bits], [b.bit_length() - 1 for b in bits]


class GenericAccumulator:
    """Incremental reduced row echelon form via field lookup tables: v minus
    c times a row r is add_table[v_j][mul_table[-c][r_j]] at each nonzero
    entry r_j, and the zero entries of r are skipped."""

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, row) -> bool:
        f = self.field
        add, mul, neg = f.add_table, f.mul_table, f.neg_table
        v = list(row)
        for r, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                times = mul[neg[c]]
                for j, x in enumerate(r):
                    if x:
                        v[j] = add[v[j]][times[x]]
        for p, lead in enumerate(v):
            if lead:
                break
        else:
            return False
        if lead != 1:
            times = mul[f.inv_table[lead]]
            v = [times[x] for x in v]
        for r in self.rows:
            c = r[p]
            if c:
                times = mul[neg[c]]
                for j, x in enumerate(v):
                    if x:
                        r[j] = add[r[j]][times[x]]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def rows_pivots(self) -> tuple[list[list[int]], list[int]]:
        order = sorted(range(len(self.pivots)), key=self.pivots.__getitem__)
        return [self.rows[i] for i in order], sorted(self.pivots)


def make_accumulator(field: FieldSpec, width: int):
    if field.q == 2:
        return Gf2Accumulator(width)
    return GenericAccumulator(field, width)


def echelonize(field: FieldSpec, vectors, width: int):
    """Reduced row echelon form of a list of vectors.

    Returns (rows, pivots) with rows as tuples, zero rows dropped, pivot
    columns strictly increasing: the canonical basis of the span.
    """
    acc = make_accumulator(field, width)
    if isinstance(acc, Gf2Accumulator):
        for v in vectors:
            acc.add(pack(v))
        rows, pivots = acc.rows_pivots()
        return [unpack(r, width) for r in rows], list(pivots)
    for v in vectors:
        acc.add(v)
    rows, pivots = acc.rows_pivots()
    return [tuple(r) for r in rows], list(pivots)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True, slots=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of K^ambient_dim."""

    field: FieldSpec
    ambient_dim: int
    vectors: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors) -> "SubspaceBasis":
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeMismatch(f"vector of length {len(v)} in K^{ambient_dim}")
        rows, pivots = echelonize(field, vectors, ambient_dim)
        return SubspaceBasis(field, ambient_dim, tuple(rows), tuple(pivots))

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        return SubspaceBasis(field, ambient_dim, (), ())

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return SubspaceBasis(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coords_of(self, v) -> Vec | None:
        """Coefficients of v in this basis, or None when v is outside."""
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("vector length does not match ambient dimension")
        f = self.field
        add, mul, neg = f.add_table, f.mul_table, f.neg_table
        coeffs = tuple(v[p] for p in self.pivots)
        rem = list(v)
        for c, row in zip(coeffs, self.vectors):
            if c:
                times = mul[neg[c]]
                for j, x in enumerate(row):
                    if x:
                        rem[j] = add[rem[j]][times[x]]
        if any(rem):
            return None
        return coeffs

    def member(self, v) -> bool:
        return self.coords_of(v) is not None

    def enumerate_elements(self):
        """Yield every vector of the subspace (q^dim of them), zero first."""
        f = self.field
        elems = [tuple(0 for _ in range(self.ambient_dim))]
        for row in self.vectors:
            scaled = [[f.mul(c, x) for x in row] for c in range(f.q)]
            elems = [
                tuple(f.add(e[j], s[j]) for j in range(self.ambient_dim))
                for e in elems
                for s in scaled
            ]
        return elems


def annihilator(w: SubspaceBasis) -> SubspaceBasis:
    """All functionals a with sum_j a_j v_j = 0 for every v in w."""
    m = Matrix(w.field, len(w.vectors), w.ambient_dim, tuple(x for v in w.vectors for x in v))
    return kernel_basis(m)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, slots=True)
class Matrix:
    """Dense matrix over one field; entries are element indices, row-major."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch("entry count does not match rows*cols")

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_tuple(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col_tuple(self, j: int) -> Vec:
        return self.entries[j :: self.cols] if self.cols else ()

    def transpose(self) -> "Matrix":
        ent = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.field, self.cols, self.rows, ent)

    def mat_vec(self, v) -> Vec:
        if len(v) != self.cols:
            raise ShapeMismatch("vector length does not match matrix columns")
        add, mul = self.field.add_table, self.field.mul_table
        support = [(j, mul[x]) for j, x in enumerate(v) if x]
        out = []
        for i in range(self.rows):
            row, acc = self.row_tuple(i), 0
            for j, times_x in support:
                acc = add[acc][times_x[row[j]]]
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field is not other.field:
            raise MixedFields("matrices over different fields")
        if self.cols != other.rows:
            raise ShapeMismatch("inner dimensions differ")
        add, mul = self.field.add_table, self.field.mul_table
        cols = [other.col_tuple(j) for j in range(other.cols)]
        ent = []
        for i in range(self.rows):
            support = [(t, mul[a]) for t, a in enumerate(self.row_tuple(i)) if a]
            for col in cols:
                acc = 0
                for t, times_a in support:
                    b = col[t]
                    if b:
                        acc = add[acc][times_a[b]]
                ent.append(acc)
        return Matrix(self.field, self.rows, other.cols, tuple(ent))


def matrix_from_rows(field: FieldSpec, rows) -> Matrix:
    rows = [tuple(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != m:
            raise ShapeMismatch("ragged rows")
    return Matrix(field, n, m, tuple(x for r in rows for x in r))


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {x : Mx = 0}."""
    f = m.field
    rows, pivots = echelonize(f, [m.row_tuple(i) for i in range(m.rows)], m.cols)
    return SubspaceBasis.from_vectors(f, m.cols, _free_column_kernel(f, rows, pivots, m.cols))


def accumulator_kernel(field: FieldSpec, acc) -> SubspaceBasis:
    """Canonical basis of the kernel of the rows folded into acc, an
    accumulator over field.

    The accumulator already holds its rows in reduced row echelon form, so
    the kernel vectors come straight from them, without echelonizing the
    rows again."""
    rows, pivots = acc.rows_pivots()
    width = acc.width
    if isinstance(acc, Gf2Accumulator):
        # -1 = 1 over F_2: the free column plus the pivot of each row that
        # has a 1 there
        free = sorted(set(range(width)).difference(pivots))
        vecs = [
            unpack(sum(1 << p for r, p in zip(rows, pivots) if (r >> fr) & 1) | 1 << fr, width)
            for fr in free
        ]
    else:
        vecs = _free_column_kernel(field, rows, pivots, width)
    return SubspaceBasis.from_vectors(field, width, vecs)


def _free_column_kernel(field: FieldSpec, rows, pivots, width: int) -> list[Vec]:
    """A kernel basis of rows in reduced row echelon form with the given
    pivot columns: one vector per free column, 1 there and minus that
    column's entry of each row at the row's pivot.  The vectors are not in
    reduced row echelon form themselves."""
    pivot_set = set(pivots)
    vecs = []
    for fr in range(width):
        if fr in pivot_set:
            continue
        v = [0] * width
        v[fr] = 1
        for r, p in zip(rows, pivots):
            v[p] = field.neg(r[fr])
        vecs.append(tuple(v))
    return vecs


def tracked_echelon(field: FieldSpec, vectors, width: int):
    """echelonize [v_i | e_i] for vectors v_i of K^width.  Its rows span the
    (sum of g_i v_i, g), so a reduced row (v, g) has g with sum g_i v_i = v.
    A reduced row with its pivot at or past width is zero on the left, and
    the others have independent left halves (one pivot each), so the former
    span the (0, g) with sum g_i v_i = 0: their right halves are the
    canonical basis of those relations, as the left halves of the latter
    are the canonical basis of the span of the v_i."""
    unit = (0,) * len(vectors)
    aug = [tuple(v) + unit[:i] + (1,) + unit[i + 1 :] for i, v in enumerate(vectors)]
    return echelonize(field, aug, width + len(vectors))


def left_kernel_rows(field: FieldSpec, entries, rows: int, cols: int) -> list[Vec]:
    """Canonical basis of {a : a M = 0} for a flat row-major entry tuple: the
    relations among the rows of M, from one tracked_echelon."""
    m_rows = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    reduced, pivots = tracked_echelon(field, m_rows, cols)
    return [r[cols:] for r, p in zip(reduced, pivots) if p >= cols]


def solve(m: Matrix, b) -> Vec | None:
    """One solution x of Mx = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ShapeMismatch("right-hand side length does not match rows")
    f = m.field
    aug = [m.row_tuple(i) + (b[i],) for i in range(m.rows)]
    rows, pivots = echelonize(f, aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for r, p in zip(rows, pivots):
        x[p] = r[m.cols]
    return tuple(x)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den

