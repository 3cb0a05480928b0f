"""Structured matrix spaces and their subspaces.

An Ambient fixes a coordinate system for one of three shapes of matrix over a
field K:

* kind "sym": n x (n+m) matrices [A | R] with A symmetric n x n, R an
  arbitrary n x m tail.  Coordinates: the diagonal of A, then the above
  diagonal entries in lexicographic order, then the tail column by column.
* kind "alt": the same but with A alternating (zero diagonal, A^T = -A).
  Coordinates: one per pair i > j in lexicographic order, with the sign
  chosen so that for n = 3 the matrix [[0,-a,b],[a,0,-c],[-b,c,0]] encodes
  to (a, b, c); then the tail column by column.
* kind "full": arbitrary n x m matrices, row-major coordinates.

layout(amb) is the one place this coordinate order and its signs live: a
cached table of the entry slots each coordinate fills.  encode, decode and
the coordinate-span builders read it, and so do the packed F_2 keys in
rcmaps.  product_coords(left, right), read off three layout tables, places
the coordinates of two factors in their side-by-side product [M | R]; products
of spaces here and joins and splits of maps in rcmaps go through it.

An OperatorSpace is a linear subspace of an ambient held as a canonical
(reduced row echelon) coordinate basis, so equality of spaces is equality of
values.  Builders for the named spaces used by the verification suites and a
deterministic subspace enumerator live here too, with the one codec of the
exhaustive suites' case keys: rref_keys lists them, annihilator_key packs
one, and key_space decodes one into its subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import chain, combinations, product

from .errors import (
    AmbientMismatch,
    BadParams,
    EnumerationCapExceeded,
    MatrixNotInAmbient,
    MixedFields,
)
from .field import FieldSpec, parse_field_label
from .linalg import (
    Matrix,
    SubspaceBasis,
    annihilator,
    echelonize,
    gaussian_binomial,
    kernel_basis,
    matrix_from_rows,
    pack,
    unpack,
)

KIND_SYM = "sym"
KIND_ALT = "alt"
KIND_FULL = "full"


@dataclass(frozen=True, slots=True)
class Ambient:
    """A coordinatized space of structured matrices over one field."""

    field: FieldSpec
    kind: str
    n: int
    m: int

    def __post_init__(self):
        if self.kind not in (KIND_SYM, KIND_ALT, KIND_FULL):
            raise BadParams(f"unknown ambient kind {self.kind!r}")
        if self.n < 0 or self.m < 0:
            raise BadParams("ambient dimensions must be nonnegative")

    @property
    def nrows(self) -> int:
        return self.n

    @property
    def ncols(self) -> int:
        return self.m if self.kind == KIND_FULL else self.n + self.m

    @property
    def dim(self) -> int:
        n, m = self.n, self.m
        if self.kind == KIND_SYM:
            return n * (n + 1) // 2 + n * m
        if self.kind == KIND_ALT:
            return n * (n - 1) // 2 + n * m
        return n * m


@lru_cache(maxsize=256)
def layout(amb: Ambient) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """The coordinate layout of an ambient: for each coordinate, the flat
    entry slots i*ncols + j it fills, each with whether the slot holds its
    negative.  The first slot holds the coordinate itself.

    This table is the one place that knows the coordinate order, the
    symmetric mirror, the alternating sign rule and the column-major tail;
    encode, decode and the packed F_2 keys all read it.
    """
    n, c = amb.n, amb.ncols
    if amb.kind == KIND_FULL:
        return tuple(((i * c + j, False),) for i in range(n) for j in range(c))
    if amb.kind == KIND_SYM:
        block = [((i * c + i, False),) for i in range(n)] + [
            ((i * c + j, False), (j * c + i, False)) for i in range(n) for j in range(i + 1, n)
        ]
    else:
        # pair i > j sits at (i, j) when i + j is odd and at (j, i) otherwise
        block = []
        for i in range(1, n):
            for j in range(i):
                a, b = (i, j) if (i + j) % 2 == 1 else (j, i)
                block.append(((a * c + b, False), (b * c + a, True)))
    tail = [((i * c + j, False),) for j in range(n, c) for i in range(n)]
    return tuple(block + tail)


def _entries(amb: Ambient, coords) -> tuple[int, ...]:
    """The flat row-major entries of the matrix with these coordinates."""
    neg = amb.field.neg_table
    ent = [0] * (amb.nrows * amb.ncols)
    for x, slots in zip(coords, layout(amb)):
        for s, negated in slots:
            ent[s] = neg[x] if negated else x
    return tuple(ent)


def encode(amb: Ambient, mat: Matrix):
    """Coordinates of a structured matrix; checks shape and structure."""
    if mat.field is not amb.field:
        raise MixedFields("matrix and ambient over different fields")
    if mat.rows != amb.nrows or mat.cols != amb.ncols:
        raise MatrixNotInAmbient(
            f"shape {mat.rows}x{mat.cols}, ambient wants {amb.nrows}x{amb.ncols}"
        )
    e = mat.entries
    if amb.kind == KIND_FULL:  # its layout is the identity and holds every matrix
        return tuple(e)
    coords = tuple(e[slots[0][0]] for slots in layout(amb))
    if _entries(amb, coords) != e:
        raise MatrixNotInAmbient(f"matrix is not in the {amb.kind} ambient")
    return coords


def decode(amb: Ambient, coords) -> Matrix:
    """Inverse of encode."""
    if len(coords) != amb.dim:
        raise AmbientMismatch(f"expected {amb.dim} coordinates, got {len(coords)}")
    return Matrix(amb.field, amb.nrows, amb.ncols, _entries(amb, coords))


@dataclass(frozen=True, slots=True)
class OperatorSpace:
    """A linear subspace of an ambient, in canonical coordinates.

    product_of remembers the two factors when the space was assembled by
    side_by_side; it is bookkeeping only and does not affect equality.
    """

    ambient: Ambient
    basis: SubspaceBasis
    product_of: tuple | None = dc_field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def codim(self) -> int:
        return self.ambient.dim - self.basis.dim

    def contains(self, mat: Matrix) -> bool:
        return self.basis.member(encode(self.ambient, mat))


def space_from_coords(amb: Ambient, vectors, product_of=None) -> OperatorSpace:
    basis = SubspaceBasis.from_vectors(amb.field, amb.dim, vectors)
    return OperatorSpace(amb, basis, product_of)


def space_from_matrices(amb: Ambient, mats) -> OperatorSpace:
    return space_from_coords(amb, [encode(amb, m) for m in mats])


def full_space(amb: Ambient) -> OperatorSpace:
    return OperatorSpace(amb, SubspaceBasis.full(amb.field, amb.dim))


def _check_same_field(a: OperatorSpace, b: OperatorSpace) -> None:
    if a.ambient.field is not b.ambient.field:
        raise MixedFields("spaces over different fields")


@lru_cache(maxsize=256)
def product_coords(left: Ambient, right: Ambient) -> tuple[int, ...]:
    """The coordinate in the ambient of [M | R] of each coordinate of M in
    left, then of each coordinate of R in right: a bijection.

    Entry (i, j) of M sits at (i, j) of [M | R] and entry (i, j) of R at
    (i, left.ncols + j), and each coordinate is read off the first slot
    layout lists for it.
    """
    prod = Ambient(left.field, left.kind, left.n, left.m + right.m)
    at = {slots[0][0]: t for t, slots in enumerate(layout(prod))}
    out = []
    for amb, shift in ((left, 0), (right, left.ncols)):
        for slots in layout(amb):
            i, j = divmod(slots[0][0], amb.ncols)
            out.append(at[i * prod.ncols + shift + j])
    return tuple(out)


def place_in_product(left: Ambient, right: Ambient, left_vecs, right_vecs) -> list[list[int]]:
    """The coordinate vectors left_vecs of left, then right_vecs of right,
    placed in the ambient of [M | R] by product_coords."""
    where = product_coords(left, right)
    out = []
    for shift, vecs in ((0, left_vecs), (left.dim, right_vecs)):
        for v in vecs:
            w = [0] * len(where)
            for t, x in enumerate(v):
                w[where[shift + t]] = x
            out.append(w)
    return out


@lru_cache(maxsize=8)
def side_by_side(a: OperatorSpace, b: OperatorSpace) -> OperatorSpace:
    """All matrices [M | R] with M in a and R in b; b must be a space of
    rectangles with the same number of rows.  Cached: a splitting-lemma trial
    builds one product three times, and equality ignores product_of."""
    _check_same_field(a, b)
    if b.ambient.kind != KIND_FULL or b.ambient.nrows != a.ambient.nrows:
        raise AmbientMismatch("second factor must be full rectangles with matching rows")
    amb = Ambient(a.ambient.field, a.ambient.kind, a.ambient.n, a.ambient.m + b.ambient.m)
    vecs = place_in_product(a.ambient, b.ambient, a.basis.vectors, b.basis.vectors)
    return space_from_coords(amb, vecs, product_of=(a, b))


def restricted_part(s: OperatorSpace) -> OperatorSpace:
    """Matrices of s whose tail vanishes, viewed in the tailless ambient: the
    rows of s echelonized tail first whose pivot falls in the block."""
    amb = s.ambient
    if amb.kind == KIND_FULL:
        raise AmbientMismatch("restricted_part needs a sym or alt ambient")
    block = Ambient(amb.field, amb.kind, amb.n, 0)
    b, t = block.dim, amb.dim - block.dim
    rows, pivots = echelonize(amb.field, [v[b:] + v[:b] for v in s.basis.vectors], amb.dim)
    return space_from_coords(block, [r[t:] for r, p in zip(rows, pivots) if p >= t])


def quotient_projection(s: OperatorSpace, w: SubspaceBasis) -> Matrix:
    """Canonical matrix P whose rows span the annihilator of w in K^n."""
    amb = s.ambient
    if w.field is not amb.field:
        raise MixedFields("subspace over a different field")
    if w.ambient_dim != amb.nrows:
        raise AmbientMismatch("w must live in the target column space K^n")
    ann = annihilator(w)
    if ann.dim == 0:
        return Matrix(amb.field, 0, amb.nrows, ())
    return matrix_from_rows(amb.field, ann.vectors)


@lru_cache(maxsize=256)
def projection_table(amb: Ambient, p: Matrix) -> Matrix:
    """The matrix whose column t holds the coordinates of P E_t in the full
    rows(P) x ncols ambient, E_t the matrix of amb with coordinates e_t.  P M
    is linear in the coordinates of M, so the table times those of any M
    gives those of P M, with no decode, matmul or encode per M."""
    out_amb = Ambient(amb.field, KIND_FULL, p.rows, amb.ncols)
    units = SubspaceBasis.full(amb.field, amb.dim).vectors
    cols = [encode(out_amb, p.matmul(decode(amb, e))) for e in units]
    return matrix_from_rows(amb.field, cols).transpose()


def quotient_space(s: OperatorSpace, w: SubspaceBasis, p: Matrix | None = None) -> OperatorSpace:
    """The space {P M : M in s} of rectangles, P = quotient_projection(s, w)
    unless the caller passes it, read through projection_table."""
    p = quotient_projection(s, w) if p is None else p
    table = projection_table(s.ambient, p)
    out_amb = Ambient(s.ambient.field, KIND_FULL, p.rows, s.ambient.ncols)
    return space_from_coords(out_amb, [table.mat_vec(v) for v in s.basis.vectors])


# ---------------------------------------------------------------------------
# deterministic subspace enumeration


def count_subspaces(amb: Ambient, codim: int) -> int:
    return gaussian_binomial(amb.dim, amb.dim - codim, amb.field.q)


def rref_rows(field: FieldSpec, dim: int, pivots):
    """Every reduced-row-echelon matrix over K^dim with these pivot columns,
    as a tuple of row tuples, by free entries ascending, the last row's last
    fastest: the product of each row's own range keeps that order."""
    bits = (field.q - 1).bit_length()
    return product(*[[unpack(o, dim, bits) for o in opts] for opts in rref_ranges(field, dim, pivots)])


def rref_ranges(field: FieldSpec, dim: int, pivots) -> list[list[int]]:
    """The options of each row of rref_rows, row by row, in its order, each
    row packed as linalg.pack(row, (q - 1).bit_length()) packs it."""
    bits, ranges = (field.q - 1).bit_length(), []
    for p in pivots:
        opts = [1 << p * bits]
        for col in range(p + 1, dim):
            if col not in pivots:  # the free entries, the last fastest
                opts = [o | x << col * bits for o in opts for x in range(field.q)]
        ranges.append(opts)
    return ranges


def rref_keys(field: FieldSpec, dim: int, pivots) -> list[int]:
    """annihilator_key of each matrix of rref_rows, in its order, built from
    the packed row options of rref_ranges, each moved up to its row and
    combined by OR: no tuple row, no pack per key."""
    width, keys = dim * (field.q - 1).bit_length(), [0]
    for o, opts in zip(range(0, len(pivots) * width, width), rref_ranges(field, dim, pivots)):
        opts = [r << o for r in opts] if o else opts
        keys = [k | r for k in keys for r in opts]
    return keys


def annihilator_key(field: FieldSpec, rows) -> int:
    """The case key of the subspace whose annihilator has these reduced row
    echelon rows: the rows packed one after another, (q-1).bit_length() bits
    per entry.  The last row is nonzero, so the key's bit length gives the
    row count, and key 0 is the full space."""
    return pack(chain.from_iterable(rows), (field.q - 1).bit_length())


def key_space(amb: Ambient, key: int) -> OperatorSpace:
    """The subspace of amb with this annihilator_key, built as
    enumerate_subspaces builds it."""
    d, bits = amb.dim, (amb.field.q - 1).bit_length()
    rows = -(-key.bit_length() // (d * bits))
    return OperatorSpace(amb, kernel_basis(Matrix(amb.field, rows, d, unpack(key, rows * d, bits))))


def dual_rref_rows(field: FieldSpec, dim: int, rank: int):
    """Every reduced-row-echelon matrix with `rank` rows over K^dim, scanned
    by pivot-column combination and then by free entries, both ascending.
    These index the rank-codimensional subspaces via their annihilators."""
    for pivots in combinations(range(dim), rank):
        yield from rref_rows(field, dim, pivots)


def enumerate_subspaces(amb: Ambient, codim: int, cap: int = 1 << 20):
    """Yield every subspace of the ambient with the given codimension.

    Order is canonical: subspaces are indexed by the reduced row echelon
    form of their annihilator (codim x dim matrices of full rank), scanned
    by pivot-column combination and then by free entries, both ascending.
    Raises EnumerationCapExceeded when the case count is above the cap.
    """
    d = amb.dim
    if not 0 <= codim <= d:
        raise BadParams(f"codimension {codim} out of range for dimension {d}")
    total = count_subspaces(amb, codim)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} subspaces of codimension {codim} exceeds cap {cap}"
        )
    if codim == 0:
        yield full_space(amb)
        return
    f = amb.field
    for rows in dual_rref_rows(f, d, codim):
        yield OperatorSpace(amb, kernel_basis(matrix_from_rows(f, rows)))


def enumerate_subspaces_up_to(amb: Ambient, codim: int, cap: int = 1 << 20):
    """All subspaces of codimension 0..codim, in increasing codimension."""
    total = sum(count_subspaces(amb, c) for c in range(codim + 1))
    if total > cap:
        raise EnumerationCapExceeded(f"{total} subspaces exceeds cap {cap}")
    for c in range(codim + 1):
        yield from enumerate_subspaces(amb, c, cap)


# ---------------------------------------------------------------------------
# named builders


def build_full_sym(f: FieldSpec, n: int, m: int = 0) -> OperatorSpace:
    return full_space(Ambient(f, KIND_SYM, n, m))


def build_full_alt(f: FieldSpec, n: int, m: int = 0) -> OperatorSpace:
    return full_space(Ambient(f, KIND_ALT, n, m))


def _unit_span(amb: Ambient, keep) -> OperatorSpace:
    """The span of the coordinate unit vectors whose entries all sit at
    positions (i, j) where keep(i, j) holds (0-indexed)."""
    c = amb.ncols
    units = SubspaceBasis.full(amb.field, amb.dim).vectors
    kept = [
        u for u, slots in zip(units, layout(amb)) if all(keep(*divmod(s, c)) for s, _ in slots)
    ]
    return space_from_coords(amb, kept)


def build_t3(f: FieldSpec) -> OperatorSpace:
    """Symmetric 3x3 matrices with vanishing (2,3) entry."""
    return _unit_span(Ambient(f, KIND_SYM, 3, 0), lambda i, j: {i, j} != {1, 2})


def build_sym_block(f: FieldSpec, n: int) -> OperatorSpace:
    """Block diagonal sum of 1x1 symmetric matrices and full Mats_{n-1}:
    symmetric matrices whose first row vanishes off the diagonal."""
    if n < 2:
        raise BadParams("sym-block needs n >= 2")
    return _unit_span(Ambient(f, KIND_SYM, n, 0), lambda i, j: (i == 0) == (j == 0))


def build_u2_block(f: FieldSpec, n: int) -> OperatorSpace:
    """Top-left block {[a b; b 0]} summed with full Mats_{n-2}: symmetric
    matrices with vanishing (2,2) entry and vanishing entries (i, j) for
    i <= 2 < j (1-indexed)."""
    if n < 2:
        raise BadParams("u2 needs n >= 2")
    return _unit_span(
        Ambient(f, KIND_SYM, n, 0), lambda i, j: (i < 2) == (j < 2) and (i, j) != (1, 1)
    )


def build_alt_col1(f: FieldSpec, n: int) -> OperatorSpace:
    """Alternating matrices whose first column vanishes below row 2."""
    if n < 3:
        raise BadParams("alt-col1 needs n >= 3")
    return _unit_span(Ambient(f, KIND_ALT, n, 0), lambda i, j: not (j == 0 and i >= 2))


def _alt_unit(f: FieldSpec, n: int, i: int, j: int) -> Matrix:
    ent = [[0] * n for _ in range(n)]
    ent[i][j], ent[j][i] = 1, f.neg(1)
    return matrix_from_rows(f, ent)


def _alt_tail_blocks(f: FieldSpec, n: int):
    """Shared lower-right generators for the two low-codimension families:
    the (3,4) unit, the rows >= 5 by columns 3..4 units, and Mata on rows >= 5
    (1-indexed descriptions)."""
    mats = [_alt_unit(f, n, 3, 2)]
    for r in range(4, n):
        for c in (2, 3):
            mats.append(_alt_unit(f, n, r, c))
    for r in range(4, n):
        for c in range(4, r):
            mats.append(_alt_unit(f, n, r, c))
    return mats


def build_alt_2n5(f: FieldSpec, n: int) -> OperatorSpace:
    """Alternating matrices whose rows 3..4 by columns 1..2 block has the
    upper-triangular Toeplitz shape [a b; 0 a] (1-indexed)."""
    if n < 4:
        raise BadParams("alt-2n5 needs n >= 4")
    amb = Ambient(f, KIND_ALT, n, 0)
    neg1 = f.neg(1)
    a_gen = [[0] * n for _ in range(n)]
    a_gen[2][0], a_gen[0][2] = 1, neg1
    a_gen[3][1], a_gen[1][3] = 1, neg1
    b_gen = [[0] * n for _ in range(n)]
    b_gen[2][1], b_gen[1][2] = 1, neg1
    mats = [matrix_from_rows(f, a_gen), matrix_from_rows(f, b_gen)]
    mats += _alt_tail_blocks(f, n)
    return space_from_matrices(amb, mats)


def build_alt_2n6(f: FieldSpec, n: int) -> OperatorSpace:
    """Alternating matrices whose rows 3..4 by columns 1..2 block is
    symmetric (1-indexed)."""
    if n < 4:
        raise BadParams("alt-2n6 needs n >= 4")
    amb = Ambient(f, KIND_ALT, n, 0)
    neg1 = f.neg(1)
    gens = []
    for pos in [[(2, 0)], [(3, 1)], [(2, 1), (3, 0)]]:
        ent = [[0] * n for _ in range(n)]
        for i, j in pos:
            ent[i][j], ent[j][i] = 1, neg1
        gens.append(matrix_from_rows(f, ent))
    gens += _alt_tail_blocks(f, n)
    return space_from_matrices(amb, gens)


def build_mf(f: FieldSpec, r: int, coeffs) -> OperatorSpace:
    """Alternating 3x3 block with an r-column tail, cut by one trace condition.

    coeffs lists, for each of the three alternating coordinates of the block,
    an r x r matrix row-major; the space holds [A | R] whenever the trace of
    the top r x r part of R equals the trace of sum(coord_w(A) * coeffs[w]).
    For r = 0 the space is all of the tailless ambient.
    """
    if r not in (0, 1, 2, 3):
        raise BadParams("mf needs r in 0..3")
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != 3 * r * r:
        raise BadParams(f"mf with r={r} needs {3 * r * r} coefficients")
    if any(not 0 <= c < f.q for c in coeffs):
        raise BadParams("mf coefficients out of field range")
    amb = Ambient(f, KIND_ALT, 3, r)
    if r == 0:
        return full_space(amb)
    traces = []
    for w in range(3):
        t = 0
        for u in range(r):
            t = f.add(t, coeffs[w * r * r + u * r + u])
        traces.append(t)
    # the coordinate of tail entry (i, j), at matrix position (i, 3 + j)
    tail = {divmod(slots[0][0] - 3, 3 + r): t for t, slots in enumerate(layout(amb)) if t >= 3}

    def vec(*terms):
        v = [0] * amb.dim
        for t, x in terms:
            v[t] = x
        return tuple(v)

    gens = [vec((w, 1), (tail[0, 0], traces[w])) for w in range(3)]
    gens += [vec((tail[i, j], 1)) for j in range(r) for i in range(3) if i != j]
    gens += [vec((tail[u, u], 1), (tail[0, 0], f.neg(1))) for u in range(1, r)]
    return space_from_coords(amb, gens)


_FAMILY_BUILDERS = {
    "full-sym": lambda f, n: build_full_sym(f, n),
    "full-alt": lambda f, n: build_full_alt(f, n),
    "sym-block": build_sym_block,
    "u2": build_u2_block,
    "alt-col1": build_alt_col1,
    "alt-2n5": build_alt_2n5,
    "alt-2n6": build_alt_2n6,
}


def build_space(designator: str, f: FieldSpec) -> OperatorSpace:
    """Build a named space from a designator like "full-sym:3", "t3",
    "u2:4", or "mf:r=1,f=012" (f gives 3*r*r hex digits)."""
    text = designator.strip()
    if text == "t3":
        return build_t3(f)
    name, _, rest = text.partition(":")
    if name == "mf":
        params = dict(
            part.split("=", 1) for part in rest.split(",") if "=" in part
        )
        if "r" not in params:
            raise BadParams("mf designator needs r=<int>")
        r = int(params["r"])
        digits = params.get("f", "")
        coeffs = [int(ch, 16) for ch in digits]
        return build_mf(f, r, coeffs)
    if name in _FAMILY_BUILDERS:
        if not rest:
            raise BadParams(f"designator {name!r} needs :n")
        return _FAMILY_BUILDERS[name](f, int(rest))
    raise BadParams(f"unknown space designator {designator!r}")


# ---------------------------------------------------------------------------
# JSON


def space_to_json(s: OperatorSpace) -> dict:
    return {
        "field": s.ambient.field.label,
        "ambient": {"kind": s.ambient.kind, "n": s.ambient.n, "m": s.ambient.m},
        "basis": [list(v) for v in s.basis.vectors],
    }


def space_from_json(obj: dict) -> OperatorSpace:
    f = parse_field_label(str(obj["field"]))
    a = obj["ambient"]
    amb = Ambient(f, str(a["kind"]), int(a["n"]), int(a["m"]))
    vecs = []
    for v in obj["basis"]:
        vec = tuple(int(x) for x in v)
        if any(not 0 <= x < f.q for x in vec):
            raise ValueError("basis entry out of field range")
        vecs.append(vec)
    return space_from_coords(amb, vecs)
