"""Tests for exact linear algebra, checked against brute-force enumeration."""

from __future__ import annotations

import random
from functools import reduce
from itertools import product
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rckit.errors import ShapeMismatch
from rckit.field import make_field
from rckit.linalg import (
    GenericAccumulator,
    Gf2Accumulator,
    Matrix,
    SubspaceBasis,
    accumulator_kernel,
    annihilator,
    echelonize,
    gaussian_binomial,
    kernel_basis,
    left_kernel_rows,
    make_accumulator,
    matrix_from_rows,
    pack,
    solve,
    unpack,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F8 = make_field(2, 3)
F9 = make_field(3, 2)


# -- brute-force oracles ----------------------------------------------------


def zero_matrix(field, rows, cols):
    return Matrix(field, rows, cols, (0,) * (rows * cols))


def identity_matrix(field, n):
    return matrix_from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])


def rref(m):
    """Reduced row echelon form (zero rows dropped) and pivot columns."""
    rows, pivots = echelonize(m.field, [m.row_tuple(i) for i in range(m.rows)], m.cols)
    return (matrix_from_rows(m.field, rows) if rows else zero_matrix(m.field, 0, m.cols)), tuple(pivots)


def rank(m):
    return rref(m)[0].rows


def subspace_count_up_to(n, c, q):
    """Number of subspaces of codimension 0..c in an n-dimensional space."""
    return sum(gaussian_binomial(n, n - i, q) for i in range(min(c, n) + 1))


def span_set(field, vectors, width):
    """Every linear combination of the vectors, as a set of tuples."""
    out = {tuple([0] * width)}
    for v in vectors:
        additions = [[field.mul(c, x) for x in v] for c in range(field.q)]
        out = {
            tuple(field.add(e[j], a[j]) for j in range(width))
            for e in out
            for a in additions
        }
    return out


def kernel_set(m):
    f = m.field
    return {
        x
        for x in product(range(f.q), repeat=m.cols)
        if not any(m.mat_vec(x))
    }


def random_matrix(rng, field, rows, cols):
    return Matrix(field, rows, cols, tuple(rng.randrange(field.q) for _ in range(rows * cols)))


# -- row reduction ----------------------------------------------------------


def test_rref_preserves_row_space_and_is_canonical():
    rng = random.Random(7)
    for field in (F2, F3, F4):
        for _ in range(60):
            rows, cols = rng.randrange(0, 4), rng.randrange(0, 5)
            m = random_matrix(rng, field, rows, cols)
            r, pivots = rref(m)
            orig = span_set(field, [m.row_tuple(i) for i in range(rows)], cols)
            red = span_set(field, [r.row_tuple(i) for i in range(r.rows)], cols)
            assert orig == red
            assert list(pivots) == sorted(pivots)
            for i, p in enumerate(pivots):
                col = [r.entry(t, p) for t in range(r.rows)]
                assert col == [1 if t == i else 0 for t in range(r.rows)]
                assert all(x == 0 for x in r.row_tuple(i)[:p])
            r2, p2 = rref(r)
            assert r2 == r and p2 == pivots


def _generic_echelonize(field, vectors, width):
    """echelonize on the table-driven accumulator, which it picks for
    every field but F_2."""
    acc = GenericAccumulator(field, width)
    for v in vectors:
        acc.add(v)
    rows, pivots = acc.rows_pivots()
    return [tuple(r) for r in rows], list(pivots)


def test_gf2_fast_path_matches_generic_path():
    rng = random.Random(11)
    for _ in range(200):
        width = rng.randrange(0, 9)
        nvec = rng.randrange(0, 7)
        vecs = [tuple(rng.randrange(2) for _ in range(width)) for _ in range(nvec)]
        fast = echelonize(F2, vecs, width)
        slow = _generic_echelonize(F2, vecs, width)
        assert fast == slow
    # exhaustive on all pairs of vectors in F_2^3
    all3 = list(product(range(2), repeat=3))
    for a in all3:
        for b in all3:
            assert echelonize(F2, [a, b], 3) == _generic_echelonize(F2, [a, b], 3)


def test_rank_matches_span_cardinality():
    rng = random.Random(13)
    for field in (F2, F3, F4):
        for _ in range(40):
            m = random_matrix(rng, field, rng.randrange(0, 4), rng.randrange(0, 4))
            sp = span_set(field, [m.row_tuple(i) for i in range(m.rows)], m.cols)
            assert field.q ** rank(m) == len(sp)


# -- subspaces --------------------------------------------------------------


def test_subspace_membership_against_oracle():
    rng = random.Random(17)
    for field in (F2, F3, F4):
        for _ in range(30):
            width = rng.randrange(1, 5)
            vecs = [tuple(rng.randrange(field.q) for _ in range(width)) for _ in range(rng.randrange(0, 4))]
            basis = SubspaceBasis.from_vectors(field, width, vecs)
            sp = span_set(field, vecs, width)
            assert field.q ** basis.dim == len(sp)
            for v in product(range(field.q), repeat=width):
                assert basis.member(v) == (v in sp)
                coords = basis.coords_of(v)
                if coords is not None:
                    rebuilt = [0] * width
                    for c, row in zip(coords, basis.vectors):
                        rebuilt = [field.add(rebuilt[j], field.mul(c, row[j])) for j in range(width)]
                    assert tuple(rebuilt) == v


def test_subspace_equality_is_canonical():
    # different generating sets of one subspace produce equal bases
    b1 = SubspaceBasis.from_vectors(F3, 3, [(1, 2, 0), (0, 0, 1)])
    b2 = SubspaceBasis.from_vectors(F3, 3, [(2, 1, 1), (1, 2, 2), (2, 1, 0)])
    assert b1 == b2
    assert hash(b1) == hash(b2)
    assert b1 != SubspaceBasis.from_vectors(F3, 3, [(1, 2, 0)])


def test_enumerate_elements():
    basis = SubspaceBasis.from_vectors(F3, 3, [(1, 0, 2), (0, 1, 1)])
    elems = basis.enumerate_elements()
    assert len(elems) == 9 and len(set(elems)) == 9
    assert all(basis.member(v) for v in elems)
    assert elems[0] == (0, 0, 0)


def test_kernel_against_enumeration():
    rng = random.Random(19)
    for field in (F2, F3, F4):
        for _ in range(25):
            m = random_matrix(rng, field, rng.randrange(0, 4), rng.randrange(1, 4))
            ker = kernel_basis(m)
            oracle = kernel_set(m)
            assert field.q ** ker.dim == len(oracle)
            assert all(v in oracle for v in ker.vectors)
            assert ker == SubspaceBasis.from_vectors(field, m.cols, sorted(oracle))


@st.composite
def row_sets(draw):
    """A field, a width and a list of rows over it (possibly empty)."""
    f = draw(st.sampled_from([F2, F3, F4]))
    width = draw(st.integers(0, 7))
    row = st.tuples(*[st.integers(0, f.q - 1)] * width)
    return f, width, draw(st.lists(row, max_size=8))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(row_sets())
@example((F2, 5, []))
@example((F3, 4, [(1, 2, 0, 1), (2, 1, 0, 2)]))
def test_accumulator_kernel_matches_kernel_basis(case):
    f, width, rows = case
    want = kernel_basis(Matrix(f, len(rows), width, tuple(x for r in rows for x in r)))
    for acc in (make_accumulator(f, width), GenericAccumulator(f, width)):
        packed = isinstance(acc, Gf2Accumulator)
        for r in rows:
            acc.add(sum(x << j for j, x in enumerate(r)) if packed else r)
        assert accumulator_kernel(f, acc) == want


@st.composite
def gf2_row_streams(draw):
    """A width of 1 to 64 and a stream of packed rows, some of them XORs of
    a few earlier-drawn rows so that the stream repeats dependencies."""
    width = draw(st.integers(1, 64))
    row = st.integers(0, (1 << width) - 1)
    base = draw(st.lists(row, min_size=1, max_size=6))
    combo = st.lists(st.sampled_from(base), min_size=1, max_size=3).map(
        lambda rs: reduce(xor, rs)
    )
    return width, draw(st.lists(st.one_of(row, combo), max_size=30))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gf2_row_streams())
@example((1, [0, 1, 1, 0]))
@example((3, [0b110, 0b011, 0b101, 0b001, 0b111]))
def test_gf2_accumulator_matches_generic_accumulator(stream):
    width, rows = stream
    fast = make_accumulator(F2, width)
    slow = GenericAccumulator(F2, width)
    assert isinstance(fast, Gf2Accumulator)
    for r in rows:
        assert fast.add(r) == slow.add(tuple((r >> j) & 1 for j in range(width)))
    fast_rows, fast_pivots = fast.rows_pivots()
    slow_rows, slow_pivots = slow.rows_pivots()
    assert fast_pivots == slow_pivots
    assert [tuple((r >> j) & 1 for j in range(width)) for r in fast_rows] == [
        tuple(r) for r in slow_rows
    ]
    assert fast.rank == slow.rank == len(fast_pivots)


# -- the f.sub / f.mul elimination the table-driven code replaced ------------


class ReferenceAccumulator:
    """GenericAccumulator as it was before it read the field tables: every
    entry of the width through f.sub and f.mul, zero entries included."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    def add(self, row):
        f = self.field
        mul, sub = f.mul, f.sub
        v = list(row)
        for r, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [sub(v[j], mul(c, r[j])) for j in range(self.width)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        s = f.inv(v[p])
        if s != 1:
            v = [mul(s, x) for x in v]
        for i, r in enumerate(self.rows):
            c = r[p]
            if c:
                self.rows[i] = [sub(r[j], mul(c, v[j])) for j in range(self.width)]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def rows_pivots(self):
        order = sorted(range(len(self.pivots)), key=self.pivots.__getitem__)
        return [self.rows[i] for i in order], sorted(self.pivots)


def reference_coords_of(basis, v):
    """SubspaceBasis.coords_of through f.sub and f.mul."""
    f = basis.field
    coeffs = tuple(v[p] for p in basis.pivots)
    rem = list(v)
    for c, row in zip(coeffs, basis.vectors):
        if c:
            rem = [f.sub(rem[j], f.mul(c, row[j])) for j in range(len(rem))]
    if any(rem):
        return None
    return coeffs


def random_combination(rng, field, vectors, width):
    """A random K-combination of vectors (zero for none)."""
    out = [0] * width
    for vec in vectors:
        c = rng.randrange(field.q)
        for j, x in enumerate(vec):
            out[j] = field.add(out[j], field.mul(c, x))
    return tuple(out)


TABLE_FIELDS = pytest.mark.parametrize("field", [F3, F4, F5, F8], ids=["f3", "f4", "f5", "f8"])


@TABLE_FIELDS
def test_table_accumulator_matches_reference(field):
    rng = random.Random(f"accumulator:{field.q}")
    for _ in range(80):
        width = rng.randrange(0, 9)
        rows = []
        for _ in range(rng.randrange(0, 10)):
            # fresh rows, zero rows and combinations of earlier rows, so
            # that rows reduce to zero as well as raise the rank
            pick = rng.randrange(3)
            if pick == 0 and rows:
                earlier = rng.sample(rows, min(3, len(rows)))
                rows.append(random_combination(rng, field, earlier, width))
            elif pick == 1:
                rows.append((0,) * width)
            else:
                rows.append(tuple(rng.randrange(field.q) for _ in range(width)))
        acc, ref = GenericAccumulator(field, width), ReferenceAccumulator(field, width)
        for r in rows:
            assert acc.add(r) == ref.add(r)
        got_rows, got_pivots = acc.rows_pivots()
        want_rows, want_pivots = ref.rows_pivots()
        assert [tuple(r) for r in got_rows] == [tuple(r) for r in want_rows]
        assert got_pivots == want_pivots
        assert acc.rank == len(ref.rows) == len(want_pivots)


@TABLE_FIELDS
def test_table_coords_of_matches_reference(field):
    rng = random.Random(f"coords:{field.q}")
    outside = 0
    for _ in range(60):
        width = rng.randrange(1, 7)
        gens = [tuple(rng.randrange(field.q) for _ in range(width)) for _ in range(width - 1)]
        basis = SubspaceBasis.from_vectors(field, width, gens[: rng.randrange(0, width)])
        for _ in range(5):
            member = random_combination(rng, field, basis.vectors, width)
            coeffs = basis.coords_of(member)
            assert coeffs is not None and coeffs == reference_coords_of(basis, member)
            other = tuple(rng.randrange(field.q) for _ in range(width))
            want = reference_coords_of(basis, other)
            assert basis.coords_of(other) == want
            outside += want is None
    assert outside > 0


def test_kernel_edge_shapes():
    assert kernel_basis(zero_matrix(F2, 0, 3)).dim == 3
    assert kernel_basis(zero_matrix(F2, 3, 0)).dim == 0
    assert kernel_basis(identity_matrix(F3, 4)).dim == 0


def test_column_space_and_left_kernel():
    rng = random.Random(23)
    for field in (F2, F3):
        for _ in range(25):
            m = random_matrix(rng, field, rng.randrange(1, 4), rng.randrange(0, 4))
            cs = SubspaceBasis.from_vectors(field, m.rows, [m.col_tuple(j) for j in range(m.cols)])
            for j in range(m.cols):
                assert cs.member(m.col_tuple(j))
            assert cs.dim == rank(m)
            for a in left_kernel_rows(field, m.entries, m.rows, m.cols):
                prod = [0] * m.cols
                for j in range(m.cols):
                    acc = 0
                    for i in range(m.rows):
                        acc = field.add(acc, field.mul(a[i], m.entry(i, j)))
                    prod[j] = acc
                assert not any(prod)
            assert len(left_kernel_rows(field, m.entries, m.rows, m.cols)) == m.rows - rank(m)


def reference_left_kernel_rows(field, entries, rows, cols):
    """left_kernel_rows as it was: the right kernel of the transpose."""
    cols_as_rows = [tuple(entries[i * cols + j] for i in range(rows)) for j in range(cols)]
    m = matrix_from_rows(field, cols_as_rows) if cols_as_rows else zero_matrix(field, 0, rows)
    return list(kernel_basis(m).vectors)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9], ids=lambda f: f"q{f.q}")
def test_left_kernel_rows_matches_transpose_reference(field):
    rng = random.Random(f"left-kernel:{field.q}")
    shapes = [(r, c) for r in range(5) for c in range(5)]
    mats = [zero_matrix(field, r, c) for r, c in shapes]
    mats += [identity_matrix(field, n) for n in range(1, 5)]
    for _ in range(4):
        for r, c in shapes:
            mats.append(random_matrix(rng, field, r, c))
            # rank at most 2: every row a combination of the same two rows
            if r and c:
                pair = random_matrix(rng, field, 2, c)
                mix = random_matrix(rng, field, r, 2)
                mats.append(mix.matmul(pair))
    for m in mats:
        want = reference_left_kernel_rows(field, m.entries, m.rows, m.cols)
        assert left_kernel_rows(field, m.entries, m.rows, m.cols) == want, m


def test_solve():
    rng = random.Random(29)
    for field in (F2, F3, F4):
        for _ in range(40):
            m = random_matrix(rng, field, rng.randrange(1, 4), rng.randrange(1, 4))
            x = tuple(rng.randrange(field.q) for _ in range(m.cols))
            b = m.mat_vec(x)
            got = solve(m, b)
            assert got is not None and m.mat_vec(got) == b
    # inconsistent system
    m = matrix_from_rows(F2, [(1, 0), (1, 0)])
    assert solve(m, (1, 0)) is None
    assert solve(m, (1, 1)) == (1, 0)


def all_subspaces_f2(d):
    """Every subspace of F_2^d, found by closing over all generating subsets."""
    vectors = list(product(range(2), repeat=d))
    seen = set()
    for mask in range(2 ** len(vectors)):
        gens = [v for i, v in enumerate(vectors) if (mask >> i) & 1]
        seen.add(SubspaceBasis.from_vectors(F2, d, gens))
    return seen


def test_double_annihilator_exhaustive_f2_small_dims():
    for d in (1, 2, 3):
        subs = all_subspaces_f2(d)
        for w in subs:
            aw = annihilator(w)
            assert aw.dim == d - w.dim
            for a in aw.vectors:
                for v in w.vectors:
                    acc = 0
                    for x, y in zip(a, v):
                        acc = F2.add(acc, F2.mul(x, y))
                    assert acc == 0
            assert annihilator(aw) == w


def test_subspace_counts_match_gaussian_binomials():
    subs = all_subspaces_f2(3)
    assert len(subs) == sum(gaussian_binomial(3, k, 2) for k in range(4))
    by_dim = {}
    for s in subs:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 1, 1: 7, 2: 7, 3: 1}


def test_double_annihilator_randomized_f3_f4():
    rng = random.Random(31)
    for field in (F3, F4):
        for _ in range(40):
            d = rng.randrange(1, 6)
            vecs = [tuple(rng.randrange(field.q) for _ in range(d)) for _ in range(rng.randrange(0, 4))]
            w = SubspaceBasis.from_vectors(field, d, vecs)
            assert annihilator(annihilator(w)) == w


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_pack_unpack_round_trip(bits):
    rng = random.Random(bits)
    for width in range(21):
        assert unpack(0, width, bits) == (0,) * width
        for _ in range(20):
            v = tuple(rng.randrange(1 << bits) for _ in range(width))
            key = pack(v, bits)
            # entry t at bit t*bits
            assert key == sum(x << (t * bits) for t, x in enumerate(v))
            assert unpack(key, width, bits) == v
            key = rng.getrandbits(width * bits)
            assert pack(unpack(key, width, bits), bits) == key
    assert pack(()) == 0
    # width cuts the entries read, and bits defaults to 1
    assert unpack(0b1101, 2) == (1, 0) and pack((1, 0, 1, 1)) == 0b1101


def test_gaussian_binomial_values():
    assert gaussian_binomial(6, 5, 2) == 63
    assert gaussian_binomial(6, 5, 3) == 364
    assert gaussian_binomial(6, 6, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    for n in range(7):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 2) == gaussian_binomial(n, n - k, 2)
    assert subspace_count_up_to(6, 1, 2) == 64
    assert subspace_count_up_to(6, 1, 3) == 365
    assert subspace_count_up_to(6, 0, 3) == 1


def test_matrix_ops():
    rng = random.Random(41)
    for field in (F2, F4):
        a = random_matrix(rng, field, 3, 4)
        b = random_matrix(rng, field, 4, 2)
        c = random_matrix(rng, field, 2, 3)
        assert a.matmul(b).matmul(c) == a.matmul(b.matmul(c))
        assert a.matmul(identity_matrix(field, 4)) == a
        assert a.transpose().transpose() == a
        x = tuple(rng.randrange(field.q) for _ in range(2))
        assert a.matmul(b).mat_vec(x) == a.mat_vec(b.mat_vec(x))
    # mat_vec reads only the support of x; matmul by x as a column is the
    # entry-by-entry reference
    for field in (F2, F3, F4):
        for rows, cols in ((3, 4), (0, 2), (2, 0), (5, 1)):
            a = random_matrix(rng, field, rows, cols)
            x = tuple(rng.randrange(field.q) for _ in range(cols))
            assert a.mat_vec(x) == a.matmul(Matrix(field, cols, 1, x)).entries
    with pytest.raises(ShapeMismatch):
        zero_matrix(F2, 2, 3).matmul(zero_matrix(F2, 2, 3))
    with pytest.raises(ShapeMismatch):
        zero_matrix(F2, 2, 3).mat_vec((0, 0))

