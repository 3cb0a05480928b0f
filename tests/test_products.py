"""Side-by-side products of spaces, joins and splits of maps, checked against
reference versions that pad and slice the matrices row by row."""

from __future__ import annotations

import random

import pytest

from rckit.field import make_field
from rckit.linalg import matrix_from_rows
from rckit.opspace import (
    KIND_ALT,
    KIND_FULL,
    KIND_SYM,
    Ambient,
    OperatorSpace,
    decode,
    encode,
    layout,
    product_coords,
    side_by_side,
    space_from_coords,
)
from rckit.rcmaps import (
    AdditiveMap,
    evaluate,
    join_maps,
    random_map,
    split_map,
)
from rckit.verify import _SPLIT_SHAPES

from test_opspace import basis_matrices
from test_rcmaps import prime_basis_vectors

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)

# every (kind, n, tail) of the left factor in the splitting-lemma shapes, plus
# left factors with a tail of their own; a full left factor makes the product
# coordinates of the two factors interleave row by row
LEFT_SHAPES = sorted({(kind, n, 0) for _, kind, n, _ in _SPLIT_SHAPES}) + [
    (KIND_SYM, 2, 1),
    (KIND_ALT, 3, 1),
    (KIND_FULL, 2, 2),
]
RIGHT_WIDTHS = sorted({extra for *_, extra in _SPLIT_SHAPES})


def ref_side_by_side(a: OperatorSpace, b: OperatorSpace) -> OperatorSpace:
    """Pad the basis matrices of a on the right and those of b on the left."""
    f = a.ambient.field
    amb = Ambient(f, a.ambient.kind, a.ambient.n, a.ambient.m + b.ambient.m)
    nrows, old_cols, extra = amb.nrows, a.ambient.ncols, b.ambient.m
    mats = []
    for mat in basis_matrices(a):
        ent = [list(mat.row_tuple(i)) + [0] * extra for i in range(nrows)]
        mats.append(matrix_from_rows(f, ent))
    for mat in basis_matrices(b):
        ent = [[0] * old_cols + list(mat.row_tuple(i)) for i in range(nrows)]
        mats.append(matrix_from_rows(f, ent))
    return space_from_coords(amb, [encode(amb, m) for m in mats], product_of=(a, b))


def ref_join_maps(f_map: AdditiveMap, g_map: AdditiveMap) -> AdditiveMap:
    """Slice each prime basis matrix of the product into its two halves."""
    a, b = f_map.domain, g_map.domain
    s = ref_side_by_side(a, b)
    amb = s.ambient
    split = a.ambient.ncols
    values = []
    for v in prime_basis_vectors(s):
        mat = decode(amb, v)
        left = matrix_from_rows(amb.field, [mat.row_tuple(i)[:split] for i in range(amb.nrows)])
        right = matrix_from_rows(amb.field, [mat.row_tuple(i)[split:] for i in range(amb.nrows)])
        fv = evaluate(f_map, left)
        gv = evaluate(g_map, right)
        values.append(tuple(amb.field.add(x, y) for x, y in zip(fv, gv)))
    return AdditiveMap(s, tuple(values))


def ref_split_map(f_map: AdditiveMap) -> tuple[AdditiveMap, AdditiveMap]:
    """Pad each factor's prime basis matrices into the product."""
    s = f_map.domain
    a, b = s.product_of
    amb = s.ambient
    f = amb.field
    split = a.ambient.ncols
    extra = amb.ncols - split

    def embed_left(mat):
        return matrix_from_rows(f, [list(mat.row_tuple(i)) + [0] * extra for i in range(amb.nrows)])

    def embed_right(mat):
        return matrix_from_rows(f, [[0] * split + list(mat.row_tuple(i)) for i in range(amb.nrows)])

    f_vals = [evaluate(f_map, embed_left(decode(a.ambient, v))) for v in prime_basis_vectors(a)]
    g_vals = [evaluate(f_map, embed_right(decode(b.ambient, v))) for v in prime_basis_vectors(b)]
    return AdditiveMap(a, tuple(f_vals)), AdditiveMap(b, tuple(g_vals))


def _random_space(rng, amb: Ambient, proper: bool) -> OperatorSpace:
    count = rng.randint(0, amb.dim - 1) if proper and amb.dim else amb.dim
    return space_from_coords(
        amb, [tuple(rng.randrange(amb.field.q) for _ in range(amb.dim)) for _ in range(count)]
    )


def _factor_pairs(rng, f):
    for kind, n, m in LEFT_SHAPES:
        for extra in RIGHT_WIDTHS:
            for proper in (False, True, True, True):
                left = _random_space(rng, Ambient(f, kind, n, m), proper)
                right = _random_space(rng, Ambient(f, KIND_FULL, n, extra), proper)
                yield left, right


def test_product_coords_is_the_entry_placement():
    # decode the unit vectors: coordinate t of a factor and its image in the
    # product hold the same value at the same entry, shifted by the left width
    for f in (F2, F3, F4):
        for kind, n, m in LEFT_SHAPES:
            for extra in RIGHT_WIDTHS:
                left, right = Ambient(f, kind, n, m), Ambient(f, KIND_FULL, n, extra)
                prod = Ambient(f, kind, n, m + extra)
                where = product_coords(left, right)
                assert sorted(where) == list(range(prod.dim))
                for amb, shift, offset in ((left, 0, 0), (right, left.dim, left.ncols)):
                    for t, slots in enumerate(layout(amb)):
                        i, j = divmod(slots[0][0], amb.ncols)
                        unit = [0] * prod.dim
                        unit[where[shift + t]] = 1
                        assert decode(prod, unit).entry(i, offset + j) == 1


@pytest.mark.parametrize("f", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_products_joins_and_splits_match_the_matrix_reference(f):
    rng = random.Random(f"products:{f.label}")
    for left, right in _factor_pairs(rng, f):
        prod = side_by_side(left, right)
        assert prod == ref_side_by_side(left, right)
        assert prod.product_of == (left, right)
        fa, gb = random_map(left, rng), random_map(right, rng)
        joined = join_maps(fa, gb)
        assert joined == ref_join_maps(fa, gb)
        assert split_map(joined) == (fa, gb)
        free = random_map(prod, rng)
        assert split_map(free) == ref_split_map(free)
        assert join_maps(*split_map(free)) == free

