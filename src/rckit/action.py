"""The congruence action on packed case keys.

The class suites solve one case per orbit of the moves M -> L M R of
`_moves`.  A case is a subspace S, keyed by its annihilator rows packed as
`opspace.rref_keys` gives them, and `move_images` is the one place that
images a key under the moves.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import xor

from .field import FieldSpec
from .linalg import (
    Gf2Accumulator,
    Matrix,
    SubspaceBasis,
    echelonize,
    matrix_from_rows,
    pack,
    unpack,
)
from .opspace import KIND_FULL, Ambient, annihilator_key, decode, encode


def _gl_generators(f: FieldSpec, k: int) -> list[list[list[int]]]:
    """The rows of I + E_01 and of the k-cycle (k >= 2) and of
    diag(w, 1, ..., 1) for a primitive w (q > 2), which generate GL_k(K)."""
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    gens = [[[1, 1] + eye[0][2:]] + eye[1:], eye[1:] + eye[:1]] if k >= 2 else []
    if f.q > 2 and k:  # the first w with 1 not among w, w^2, ..., w^(q-2)
        w = next(w for w in range(2, f.q) if 1 not in accumulate(repeat(w, f.q - 2), f.mul))
        gens.append([[w] + eye[0][1:]] + eye[1:])
    return gens


def _moves(amb: Ambient) -> list[tuple[Matrix, Matrix]]:
    """The pairs (L, R) of the moves M -> L M R: (Q^T, diag(Q, I_m)) on sym
    and alt, (P, I_m) and (I_n, Q) on rectangles, for P and Q from
    _gl_generators."""
    f, n, m = amb.field, amb.n, amb.m
    eye = lambda k: SubspaceBasis.full(f, k).vectors
    if amb.kind == KIND_FULL:
        rows = [(matrix_from_rows(f, p), matrix_from_rows(f, eye(m))) for p in _gl_generators(f, n)]
        cols = [(matrix_from_rows(f, eye(n)), matrix_from_rows(f, q)) for q in _gl_generators(f, m)]
        return rows + cols
    pad = [[0] * n + list(e) for e in eye(m)]
    return [
        (matrix_from_rows(f, q).transpose(), matrix_from_rows(f, [r + [0] * m for r in q] + pad))
        for q in _gl_generators(f, n)
    ]


def _chunk_tables(f: FieldSpec, cols) -> list[tuple[int, int, list]]:
    """The map a -> sum_t a_t cols[t] on packed rows a, as one table per chunk
    of the whole entries that fit in a byte: entry b of the table at (shift
    s, mask m) is the sum of a_t cols[t] over the entries a_t packed in b
    (None where one is not a field element), and a's image is the sum of
    table[a >> s & m] over the chunks.  Images are packed rows added by XOR
    in characteristic 2, where an element's index is its polynomial's bits,
    and tuples added through add_table in odd characteristic."""
    bits = (f.q - 1).bit_length()
    add, mul = f.add_table, f.mul_table
    if f.p == 2:
        zero, plus = 0, xor
        scale = lambda x, col: pack([mul[x][c] for c in col], bits)
    else:
        zero, plus = (0,) * len(cols[0]), lambda u, v: tuple([add[a][b] for a, b in zip(u, v)])
        scale = lambda x, col: tuple([mul[x][c] for c in col])
    per = max(1, 8 // bits)
    out = []
    for t in range(0, len(cols), per):
        tab = [zero]
        for col in cols[t : t + per]:
            step = [scale(x, col) for x in range(f.q)] + [None] * ((1 << bits) - f.q)
            tab = [None if x is None or b is None else plus(b, x) for x in step for b in tab]
        out.append((t * bits, len(tab) - 1, tab))
    return out


def _gf2_key(rows: int, width: int):
    """The function taking `rows` independent F_2 rows of `width` bits,
    packed one after another in an int, to the key of their span: the rows
    reduced, ordered by their lowest-bit pivots and packed as
    Gf2Accumulator.rows_pivots and pack give them.  One row is its own key."""
    full = (1 << width) - 1
    if rows == 1:
        return lambda img: img
    if rows == 2:

        def key(img: int) -> int:  # reduce on the lower pivot bit, then order the rows
            x, y = img & full, img >> width
            if x & -x == y & -y:
                y ^= x
            elif y & -y < x & -x:
                x, y = y, x
            if x & (y & -y):
                x ^= y
            return x | y << width

        return key

    def key(img: int) -> int:
        acc = Gf2Accumulator(width)
        for o in range(0, rows * width, width):
            acc.add(img >> o & full)
        return pack(acc.rows_pivots()[0], width)

    return key


def _unit_key(f: FieldSpec, d: int):
    """The function taking a nonzero row of K^d (packed in characteristic 2,
    a tuple in odd) to the key of its line: the row times the inverse x of
    its leading entry, through mul_table[x] entry by entry on tuple rows and
    through the _chunk_tables of x I on packed rows."""
    bits, inv, mul = (f.q - 1).bit_length(), f.inv_table, f.mul_table
    if f.p != 2:

        def key(row) -> int:
            times = mul[inv[next(filter(None, row))]]
            return pack([times[x] for x in row], bits)

        return key
    units = SubspaceBasis.full(f, d).vectors
    scale = [_chunk_tables(f, [tuple(x * v for v in e) for e in units]) for x in range(f.q)]

    def key(row: int) -> int:
        low = (row & -row).bit_length() - 1
        out = 0
        for s, m, tab in scale[inv[row >> low - low % bits & (1 << bits) - 1]]:
            out ^= tab[row >> s & m]
        return out

    return key


def move_images(amb: Ambient, c: int):
    """The function images(key) taking the key of a subspace of amb of
    codimension c >= 1 to the keys of its images under the _moves, in that
    order.

    For a move M -> L M R, row u of the matrix C holds the coordinates of
    L E_u R, E_u the matrix with coordinates e_u.  An annihilator row a of S
    goes to C.mat_vec(a) = sum_t a_t C e_t, the functional M -> a(L M R), so
    the images of the rows span the annihilator of L^-1 S R^-1, and the key
    of that span is the image key.  A key holds c rows, so one lookup per
    chunk of the key in the _chunk_tables of diag(C, ..., C) gives all its
    image rows in place, and moves keep the codimension.  The image key is
    their echelon form, by a rule picked once for the level: _gf2_key over
    F_2; over q > 2, _unit_key for one row and echelonize for more."""
    f, d = amb.field, amb.dim
    bits = (f.q - 1).bit_length()
    units = SubspaceBasis.full(f, d).vectors
    pad = [(0,) * (r * d) for r in range(c)]
    tables = []
    for left, right in _moves(amb):
        cols = list(zip(*[encode(amb, left.matmul(decode(amb, e)).matmul(right)) for e in units]))
        diag = [z + col + pad[c - 1 - r] for r, z in enumerate(pad) for col in cols]
        tables.append(_chunk_tables(f, diag))
    if f.q == 2:
        rule = _gf2_key(c, d)
    elif c == 1:
        rule = _unit_key(f, d)
    else:

        def rule(img) -> int:
            flat = unpack(img, c * d, bits) if f.p == 2 else img
            rows = echelonize(f, [flat[t : t + d] for t in range(0, c * d, d)], d)[0]
            return annihilator_key(f, rows)

    if f.p == 2:

        def images(key: int) -> list[int]:
            out = []
            for move in tables:
                img = 0
                for s, m, tab in move:
                    img ^= tab[key >> s & m]
                out.append(rule(img))
            return out

        return images
    add, zero = f.add_table, (0,) * (c * d)

    def images(key: int) -> list[int]:
        out = []
        for move in tables:
            img = zero
            for s, m, tab in move:
                img = tuple([add[u][v] for u, v in zip(img, tab[key >> s & m])])
            out.append(rule(img))
        return out

    return images
