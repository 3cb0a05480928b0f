"""The class suites solve one case per congruence class.

These tests check the partition against congruences computed directly, and
the reports against the driver that solves every case on its own, kept here
as the reference."""

from __future__ import annotations

import time
from functools import lru_cache, partial
from itertools import combinations, product
from operator import xor

import pytest

from rckit import verify as V
from rckit.cli import main
from rckit.errors import BadParams, EnumerationCapExceeded
from rckit.field import make_field
from rckit.linalg import (
    Gf2Accumulator,
    SubspaceBasis,
    annihilator,
    echelonize,
    matrix_from_rows,
    pack,
    unpack,
)
from rckit.opspace import (
    Ambient,
    KIND_ALT,
    KIND_FULL,
    KIND_SYM,
    annihilator_key,
    count_subspaces,
    decode,
    dual_rref_rows,
    encode,
    enumerate_subspaces_up_to,
    key_space,
    restricted_part,
    rref_keys,
    rref_rows,
    space_from_matrices,
)
from rckit.rcmaps import element_cap

from test_linalg import rank
from test_opspace import basis_matrices, congruent
from test_verify import _brute_t3_orbit, _canonical_sha256

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F8 = make_field(2, 3)
F9 = make_field(3, 2)


def _per_case_suite(suite, amb, case, codim, cap, jobs, admissible=None):
    """The class-suite driver that solves every case on its own."""
    n = amb.n
    if codim is None:
        codim = n - 2
    if not 0 <= codim <= n - 2:
        raise BadParams(f"codimension bound {codim} outside the admissible range 0..{n - 2}")
    cap = element_cap(cap)
    t0 = time.perf_counter()
    cases = enumerate_subspaces_up_to(amb, codim, cap=cap)
    if admissible is not None:
        cases = filter(admissible, cases)
    per_case = V._map_cases(partial(case, cap), list(cases), jobs)
    spec = V.SuiteSpec(suite, field=amb.field.label, n=n, m=amb.m, codim=codim, cap=cap)
    return V._finish(spec, per_case, t0)


@lru_cache(maxsize=None)
def _brute_t3_orbits(field):
    return {m: _brute_t3_orbit(field, m) for m in (0, 1)} if field.q == 2 else {}


def _per_case_good_functionals(field, cap=None, jobs=1):
    """The good-functionals suite that solves every case on its own, with
    the t3 orbits by brute force."""
    cap = element_cap(cap)
    t0 = time.perf_counter()
    orbits = _brute_t3_orbits(field)
    ambs = [Ambient(field, KIND_SYM, 3, m) for m in (0, 1)]
    cases = [s for amb in ambs for s in enumerate_subspaces_up_to(amb, 1, cap=cap)]
    per_case = V._map_cases(partial(V._good_functional_case, orbits), cases, jobs)
    spec = V.SuiteSpec("good-functionals", field=field.label, n=3, cap=cap)
    return V._finish(spec, per_case, t0)


def _first_difference(new, ref) -> str:
    pairs = enumerate(zip(new.failures, ref.failures))
    first = next((i for i, (a, b) in pairs if a != b), min(len(new.failures), len(ref.failures)))
    return (
        f"casesRun {new.cases_run} against {ref.cases_run}; first differing failure at index "
        f"{first} of {len(new.failures)} against {len(ref.failures)}"
    )


def _assert_same_report(new, ref) -> None:
    # digests, so that a mismatch does not diff hundreds of KB of JSON
    assert _canonical_sha256(new) == _canonical_sha256(ref), _first_difference(new, ref)


def _both(monkeypatch, run, name="_run_class_suite", reference=_per_case_suite):
    """The report of run() as it stands, then with the reference put in
    place of V.<name>."""
    new = run()
    with monkeypatch.context() as m:
        m.setattr(V, name, reference)
        ref = run()
    return new, ref


# ---------------------------------------------------------------------------
# the partition


def _move_image(amb, left, right, space):
    """{L M R : M in space}, by matrix products."""
    if amb.kind == KIND_FULL:
        mats = [left.matmul(m).matmul(right) for m in basis_matrices(space)]
        return space_from_matrices(amb, mats)
    return congruent(space, left.transpose())


PARTITIONS = [
    (Ambient(F2, KIND_SYM, 3, 0), 1),
    (Ambient(F2, KIND_SYM, 4, 0), 1),
    (Ambient(F3, KIND_SYM, 3, 0), 1),
    (Ambient(F4, KIND_SYM, 2, 1), 1),
    (Ambient(F2, KIND_ALT, 4, 1), 1),
    (Ambient(F2, KIND_FULL, 3, 2), 2),
    (Ambient(F8, KIND_SYM, 2, 0), 1),
    (Ambient(F5, KIND_SYM, 2, 0), 1),
]
PARTITION_IDS = [
    "sym3-f2", "sym4-f2", "sym3-f3", "sym2x1-f4", "alt4x1-f2", "rect3x2-f2", "sym2-f8", "sym2-f5",
]


@pytest.mark.parametrize("amb, codim", PARTITIONS, ids=PARTITION_IDS)
def test_every_move_image_is_a_congruence(amb, codim):
    # the image key of S under the move M -> L M R is the annihilator of
    # L^-1 S R^-1, so L M R maps the image's space back onto S; on sym and
    # alt that is congruent(image, Q) with L = Q^T
    keys, classes = V._congruence_classes(amb, codim, 1 << 20)
    spaces = [key_space(amb, k) for k in keys]
    assert spaces == list(enumerate_subspaces_up_to(amb, codim))
    # and the codec round-trips every key through its space's annihilator
    assert [annihilator_key(amb.field, annihilator(s.basis).vectors) for s in spaces] == keys
    index = {k: i for i, k in enumerate(keys)}
    cls = {i: c for c, members in enumerate(classes) for i in members}
    moves = V._moves(amb)
    images = _image_keys(amb)
    for i, key in enumerate(keys):
        for (left, right), image in zip(moves, images(key)):
            assert _move_image(amb, left, right, spaces[index[image]]) == spaces[i]
            assert cls[index[image]] == cls[i]


@pytest.mark.parametrize("amb, codim", PARTITIONS, ids=PARTITION_IDS)
def test_class_sizes_sum_to_the_subspace_counts(amb, codim):
    keys, classes = V._congruence_classes(amb, codim, 1 << 20)
    assert sorted(i for members in classes for i in members) == list(range(len(keys)))
    assert [members[0] for members in classes] == sorted(members[0] for members in classes)
    per_codim = [0] * (codim + 1)
    for members in classes:
        dims = {key_space(amb, keys[i]).codim for i in members}
        assert len(dims) == 1 and members == sorted(members)
        per_codim[dims.pop()] += len(members)
    assert per_codim == [count_subspaces(amb, c) for c in range(codim + 1)]


def _key_rows(key, d, bits):
    """The rows of length d packed one after another in a case key."""
    rows = []
    while key:
        rows.append(unpack(key, d, bits))
        key >>= d * bits
    return rows


def _case_keys(f, d, codim):
    """The keys of the subspaces of codimension <= codim, in enumeration order."""
    bits = (f.q - 1).bit_length()
    return [pack(sum(rows, ()), bits) for c in range(codim + 1) for rows in dual_rref_rows(f, d, c)]


@pytest.mark.parametrize(
    "amb",
    [
        Ambient(F2, KIND_SYM, 3, 0),
        Ambient(F3, KIND_SYM, 2, 1),
        Ambient(F4, KIND_SYM, 2, 1),
        Ambient(F8, KIND_ALT, 3, 0),
    ],
    ids=["sym3-f2", "sym2x1-f3", "sym2x1-f4", "alt3-f8"],
)
def test_case_space_round_trips_every_key(amb):
    # the row count comes from the key's bit length: key 0 is the full space
    f, d = amb.field, amb.dim
    keys = _case_keys(f, d, 2)
    assert keys[0] == 0 and key_space(amb, 0).codim == 0
    assert len(set(keys)) == len(keys)
    for c in range(3):
        for pivots in combinations(range(d), c):
            rows = list(rref_rows(f, d, pivots))
            assert rref_keys(f, d, pivots) == [annihilator_key(f, r) for r in rows]
            for r in rows:
                key = annihilator_key(f, r)
                assert key == pack(sum(r, ()), (f.q - 1).bit_length())
                space = key_space(amb, key)
                assert space.codim == c
                assert annihilator(space.basis).vectors == r


def _reference_image_keys(amb):
    """The reference for V._image_keys: one C.mat_vec per annihilator row
    and echelonize, and over F_2 the per-bit XOR of the packed columns of C
    into a Gf2Accumulator."""
    f, d = amb.field, amb.dim
    units = SubspaceBasis.full(f, d).vectors
    tables = [
        matrix_from_rows(f, [encode(amb, left.matmul(decode(amb, e)).matmul(right)) for e in units])
        for left, right in V._moves(amb)
    ]
    if f.q != 2:
        bits = (f.q - 1).bit_length()
        return lambda key: [
            pack(sum(echelonize(f, [c.mat_vec(a) for a in _key_rows(key, d, bits)], d)[0], ()), bits)
            for c in tables
        ]
    packed = [[pack(c.col_tuple(t)) for t in range(d)] for c in tables]
    full = (1 << d) - 1

    def images(key):
        out = []
        for cols in packed:
            acc = Gf2Accumulator(d)
            rest = key
            while rest:
                a, rest = rest & full, rest >> d
                row = 0
                while a:
                    low = a & -a
                    row ^= cols[low.bit_length() - 1]
                    a ^= low
                acc.add(row)
            out.append(sum(r << (i * d) for i, r in enumerate(acc.rows_pivots()[0])))
        return out

    return images


def _image_keys(amb):
    """The function taking a case's key to the keys of its images under
    V._moves(amb), in that order: the image step of V._congruence_classes
    before it imaged packed keys inline, kept as its reference.

    For a move M -> L M R, row u of the matrix C holds the coordinates of
    L E_u R, and an annihilator row a goes to C.mat_vec(a).  The columns
    C e_t are read into one table per move and chunk of the whole entries
    that fit in a byte (None where an entry is not a field element), so a
    packed row's image is a sum of one lookup per chunk: packed rows added
    by XOR in characteristic 2, tuples added through add_table otherwise.
    The image key is the echelon form of the image rows, packed."""
    f, d = amb.field, amb.dim
    bits = (f.q - 1).bit_length()
    add, mul = f.add_table, f.mul_table
    if f.p == 2:
        zero, plus = 0, xor
        scale = lambda x, col: pack([mul[x][c] for c in col], bits)
    else:
        zero, plus = (0,) * d, lambda u, v: tuple([add[a][b] for a, b in zip(u, v)])
        scale = lambda x, col: tuple([mul[x][c] for c in col])
    units = SubspaceBasis.full(f, d).vectors
    per = max(1, 8 // bits)
    tables = []
    for left, right in V._moves(amb):
        c = matrix_from_rows(f, [encode(amb, left.matmul(decode(amb, e)).matmul(right)) for e in units])
        move = []
        for t in range(0, d, per):
            tab = [zero]
            for u in range(t, min(t + per, d)):
                col = c.col_tuple(u)
                step = [scale(x, col) for x in range(f.q)] + [None] * ((1 << bits) - f.q)
                tab = [None if x is None or b is None else plus(b, x) for x in step for b in tab]
            move.append((t * bits, tab))
        tables.append(move)
    width, mask = d * bits, (1 << per * bits) - 1
    full = (1 << width) - 1

    def to_key(img) -> int:
        if f.p == 2:
            img = [unpack(r, d, bits) for r in img]
        return pack(sum(echelonize(f, img, d)[0], ()), bits)

    def images(key: int) -> list[int]:
        rows = []
        while key:
            rows.append(key & full)
            key >>= width
        out = []
        for move in tables:
            img = []
            for a in rows:
                r = zero
                for s, tab in move:
                    r = plus(r, tab[a >> s & mask])
                img.append(r)
            out.append(to_key(img))
        return out

    return images


def _reference_congruence_classes(amb, codim, cap):
    """The reference for V._congruence_classes: keys packed from the tuple
    rows of dual_rref_rows, united with their _image_keys."""
    total = sum(count_subspaces(amb, c) for c in range(codim + 1))
    if total > cap:
        raise EnumerationCapExceeded(f"{total} subspaces exceeds cap {cap}")
    keys = _case_keys(amb.field, amb.dim, codim)
    index = {k: i for i, k in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    images = _image_keys(amb)
    for i, key in enumerate(keys):
        a = find(i)
        for image in images(key):
            b = find(index[image])
            if b < a:  # the smaller index stays the root
                parent[a], a = b, b
            elif a < b:
                parent[b] = a
    classes: dict[int, list[int]] = {}
    for i in range(len(keys)):
        classes.setdefault(find(i), []).append(i)
    return keys, list(classes.values())


# the PARTITIONS ambients and more keys of several rows, and of every field
# shape: F_2, odd q, GF(2^k) and F_9
KEYED = PARTITIONS + [
    (Ambient(F8, KIND_SYM, 2, 1), 1),  # 15 bits per row, across the 6-bit chunks
    (Ambient(F4, KIND_SYM, 3, 0), 1),
    (Ambient(F3, KIND_SYM, 3, 0), 2),  # several rows over odd q
    (Ambient(F4, KIND_SYM, 2, 0), 2),
    (Ambient(F2, KIND_ALT, 3, 1), 3),  # three rows over F_2
    (Ambient(F2, KIND_SYM, 3, 1), 2),  # two rows of 9 bits over F_2
    (Ambient(F9, KIND_SYM, 2, 0), 2),
    (Ambient(F8, KIND_ALT, 3, 0), 2),  # two rows over GF(8)
]
KEYED_IDS = PARTITION_IDS + [
    "sym2x1-f8", "sym3-f4", "sym3c2-f3", "sym2c2-f4", "alt3x1c3-f2", "sym3x1c2-f2", "sym2c2-f9",
    "alt3c2-f8",
]


@pytest.mark.parametrize("amb, codim", KEYED, ids=KEYED_IDS)
def test_image_keys_match_the_reference(amb, codim):
    keys = _case_keys(amb.field, amb.dim, codim)
    new, ref = _image_keys(amb), _reference_image_keys(amb)
    for key in keys:
        assert new(key) == ref(key), key


@pytest.mark.parametrize("amb, codim", KEYED, ids=KEYED_IDS)
def test_keys_and_classes_match_the_reference(amb, codim):
    keys, classes = V._congruence_classes(amb, codim, 1 << 20)
    assert keys == _case_keys(amb.field, amb.dim, codim)
    assert (keys, classes) == _reference_congruence_classes(amb, codim, 1 << 20)


@pytest.mark.parametrize("field", [F3, F4, F8, F9], ids=["f3", "f4", "f8", "f9"])
def test_unit_key_is_the_echelon_form_of_the_row(field):
    bits = (field.q - 1).bit_length()
    for d in range(1, 5):
        scale = V._scale_tables(field, d)
        for v in product(range(field.q), repeat=d):
            if any(v):
                row = pack(v, bits) if field.p == 2 else v
                assert V._unit_key(field, row, scale) == pack(echelonize(field, [v], d)[0][0], bits), v


def test_gf2_two_row_key_is_the_accumulator_echelon_form():
    # every ordered pair of independent rows of F_2^6
    for x, y in product(range(1, 64), repeat=2):
        if x != y:
            acc = Gf2Accumulator(6)
            acc.add(x)
            acc.add(y)
            assert V._gf2_key(x | y << 6, 2, 6) == pack(acc.rows_pivots()[0], 6), (x, y)


def _general_linear(f, k):
    mats = (matrix_from_rows(f, [e[i * k:(i + 1) * k] for i in range(k)])
            for e in product(range(f.q), repeat=k * k))
    return [q for q in mats if rank(q) == k]


@pytest.mark.parametrize(
    "amb, classes",
    [(Ambient(F2, KIND_SYM, 3, 0), 5), (Ambient(F4, KIND_SYM, 2, 1), 10)],
    ids=["sym3-f2", "sym2x1-f4"],
)
def test_classes_are_the_whole_congruence_orbits(amb, classes):
    # the moves generate GL_n: each class is a full orbit, not a piece of one
    keys, got = V._congruence_classes(amb, 1, 1 << 20)
    group = _general_linear(amb.field, amb.n)
    assert len(got) == classes
    for members in got:
        rep = key_space(amb, keys[members[0]])
        orbit = {congruent(rep, q).basis for q in group}
        assert orbit == {key_space(amb, keys[i]).basis for i in members}


@pytest.mark.parametrize(
    "amb, codim, classes",
    [
        (Ambient(F2, KIND_SYM, 4, 0), 1, 7),
        (Ambient(F3, KIND_SYM, 3, 0), 1, 5),
        (Ambient(F2, KIND_ALT, 5, 0), 1, 3),
    ],
    ids=["sym4-f2", "sym3-f3", "alt5-f2"],
)
def test_class_counts(amb, codim, classes):
    assert len(V._congruence_classes(amb, codim, 1 << 20)[1]) == classes


# ---------------------------------------------------------------------------
# reports against the per-case reference


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "run",
    [
        lambda jobs: V.run_sym_main(F2, 4, codim=1, jobs=jobs),
        lambda jobs: V.run_sym_main(F3, 3, jobs=jobs),
        lambda jobs: V.run_sym_main(F4, 3, jobs=jobs),
        lambda jobs: V.run_alt_main(F2, 4, m=1, codim=1, jobs=jobs),
        lambda jobs: V.run_alt_main(F3, 3, m=1, jobs=jobs),
        lambda jobs: V.run_alt_main(F4, 3, m=1, jobs=jobs),
        lambda jobs: V.run_rect_group(F2, 3, 2, codim=1, jobs=jobs),
        lambda jobs: V.run_rect_group(F3, 3, 2, codim=1, jobs=jobs),
        lambda jobs: V.run_rect_group(F4, 3, 1, codim=1, jobs=jobs),
    ],
    ids=[
        "sym4c1-f2", "sym3-f3", "sym3-f4", "alt4x1c1-f2", "alt3x1-f3", "alt3x1-f4",
        "rect3x2-f2", "rect3x2-f3", "rect3x1-f4",
    ],
)
def test_class_driver_matches_the_per_case_reference(monkeypatch, run, jobs):
    # the digests of these reports are pinned in test_verify.py
    new, ref = _both(monkeypatch, partial(run, jobs))
    assert new.verified
    _assert_same_report(new, ref)


def _fails_on_hyperplanes(cap, space):
    return [V._failure(space, None, "codimension one")] if space.codim == 1 else []


def _fails_on_tight_restricted_part(cap, space):
    # congruence-invariant, and true on some classes of codimension one only;
    # two failures per case, so their order within a case is checked too
    if restricted_part(space).codim == 1:
        return [V._failure(space, None, "restricted part"), V._failure(space, None, "twice")]
    return []


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "name, predicate, run",
    [
        ("_standard_class_case", _fails_on_hyperplanes, partial(V.run_sym_main, F2, 4, codim=1)),
        (
            "_local_class_case",
            _fails_on_tight_restricted_part,
            partial(V.run_alt_main, F2, 4, m=1, codim=1),
        ),
        ("_local_class_case", _fails_on_hyperplanes, partial(V.run_alt_main, F2, 3, m=2, codim=1)),
        ("_local_class_case", _fails_on_hyperplanes, partial(V.run_rect_group, F3, 3, 2, codim=1)),
    ],
    ids=["sym4-f2", "alt4x1-f2", "alt3x2-f2", "rect3x2-f3"],
)
def test_failing_classes_report_every_member(monkeypatch, name, predicate, run, jobs):
    monkeypatch.setattr(V, name, predicate)
    new, ref = _both(monkeypatch, partial(run, jobs=jobs))
    assert not new.verified and 0 < new.passes < new.cases_run
    _assert_same_report(new, ref)


@pytest.mark.parametrize(
    "cap, message",
    [
        ("400", "error: 729 elements exceeds cap 400"),
        ("100", "error: 365 subspaces exceeds cap 100"),
    ],
)
def test_small_caps_exit_2_with_the_reference_message(monkeypatch, capsys, cap, message):
    argv = ["verify", "--suite", "sym-main", "--field", "3", "--n", "3", "--cap", cap]
    assert main(argv) == 2
    got = capsys.readouterr().err
    monkeypatch.setattr(V, "_run_class_suite", _per_case_suite)
    assert main(argv) == 2
    assert capsys.readouterr().err == got
    assert got.strip() == message


# ---------------------------------------------------------------------------
# good-functionals against its per-case reference


@lru_cache(maxsize=None)
def _reference_good_functionals(field):
    # the reference's report does not depend on jobs; 2 halves its F_3 time
    return _per_case_good_functionals(field, jobs=2)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("field", [F2, F3], ids=["f2", "f3"])
def test_good_functionals_match_the_per_case_reference(field, jobs):
    # the digests of these reports are pinned in test_verify.py
    new = V.run_good_functionals(field, jobs=jobs)
    assert new.verified
    _assert_same_report(new, _reference_good_functionals(field))


def _two_good_lines_on_hyperplanes(space):
    # over F_2 every class of codimension one fails but the t3 class
    return (2, 0) if space.codim == 1 else (3, 0)


def _overflow_on_tight_restricted_part(space):
    return (3, 1) if restricted_part(space).codim == 1 else (3, 0)


def _one_good_line_on_the_full_block(space):
    # fails on Sym(3, 0) itself and on the 1 + 13 spaces of Sym(3, 1) over
    # F_3 that contain the whole block
    return (3, 0) if restricted_part(space).codim else (1, 0)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "field, predicate",
    [
        (F2, _two_good_lines_on_hyperplanes),
        (F2, _overflow_on_tight_restricted_part),
        (F3, _one_good_line_on_the_full_block),
    ],
    ids=["f2-t3", "f2-overflow", "f3-full-block"],
)
def test_failing_good_functional_classes_report_every_member(monkeypatch, field, predicate, jobs):
    # congruence-invariant counts that fail in both ambients
    monkeypatch.setattr(V, "_good_lines", predicate)
    new, ref = _both(
        monkeypatch,
        lambda: V.run_good_functionals(field, jobs=jobs),
        "run_good_functionals",
        _per_case_good_functionals,
    )
    assert not new.verified and 0 < new.passes < new.cases_run
    assert {f["space"]["ambient"]["m"] for f in new.failures} == {0, 1}
    _assert_same_report(new, ref)


def test_good_functionals_dispatch_every_representative_at_once(monkeypatch):
    # one _map_cases call for the 21 classes of both ambients, then an empty
    # one for the members of failing classes, so --jobs forks at most once
    sizes = []
    map_cases = V._map_cases

    def counting(worker, cases, jobs=1):
        cases = list(cases)
        sizes.append(len(cases))
        return map_cases(worker, cases, jobs)

    monkeypatch.setattr(V, "_map_cases", counting)
    assert V.run_good_functionals(F2, jobs=2).verified
    assert sizes == [21, 0]


@pytest.mark.parametrize(
    "cap, message",
    [("50", "error: 64 subspaces exceeds cap 50"), ("100", "error: 512 subspaces exceeds cap 100")],
)
def test_good_functionals_small_caps_exit_2_with_the_reference_message(
    monkeypatch, capsys, cap, message
):
    argv = ["verify", "--suite", "good-functionals", "--field", "2", "--cap", cap]
    assert main(argv) == 2
    got = capsys.readouterr().err
    monkeypatch.setattr(V, "run_good_functionals", _per_case_good_functionals)
    assert main(argv) == 2
    assert capsys.readouterr().err == got
    assert got.strip() == message
