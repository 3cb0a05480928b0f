"""Tests for additive maps and the range-compatibility machinery."""

from __future__ import annotations

import random
from itertools import chain, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rckit.errors import (
    AmbientMismatch,
    CharacteristicMismatch,
    DomainTooLarge,
    IllDefined,
    MixedFields,
    NotInDomain,
)
from rckit.field import make_field
from rckit.linalg import (
    Gf2Accumulator,
    Matrix,
    SubspaceBasis,
    accumulator_kernel,
    annihilator,
    kernel_basis,
    left_kernel_rows,
    make_accumulator,
    matrix_from_rows,
    solve,
)
from rckit.opspace import (
    KIND_ALT,
    KIND_FULL,
    KIND_SYM,
    Ambient,
    build_full_alt,
    build_full_sym,
    build_sym_block,
    build_t3,
    decode,
    enumerate_subspaces_up_to,
    full_space,
    projection_table,
    quotient_projection,
    quotient_space,
    side_by_side,
    space_from_coords,
    space_to_json,
)
import rckit.rcmaps as rcmaps
from rckit.rcmaps import (
    AdditiveMap,
    evaluate,
    evaluate_at_coeffs,
    is_linear,
    is_local,
    is_range_compatible,
    is_standard,
    iter_projected,
    iter_space_elements,
    join_maps,
    linear_maps_space,
    linear_rc_space,
    local_generators,
    local_space,
    map_coord_width,
    map_from_coords,
    map_from_function,
    map_from_json,
    map_to_coords,
    MapSpace,
    naive_rc_maps,
    prime_coeffs_of,
    prime_field,
    quotient_map,
    random_map,
    rc_solution_space,
    respects_row_decomposition,
    root_linear_form,
    root_linear_forms,
    split_map,
    standard_generators,
    standard_space,
    MapGenerators,
    _char2_generators,
    _char2_patterns,
    _cuts_out,
    _diag_values,
    _decoded_generators,
    _gf2_basis_keys,
    _gf2_left_kernel,
    _goal,
    _low_weight_entries,
    _naive_rc_maps_generic,
    _naive_rc_maps_gf2,
    _odd_patterns,
    _prime_basis_matrices,
)

from test_opspace import build_full_rect

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F8 = make_field(2, 3)
F9 = make_field(3, 2)


def prime_basis_vectors(space):
    """The F_p-basis x^t * b_i of a space in coordinates, indexed by
    j = i*k + t: the order of the values of an additive map."""
    f = space.ambient.field
    return [tuple(f.mul(lam, x) for x in b) for b in space.basis.vectors for lam in f.power_basis]


def local_map(space, x):
    """The evaluation map s -> s x for a fixed vector x in K^ncols."""
    if len(x) != space.ambient.ncols:
        raise AmbientMismatch(f"x must live in K^{space.ambient.ncols}")
    return AdditiveMap(space, tuple(m.mat_vec(x) for m in _prime_basis_matrices(space)))


def diag_root_linear_map(space, form):
    """The map [A | R] -> alpha(diagonal of A) on a symmetric-block space."""
    if space.ambient.kind != KIND_SYM:
        raise AmbientMismatch("diagonal maps need a symmetric-block ambient")
    if form.field is not space.ambient.field:
        raise MixedFields("form over a different field")
    return AdditiveMap(space, _diag_values(form, _prime_basis_matrices(space)))


def map_to_json(f_map):
    """The inverse of map_from_json."""
    return {"space": space_to_json(f_map.domain), "values": [list(v) for v in f_map.values]}


def zero_map(space):
    """The map sending every element to 0."""
    n, k = space.ambient.nrows, space.ambient.field.k
    return AdditiveMap(space, tuple((0,) * n for _ in range(space.dim * k)))


def delta_map(space):
    """diag extraction followed by the identity root-linear form."""
    return diag_root_linear_map(space, root_linear_forms(space.ambient.field)[0])


# -- evaluation -------------------------------------------------------------


def test_prime_basis_spans_domain():
    for f in (F2, F3, F4):
        s = build_full_sym(f, 2)
        pb = prime_basis_vectors(s)
        assert len(pb) == s.dim * f.k
        assert SubspaceBasis.from_vectors(f, s.ambient.dim, pb) == s.basis


def test_iter_space_elements_enumerates_everything():
    for f in (F2, F3, F4):
        s = build_full_sym(f, 2)
        seen = {}
        for coeffs, mat in iter_space_elements(s):
            pb = prime_basis_vectors(s)
            built = [0] * s.ambient.dim
            for c, u in zip(coeffs, pb):
                for t in range(len(built)):
                    built[t] = f.add(built[t], f.mul(c, u[t]))
            assert decode(s.ambient, tuple(built)) == mat
            seen[coeffs] = mat
        assert len(seen) == f.q**s.dim
        assert len(set(seen.values())) == f.q**s.dim


def test_local_map_evaluates_to_first_column():
    # x = e_1 on symmetric 2x2: [[a,b],[b,c]] -> (a, b)
    for f in (F2, F3, F4):
        s = build_full_sym(f, 2)
        loc = local_map(s, (1, 0))
        for a, b, c in product(range(f.q), repeat=3):
            m = matrix_from_rows(f, [(a, b), (b, c)])
            assert evaluate(loc, m) == (a, b)


def test_delta_map_anchor_value():
    s = build_full_sym(F2, 2)
    d = delta_map(s)
    assert evaluate(d, matrix_from_rows(F2, [(1, 1), (1, 0)])) == (1, 0)
    assert evaluate(d, matrix_from_rows(F2, [(1, 1), (1, 1)])) == (1, 1)


def test_evaluate_is_additive():
    rng = random.Random(3)
    for f in (F3, F4):
        s = build_full_sym(f, 2)
        fm = random_map(s, rng)
        elems = list(iter_space_elements(s))
        for _ in range(40):
            (ca, ma), (cb, mb) = rng.choice(elems), rng.choice(elems)
            msum = Matrix(f, 2, 2, tuple(f.add(x, y) for x, y in zip(ma.entries, mb.entries)))
            lhs = evaluate(fm, msum)
            fa = evaluate(fm, ma)
            fb = evaluate(fm, mb)
            assert lhs == tuple(f.add(x, y) for x, y in zip(fa, fb))


def test_evaluate_outside_domain_raises():
    s = build_t3(F2)
    fm = zero_map(s)
    outside = matrix_from_rows(F2, [(0, 0, 0), (0, 0, 1), (0, 1, 0)])
    with pytest.raises(NotInDomain):
        evaluate(fm, outside)


def test_map_coords_round_trip():
    rng = random.Random(19)
    for f in (F2, F3, F4):
        s = build_full_sym(f, 2, 1)
        fm = random_map(s, rng)
        coords = map_to_coords(fm)
        assert len(coords) == s.dim * f.k * 2 * f.k
        assert map_from_coords(s, coords) == fm
    with pytest.raises(AmbientMismatch):
        map_from_coords(build_t3(F2), (0,))


# -- range compatibility ----------------------------------------------------


def test_rc_dims_on_full_spaces_frozen():
    assert rc_solution_space(build_full_sym(F2, 2)).dim == 3
    assert rc_solution_space(build_full_sym(F3, 2)).dim == 2
    assert rc_solution_space(build_full_alt(F2, 3)).dim == 3
    assert rc_solution_space(build_full_alt(F3, 3)).dim == 3


def test_rc_solver_matches_naive_oracle_exhaustively():
    domains = [
        build_full_sym(F2, 2),
        build_t3(F2),
        build_full_alt(F2, 3),
        build_full_sym(F3, 2),
        build_full_sym(F2, 2, 1),
    ]
    for s in domains:
        rc = rc_solution_space(s)
        oracle = set(naive_rc_maps(s))
        span = set(rc.basis.enumerate_elements())
        assert span == oracle


def test_rc_solver_matches_oracle_on_random_subspaces():
    rng = random.Random(23)
    for f, n in [(F2, 2), (F3, 2)]:
        amb = Ambient(f, "sym", n, 0)
        for _ in range(12):
            vecs = [
                tuple(rng.randrange(f.q) for _ in range(amb.dim))
                for _ in range(rng.randrange(0, 3))
            ]
            s = space_from_coords(amb, vecs)
            rc = rc_solution_space(s)
            assert set(rc.basis.enumerate_elements()) == set(naive_rc_maps(s))
            # None exactly when the standard maps are all of RC
            want = None if rc == standard_space(s) else rc
            assert rc_solution_space(s, target=standard_generators(s)) == want


@st.composite
def small_spaces(draw, field):
    """A random subspace of a small sym, alt or full ambient, with or
    without a tail; no generators gives the zero space.  At most 2^12
    elements: dimension <= 6 over F_2 and F_4, <= 5 over F_3, <= 4 over
    F_8."""
    kind = draw(st.sampled_from([KIND_SYM, KIND_ALT, KIND_FULL]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 2))
    amb = Ambient(field, kind, n, m)
    vec = st.tuples(*[st.integers(0, field.q - 1)] * amb.dim)
    size = {2: 6, 3: 5, 4: 6, 8: 4}[field.q]
    return space_from_coords(amb, draw(st.lists(vec, max_size=size)))


def _constraint_rows_for(space, coeffs, ann_row, stride):
    """The k F_p-rows forcing <a, F(s)> = 0 for one element s and one
    annihilator row a of its column space, built entry by entry."""
    f = space.ambient.field
    p, k = f.p, f.k
    n = space.ambient.nrows
    width = map_coord_width(space)
    lams = f.power_basis
    rows = [[0] * width for _ in range(k)]
    support = [j for j, c in enumerate(coeffs) if c]
    for i in range(n):
        ai = ann_row[i]
        if not ai:
            continue
        for u in range(k):
            digs = f.prime_coords(f.mul(ai, lams[u]))
            for j in support:
                cj = coeffs[j]
                idx = j * stride + i * k + u
                for w in range(k):
                    if digs[w]:
                        rows[w][idx] = (cj * digs[w]) % p
    return rows


def reference_element_walk(space, target=None):
    """The solve for every field as it was: walk the element matrices, take
    the canonical basis of each one's left kernel and fold the tuple rows of
    _constraint_rows_for, packed in characteristic 2 for the F_2
    accumulator; with a target the low-weight prefix comes first."""
    f = space.ambient.field
    n, ncols = space.ambient.nrows, space.ambient.ncols
    acc = make_accumulator(prime_field(space), map_coord_width(space))
    goal = _goal(acc, target)
    if goal == 0:
        return None
    packed = isinstance(acc, Gf2Accumulator)
    elements = iter_space_elements(space)
    if target is not None:
        mats = [m.entries for m in _prime_basis_matrices(space)]
        prefix = _low_weight_entries(f, mats, n * ncols)
        elements = chain(((c, Matrix(f, n, ncols, e)) for c, e in prefix), elements)
    for coeffs, mat in elements:
        if not any(coeffs):
            continue
        for a in left_kernel_rows(f, mat.entries, n, ncols):
            for row in _constraint_rows_for(space, coeffs, a, n * f.k):
                if not any(row):
                    continue
                if packed:
                    row = sum(1 << t for t, x in enumerate(row) if x)
                if acc.add(row) and acc.rank == goal and _cuts_out(acc, target):
                    return None
    return MapSpace(space, accumulator_kernel(prime_field(space), acc))


# 228 examples keep about as many spaces per field (57) as the
# characteristic-2 test this one extends had
@settings(max_examples=228, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F3, F4, F8]).flatmap(small_spaces))
@example(space_from_coords(Ambient(F2, KIND_SYM, 2, 1), []))
@example(full_space(Ambient(F2, KIND_ALT, 3, 1)))
@example(full_space(Ambient(F4, KIND_SYM, 2, 1)))
@example(full_space(Ambient(F8, KIND_FULL, 2, 2)))
@example(full_space(Ambient(F3, KIND_SYM, 2, 1)))
def test_solvers_match_element_walk_with_and_without_target(space):
    full = reference_element_walk(space)
    assert rc_solution_space(space) == full
    # local maps are range-compatible on every ambient, and standard maps on
    # symmetric ones, so they are valid targets for both walks, which fold
    # the low-weight prefix first and certify a target exactly when it is
    # all of RC
    targets = [local_generators(space)]
    if space.ambient.kind == KIND_SYM:
        targets.append(standard_generators(space))
    for gens in targets:
        want = None if full == gens.span() else full
        assert rc_solution_space(space, target=gens) == want
        assert reference_element_walk(space, target=gens) == want


def test_gf2_packed_solver_matches_element_walk_on_sym3_codim1():
    cases = list(enumerate_subspaces_up_to(Ambient(F2, KIND_SYM, 3, 0), 1))
    assert len(cases) == 64
    for s in cases:
        assert rc_solution_space(s) == reference_element_walk(s)


F7 = make_field(7)


@pytest.mark.parametrize("field", [F3, F5, F7, F9], ids=["f3", "f5", "f7", "f9"])
def test_pattern_walk_matches_tuple_row_reference(field):
    # the odd-characteristic solve reads cached patterns, the reference
    # builds each row entry by entry; both fold the same rows in order
    rng = random.Random(f"pattern-walk:{field.q}")
    max_gens = {3: 4, 5: 3, 7: 2, 9: 2}[field.q]
    spaces = [space_from_coords(Ambient(field, KIND_SYM, 2, 1), [])]
    for kind, n, m in [(KIND_SYM, 2, 1), (KIND_ALT, 3, 0), (KIND_FULL, 2, 2), (KIND_SYM, 3, 0)]:
        spaces.extend(_random_space(rng, Ambient(field, kind, n, m), max_gens) for _ in range(3))
    spaces.append(side_by_side(_random_space(rng, Ambient(field, KIND_SYM, 2, 0), 1),
                               _random_space(rng, Ambient(field, KIND_FULL, 2, 1), 1)))
    for space in spaces:
        full = reference_element_walk(space)
        assert rc_solution_space(space) == full
        targets = [local_generators(space)]
        if space.ambient.kind == KIND_SYM:
            targets.append(standard_generators(space))
        for gens in targets:
            want = reference_element_walk(space, target=gens)
            assert want == (None if full == gens.span() else full)
            assert rc_solution_space(space, target=gens) == want


@pytest.mark.parametrize(
    "amb, codim, target_of",
    [
        (Ambient(F2, KIND_SYM, 3, 0), 1, standard_generators),
        (Ambient(F3, KIND_SYM, 3, 0), 1, standard_generators),
        (Ambient(F2, KIND_ALT, 4, 0), 1, local_generators),
        (Ambient(F4, KIND_SYM, 2, 0), 1, standard_generators),
    ],
    ids=["sym3-f2", "sym3-f3", "alt4-f2", "sym2-f4"],
)
def test_certified_stop_matches_full_walk(amb, codim, target_of, full_walk):
    for s in enumerate_subspaces_up_to(amb, codim):
        target = target_of(s)
        full = full_walk(s)
        # when RC is the span of the target the walk must stop early,
        # returning None; otherwise it returns the exact RC
        want = None if full == target.span() else full
        assert rc_solution_space(s, target=target) == want


def test_certified_stop_runs_on_when_rc_exceeds_target():
    # the Frobenius block map makes RC strictly larger than the standard
    # maps, so the goal rank is never reached and the exact RC comes back
    s = build_sym_block(F4, 3)
    full = rc_solution_space(s)
    std = standard_generators(s)
    assert full.dim > std.rank == std.span().dim
    assert rc_solution_space(s, target=std) == full


def test_certified_stop_falls_back_over_f3():
    # a 5-dimensional subspace of Sym(4, 1) over F_3, far beyond the
    # codimension bound, found with the full walk: RC is larger than the
    # local (= standard) maps, and the elements of weight <= 4 alone leave a
    # kernel larger than RC, so the exact RC needs the rows of the fallback
    s = space_from_coords(
        Ambient(F3, KIND_SYM, 4, 1),
        [
            (1, 0, 0, 0, 0, 2, 2, 0, 2, 1, 1, 1, 1, 1),
            (0, 1, 0, 0, 0, 2, 0, 1, 1, 1, 1, 2, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 2, 2, 0, 1),
            (0, 0, 0, 1, 0, 0, 0, 1, 2, 1, 1, 0, 1, 0),
            (0, 0, 0, 0, 1, 2, 0, 0, 0, 2, 0, 0, 1, 1),
        ],
    )
    full = reference_element_walk(s)
    assert s.dim == 5 and full.dim == 6
    for gens in (local_generators(s), standard_generators(s)):
        assert gens.span().dim == 5
        assert rc_solution_space(s, target=gens) == full
        assert reference_element_walk(s, target=gens) == full


def _wrong_target(space, rc):
    """The standard maps with one basis vector swapped for a unit vector
    outside RC, as generators with a repeat: the rank of RC, but not all
    range-compatible."""
    assert standard_space(space) == rc
    width = map_coord_width(space)
    unit = next(
        v
        for v in (tuple(int(t == i) for t in range(width)) for i in range(width))
        if not rc.basis.member(v)
    )
    vecs = list(rc.basis.vectors[:-1]) + [unit]
    wrong = SubspaceBasis.from_vectors(rc.basis.field, width, vecs)
    assert wrong.dim == rc.dim and wrong != rc.basis
    gens = vecs + vecs[:1]
    if rc.basis.field.q == 2:  # the packed form the F_2 accumulator folds
        gens = [sum(x << t for t, x in enumerate(v)) for v in gens]
    return MapGenerators(space, tuple(gens), wrong.dim)


@pytest.mark.parametrize(
    "space",
    [
        build_full_sym(F2, 3),
        build_full_sym(F2, 2, 1),
        build_full_sym(F3, 3),
        build_full_sym(F4, 2),
        space_from_coords(Ambient(F2, KIND_SYM, 3, 0), [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1)]),
    ],
    ids=["sym3-f2", "sym2+1-f2", "sym3-f3", "sym2-f4", "sym3-f2-dim2"],
)
def test_certified_stop_never_returns_a_wrong_target(space):
    # never None: the walk runs to the end and returns the exact RC
    rc = rc_solution_space(space)
    wrong = _wrong_target(space, rc)
    assert rc_solution_space(space, target=wrong) == rc
    assert reference_element_walk(space, target=wrong) == rc


def test_certified_stop_rejects_a_target_on_another_domain():
    with pytest.raises(AmbientMismatch):
        rc_solution_space(
            build_full_sym(F2, 3), target=local_generators(build_full_sym(F2, 2))
        )


def _decoded_key(amb, vec):
    """The key of a matrix from its entries: k bits per entry, entry (i, c)
    at bit (i*ncols + c)*k."""
    k = amb.field.k
    return sum(x << (t * k) for t, x in enumerate(decode(amb, vec).entries))


@pytest.mark.parametrize("kind", [KIND_SYM, KIND_ALT, KIND_FULL])
def test_gf2_basis_keys_match_decoded_keys(kind):
    rng = random.Random(53)
    for field in (F2, F4, F8):
        for n in range(1, 5):
            for m in range(3):
                amb = Ambient(field, kind, n, m)
                # the full space's basis is every unit vector
                spaces = [full_space(amb)]
                spaces += [
                    space_from_coords(
                        amb,
                        [
                            tuple(rng.randrange(field.q) for _ in range(amb.dim))
                            for _ in range(rng.randrange(1, 4))
                        ],
                    )
                    for _ in range(10)
                ]
                for s in spaces:
                    # one key per prime basis matrix x^t b_i
                    want = tuple(_decoded_key(amb, v) for v in prime_basis_vectors(s))
                    assert _gf2_basis_keys(s) == want, (field, kind, n, m, s.basis.vectors)


def _generator_oracle(space, standard):
    """The span of the local maps s -> s (lam e_col) and, for standard, the
    diagonal root-linear maps, each built as an AdditiveMap."""
    f = space.ambient.field
    ncols = space.ambient.ncols
    vecs = [
        map_to_coords(local_map(space, tuple(lam if c == col else 0 for c in range(ncols))))
        for col in range(ncols)
        for lam in f.power_basis
    ]
    if standard:
        vecs += [map_to_coords(diag_root_linear_map(space, a)) for a in root_linear_forms(f)]
    return SubspaceBasis.from_vectors(make_field(f.p), map_coord_width(space), vecs)


@pytest.mark.parametrize("field", [F2, F3, F4, F8], ids=["f2", "f3", "f4", "f8"])
def test_generator_spans_match_map_oracle(field):
    rng = random.Random(59)
    ambients = [
        Ambient(field, kind, n, m)
        for kind in (KIND_SYM, KIND_ALT)
        for n in (2, 3)
        for m in (0, 1)
    ] + [Ambient(field, KIND_FULL, 2, 2), Ambient(field, KIND_FULL, 3, 1)]
    for amb in ambients:
        for _ in range(4):
            vecs = [
                tuple(rng.randrange(field.q) for _ in range(amb.dim))
                for _ in range(rng.randrange(0, 4))
            ]
            s = space_from_coords(amb, vecs)
            kinds = [(local_generators, local_space, False)]
            if amb.kind == KIND_SYM:
                kinds.append((standard_generators, standard_space, True))
            for build, canonical, standard in kinds:
                want = _generator_oracle(s, standard)
                gens = build(s)
                assert gens.domain == s
                assert gens.rank == want.dim
                assert gens.span().basis == want
                assert canonical(s).basis == want


@pytest.mark.parametrize("field", [F2, F4, F8], ids=["f2", "f4", "f8"])
def test_char2_generators_match_decoded_generators(field):
    rng = random.Random(61)
    for kind in (KIND_SYM, KIND_ALT, KIND_FULL):
        for n, m in ((0, 2), (1, 1), (2, 0), (2, 2), (3, 1)):
            amb = Ambient(field, kind, n, m)
            for _ in range(5):
                vecs = [
                    tuple(rng.randrange(field.q) for _ in range(amb.dim))
                    for _ in range(rng.randrange(0, 4))
                ]
                s = space_from_coords(amb, vecs)
                keys = _gf2_basis_keys(s)
                # diagonal maps are defined on symmetric blocks only
                for diagonal in (False, True) if kind == KIND_SYM else (False,):
                    want = [
                        sum(x << t for t, x in enumerate(g))
                        for g in _decoded_generators(s, diagonal)
                    ]
                    got = _char2_generators(field, keys, n, amb.ncols, diagonal)
                    assert got == want, (kind, n, m, diagonal, s.basis.vectors)


def _same_left_kernel(key, n, ncols):
    entries = tuple((key >> t) & 1 for t in range(n * ncols))
    memo = [tuple((c >> i) & 1 for i in range(n)) for c in _gf2_left_kernel(key, n, ncols)]
    want = left_kernel_rows(F2, entries, n, ncols)
    return SubspaceBasis.from_vectors(F2, n, memo) == SubspaceBasis.from_vectors(F2, n, want)


def _same_patterns(field, key):
    """The memoized patterns of the 2 x 2 matrix over field with key against
    the `_constraint_rows_for` rows of prime basis matrix 0, which sit in
    the first stride = n*k map coordinates."""
    k = field.k
    space = full_space(Ambient(field, KIND_FULL, 2, 2))
    width = map_coord_width(space)
    coeffs = (1,) + (0,) * (space.dim * k - 1)
    entries = tuple((key >> (t * k)) & (field.q - 1) for t in range(4))
    want = [
        row
        for a in left_kernel_rows(field, entries, 2, 2)
        for row in _constraint_rows_for(space, coeffs, a, 2 * k)
    ]
    memo = [
        tuple((c >> t) & 1 for t in range(width)) for c in _char2_patterns(field, key, 2, 2)
    ]
    return SubspaceBasis.from_vectors(F2, width, memo) == SubspaceBasis.from_vectors(
        F2, width, want
    )


def test_memoized_gf2_left_kernel_matches_left_kernel_rows():
    # interleave shapes and fields so a cache that ignored (n, ncols) or
    # the field would answer one with another's kernel
    for key in range(1 << 9):
        for n, ncols in ((3, 3), (1, 9), (9, 1)):
            assert _same_left_kernel(key, n, ncols), (key, n, ncols)
        if key < 1 << 6:
            for n, ncols in ((2, 3), (3, 2)):
                assert _same_left_kernel(key, n, ncols), (key, n, ncols)
        if key < 1 << 8:  # all 256 2 x 2 matrices over F_4
            assert _same_patterns(F4, key), key
            assert _same_patterns(F8, key), key
    s = build_full_sym(F2, 4)
    for _, mat in iter_space_elements(s):
        key = sum(1 << t for t, x in enumerate(mat.entries) if x)
        assert _same_left_kernel(key, 4, 4)


def test_memoized_left_kernel_matches_left_kernel_rows():
    # over F_p the patterns of _odd_rows are the left kernel rows; shapes
    # interleave so a cache that ignored (n, ncols) or the field would be caught
    rng = random.Random(5)
    for _ in range(300):
        field = rng.choice((F3, F5))
        n, ncols = rng.choice(((3, 3), (2, 4), (4, 2), (1, 5), (3, 4)))
        entries = tuple(
            rng.randrange(field.q) if rng.random() < 0.6 else 0 for _ in range(n * ncols)
        )
        for _ in range(2):  # a miss, then a hit
            got = _odd_patterns(field, entries, n, ncols)
            assert isinstance(got, tuple)
            assert list(got) == left_kernel_rows(field, entries, n, ncols)


def test_gf2_oracle_matches_generic_oracle():
    domains = (
        build_full_sym(F2, 2),
        build_full_sym(F2, 2, 1),
        build_t3(F2),
        build_full_alt(F2, 3),
    )
    for s in domains:
        assert sorted(_naive_rc_maps_gf2(s)) == sorted(_naive_rc_maps_generic(s))


def test_local_and_standard_are_range_compatible():
    for f, n in [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F4, 2)]:
        s = build_full_sym(f, n)
        rc = rc_solution_space(s)
        assert all(rc.basis.member(v) for v in local_space(s).basis.vectors)
        assert all(rc.basis.member(v) for v in standard_space(s).basis.vectors)


def test_is_range_compatible_spot_checks():
    s = build_full_sym(F2, 2)
    assert is_range_compatible(delta_map(s))
    assert is_range_compatible(local_map(s, (1, 1)))
    assert is_range_compatible(zero_map(s))
    # constant-direction map that ignores the matrix is not range-compatible
    bad = AdditiveMap(s, ((1, 0), (1, 0), (1, 0)))
    assert not is_range_compatible(bad)
    with pytest.raises(DomainTooLarge):
        is_range_compatible(zero_map(s), cap=3)
    with pytest.raises(DomainTooLarge):
        rc_solution_space(s, cap=3)


def reference_is_range_compatible(f_map):
    """is_range_compatible as it was: one solve of s x = F(s) per element."""
    for coeffs, mat in iter_space_elements(f_map.domain):
        value = evaluate_at_coeffs(f_map, coeffs)
        if any(value) and solve(mat, value) is None:
            return False
    return True


def _random_rc_map(space, rng):
    """A random member of the solved range-compatible space."""
    coords = [0] * map_coord_width(space)
    p = space.ambient.field.p
    for vec in rc_solution_space(space).basis.vectors:
        c = rng.randrange(p)
        coords = [(x + c * v) % p for x, v in zip(coords, vec)]
    return map_from_coords(space, tuple(coords))


def _nudged(f_map, rng):
    """f_map with one entry of one prime-basis value changed: a map that
    fails range-compatibility, if at all, on few elements."""
    f = f_map.domain.ambient.field
    values = [list(v) for v in f_map.values]
    j, i = rng.randrange(len(values)), rng.randrange(len(values[0]))
    values[j][i] = f.add(values[j][i], rng.randrange(1, f.q))
    return AdditiveMap(f_map.domain, tuple(tuple(v) for v in values))


def _random_space(rng, amb, max_gens):
    gens = [tuple(rng.randrange(amb.field.q) for _ in range(amb.dim)) for _ in range(max_gens)]
    return space_from_coords(amb, gens[: rng.randint(0, max_gens)])


def _check_spaces(field, rng):
    """Small random spaces over field, their side-by-side products with a
    random rectangle space, and a zero space."""
    max_dim = {2: 4, 3: 3, 4: 3, 5: 2, 8: 2, 9: 2}[field.q]
    out = [space_from_coords(Ambient(field, KIND_SYM, 2, 1), [])]
    for kind, n, m in [(KIND_SYM, 2, 1), (KIND_ALT, 3, 0), (KIND_FULL, 2, 2), (KIND_SYM, 3, 0)]:
        out.extend(_random_space(rng, Ambient(field, kind, n, m), max_dim) for _ in range(3))
    for _ in range(3):
        left = _random_space(rng, Ambient(field, KIND_SYM, 2, 0), 2)
        right = _random_space(rng, Ambient(field, KIND_FULL, 2, 1), max_dim - 2)
        out.append(side_by_side(left, right))
    return out


@pytest.mark.parametrize(
    "field", [F2, F3, F4, F5, F8, F9], ids=["f2", "f3", "f4", "f5", "f8", "f9"]
)
def test_is_range_compatible_matches_solve_reference(field):
    rng = random.Random(f"range-check:{field.q}")
    verdicts = {True: 0, False: 0}
    for space in _check_spaces(field, rng):
        rc_map = _random_rc_map(space, rng)
        assert is_range_compatible(rc_map) and reference_is_range_compatible(rc_map)
        verdicts[True] += 1
        if space.dim == 0:
            continue
        for f_map in (random_map(space, rng), _nudged(rc_map, rng), _nudged(rc_map, rng)):
            want = reference_is_range_compatible(f_map)
            assert is_range_compatible(f_map) == want
            verdicts[want] += 1
    assert verdicts[False] > 0


def _violates(row, coords, p):
    """Whether the map coordinates coords fail one constraint row, packed
    or a tuple."""
    if isinstance(row, int):
        row = tuple((row >> t) & 1 for t in range(len(coords)))
    return sum(a * b for a, b in zip(row, coords)) % p != 0


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=["f2", "f3", "f4", "f9"])
def test_is_range_compatible_stops_within_the_failing_elements_rows(field, monkeypatch):
    # F(u_0) lies outside the column space of u_0, the first element both
    # walks visit, and F vanishes on the other prime basis vectors: the
    # check draws no row past those of u_0, and stops at the first row
    # that F violates
    space = full_space(Ambient(field, KIND_SYM, 2, 1))
    n, ncols = space.ambient.nrows, space.ambient.ncols
    kernel = left_kernel_rows(field, _prime_basis_matrices(space)[0].entries, n, ncols)
    i = next(i for i, x in enumerate(kernel[0]) if x)
    value = tuple(int(t == i) for t in range(n))
    f_map = AdditiveMap(space, (value,) + zero_map(space).values[1:])
    rows = rcmaps._constraint_rows
    drawn = []

    def counted(space, prefix):
        for row in rows(space, prefix):
            drawn.append(row)
            yield row

    monkeypatch.setattr(rcmaps, "_constraint_rows", counted)
    assert not is_range_compatible(f_map)
    coords = map_to_coords(f_map)
    assert 1 <= len(drawn) <= len(kernel) * field.k
    assert [_violates(r, coords, field.p) for r in drawn] == [False] * (len(drawn) - 1) + [True]
    assert len(drawn) < len(list(rows(space, False)))


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["f2", "f3", "f4"])
def test_is_range_compatible_checks_the_cap_before_any_walk(field, monkeypatch):
    def walked(*args):
        raise AssertionError("walked a domain above the cap")

    for name in ("_gf2_basis_keys", "_prime_basis_matrices", "_odometer", "iter_space_elements"):
        monkeypatch.setattr(rcmaps, name, walked)
    space = full_space(Ambient(field, KIND_SYM, 2, 0))
    with pytest.raises(DomainTooLarge):
        is_range_compatible(zero_map(space), cap=field.q**space.dim - 1)


@pytest.mark.parametrize("field", [F2, F3, F4, F8], ids=["f2", "f3", "f4", "f8"])
@pytest.mark.parametrize("kind", [KIND_SYM, KIND_ALT, KIND_FULL])
def test_prime_basis_matrices_decode_the_prime_basis(field, kind):
    amb = Ambient(field, kind, 3, 1)
    ramp = tuple(t % field.q for t in range(1, amb.dim + 1))
    space = space_from_coords(amb, [ramp, (1,) * amb.dim])
    want = tuple(decode(amb, v) for v in prime_basis_vectors(space))
    assert _prime_basis_matrices(space) == want


# -- locality ---------------------------------------------------------------


def test_local_space_dimension_on_full_spaces():
    assert local_space(build_full_sym(F2, 2)).dim == 2
    assert local_space(build_full_sym(F3, 3)).dim == 3
    assert local_space(build_full_sym(F4, 2)).dim == 4  # ncols * k
    assert local_space(build_full_alt(F3, 3)).dim == 3
    assert local_space(build_full_sym(F2, 2, 1)).dim == 3
    # zero space has only the empty map
    z = space_from_coords(Ambient(F2, "sym", 2, 0), [])
    assert local_space(z).dim == 0


def test_is_local_accepts_evaluations():
    rng = random.Random(29)
    for f in (F2, F3, F4):
        for s in (build_full_sym(f, 2), build_full_alt(f, 3), build_full_sym(f, 2, 1)):
            x = tuple(rng.randrange(f.q) for _ in range(s.ambient.ncols))
            w = is_local(local_map(s, x))
            assert w is not None
            for _, m in iter_space_elements(s):
                assert m.mat_vec(w) == m.mat_vec(x)


def test_is_local_rejects_delta():
    assert is_local(delta_map(build_full_sym(F2, 2))) is None
    assert is_local(delta_map(build_full_sym(F2, 3))) is None


def test_is_local_verification_phase_catches_semilinear_maps():
    # Frobenius of the (1,1) entry: agrees with evaluation at e_1 on the
    # K-basis but not on x * basis, so the verify pass must reject it.
    s = build_sym_block(F4, 3)
    fm = map_from_function(s, lambda m: (F4.frobenius(m.entry(0, 0)), 0, 0))
    assert is_local(fm) is None
    assert is_range_compatible(fm)
    assert not is_linear(fm)


# -- root-linear and standard maps ------------------------------------------


def test_root_linear_forms_basis():
    assert [form.table for form in root_linear_forms(F2)] == [(0, 1)]
    forms = root_linear_forms(F4)
    assert len(forms) == 2
    tables = [form.table for form in forms]
    assert len(set(tables)) == 2
    assert root_linear_forms(F3) == ()
    with pytest.raises(CharacteristicMismatch):
        root_linear_form(F3, 1)
    # built once per field: the same tuple comes back
    assert root_linear_forms(F4) is forms
    # the scaling law in F_4: alpha(c^2 x) = c alpha(x)
    for form in forms:
        for c in range(4):
            for x in range(4):
                assert form(F4.mul(F4.mul(c, c), x)) == F4.mul(c, form(x))


def test_diag_root_linear_maps_are_rc_and_standard():
    for f in (F2, F4):
        for n in (2, 3):
            s = build_full_sym(f, n)
            for form in root_linear_forms(f):
                dm = diag_root_linear_map(s, form)
                assert is_range_compatible(dm)
                assert is_standard(dm)
    with pytest.raises(AmbientMismatch):
        diag_root_linear_map(build_full_alt(F2, 3), root_linear_forms(F2)[0])


def test_standard_space_dimension_split():
    # standard = local + one diagonal map per root-linear basis form
    for f, n in [(F2, 2), (F2, 3), (F4, 2), (F4, 3)]:
        s = build_full_sym(f, n)
        assert standard_space(s).dim == local_space(s).dim + f.k
    for f, n in [(F3, 2), (F3, 3)]:
        s = build_full_sym(f, n)
        assert standard_space(s).dim == local_space(s).dim


def test_frobenius_block_map_is_rc_not_standard():
    s = build_sym_block(F4, 3)
    fm = map_from_function(s, lambda m: (F4.frobenius(m.entry(0, 0)), 0, 0))
    assert is_range_compatible(fm)
    assert not is_standard(fm)


def test_is_standard_needs_symmetric_ambient():
    with pytest.raises(AmbientMismatch):
        standard_space(build_full_alt(F2, 3))


# -- linearity --------------------------------------------------------------


def test_linearity_over_prime_fields_is_automatic():
    for f in (F2, F3):
        s = build_full_sym(f, 2)
        assert linear_maps_space(s).dim == len(map_to_coords(zero_map(s)))
        rng = random.Random(31)
        assert is_linear(random_map(s, rng))


def reference_is_linear(f_map):
    """Exhaustive check of F(c s) = c F(s) over scalars c and a K-basis."""
    space = f_map.domain
    f = space.ambient.field
    for b in space.basis.vectors:
        fb = evaluate_at_coeffs(f_map, prime_coeffs_of(space, b))
        for c in range(f.q):
            scaled = tuple(f.mul(c, x) for x in b)
            want = tuple(f.mul(c, x) for x in fb)
            if evaluate_at_coeffs(f_map, prime_coeffs_of(space, scaled)) != want:
                return False
    return True


def test_linear_maps_space_agrees_with_is_linear_on_f4():
    rng = random.Random(37)
    s = build_full_sym(F4, 2)
    lin = linear_maps_space(s)
    hits = 0
    for _ in range(60):
        fm = random_map(s, rng)
        member = lin.contains_coords(map_to_coords(fm))
        assert member == reference_is_linear(fm) == is_linear(fm)
        hits += member
    for v in lin.basis.vectors:
        assert reference_is_linear(map_from_coords(s, v))
    assert reference_is_linear(local_map(s, (2, 3)))
    assert not reference_is_linear(delta_map(s))


def _intersection(a, b):
    """The common vectors of two subspaces of one space: the annihilator of
    the sum of their annihilators."""
    both = annihilator(a).vectors + annihilator(b).vectors
    return annihilator(SubspaceBasis.from_vectors(a.field, a.ambient_dim, both))


@pytest.mark.parametrize("field", [F4, F8, F9], ids=["f4", "f8", "f9"])
def test_linear_rc_space_is_the_intersection_with_the_linear_maps(field):
    # rc stands for any subspace of map coordinates: linear_rc_space is the
    # intersection of it with the linear maps, whatever it holds
    rng = random.Random(field.q)
    for amb in (Ambient(field, KIND_SYM, 2, 0), Ambient(field, KIND_ALT, 3, 0)):
        for _ in range(8):
            vecs = [tuple(rng.randrange(amb.field.q) for _ in range(amb.dim))
                    for _ in range(rng.randrange(1, 3))]
            s = space_from_coords(amb, vecs)
            lin = linear_maps_space(s).basis
            fp, width = prime_field(s), map_coord_width(s)
            for size in (0, 1, width // 2, width - 1, width):
                gens = [tuple(rng.randrange(fp.q) for _ in range(width)) for _ in range(size)]
                # half the draws mix in linear maps, so the intersection is not only 0
                gens += rng.sample(lin.vectors, min(len(lin.vectors), size // 2))
                rc = SubspaceBasis.from_vectors(fp, width, gens)
                got = linear_rc_space(MapSpace(s, rc))
                assert got.domain == s
                assert got.basis == _intersection(rc, lin), (amb, s.basis, size)


def test_linear_rc_space_on_alternating_spaces():
    # linear range-compatible maps on full alternating spaces are local
    for f, n in [(F2, 3), (F3, 3), (F4, 3), (F2, 4), (F4, 2)]:
        s = build_full_alt(f, n)
        assert linear_rc_space(rc_solution_space(s)).basis == local_space(s).basis


# -- quotients and products -------------------------------------------------


def test_quotient_map_commutes_with_projection():
    s = build_full_sym(F2, 3)
    w = SubspaceBasis.from_vectors(F2, 3, [(0, 0, 1)])
    p = quotient_projection(s, w)
    fm = local_map(s, (1, 1, 0))
    g = quotient_map(fm, w)
    assert is_local(g) is not None
    for _, m in iter_space_elements(s):
        pm = p.matmul(m)
        assert evaluate(g, pm) == tuple(p.mat_vec(evaluate(fm, m)))


def test_quotient_map_ill_defined():
    s = build_full_sym(F2, 2)
    w = SubspaceBasis.from_vectors(F2, 2, [(0, 1)])
    # send E_22 (killed by the projection) somewhere the projection sees
    values = {(0, 1, 0): (1, 0)}
    fm = AdditiveMap(
        s, tuple(values.get(u, (0, 0)) for u in prime_basis_vectors(s))
    )
    with pytest.raises(IllDefined):
        quotient_map(fm, w)
    # the delta map, by contrast, descends here
    g = quotient_map(delta_map(s), w)
    assert g.domain.ambient.nrows == 1


def reference_quotient_map(f_map, w, p_mat=None):
    """quotient_map as it was: the kernel of phi from kernel_basis, and one
    solve per basis vector of quotient_space for a preimage."""
    space = f_map.domain
    f = space.ambient.field
    p_mat = quotient_projection(space, w) if p_mat is None else p_mat
    q_space = quotient_space(space, w, p_mat)
    table = projection_table(space.ambient, p_mat)
    images = [table.mat_vec(b) for b in space.basis.vectors]
    phi_cols = matrix_from_rows(f, images).transpose() if images else Matrix(f, table.rows, 0, ())
    for gamma in kernel_basis(phi_cols).vectors:
        if any(any(p_mat.mat_vec(v)) for v in rcmaps._values_on_line(f_map, gamma)):
            raise IllDefined("map does not vanish where the projection does")
    values = []
    for qb in q_space.basis.vectors:
        gamma = solve(phi_cols, qb)
        assert gamma is not None
        values.extend(p_mat.mat_vec(v) for v in rcmaps._values_on_line(f_map, gamma))
    return AdditiveMap(q_space, tuple(values))


def _random_w(rng, field, n, low=0, high=None):
    """A random subspace of K^n spanned by between low and high vectors."""
    count = rng.randint(low, n if high is None else high)
    vecs = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(count)]
    return SubspaceBasis.from_vectors(field, n, vecs)


def _quotient_or_ill(quotient, f_map, w):
    try:
        return quotient(f_map, w)
    except IllDefined:
        return "ill-defined"


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9], ids=lambda f: f"q{f.q}")
def test_quotient_map_matches_reference(field):
    rng = random.Random(f"quotient:{field.q}")
    max_gens = {2: 4, 3: 3, 4: 3, 5: 2, 8: 2, 9: 2}[field.q]
    seen = {True: 0, False: 0}
    for kind, n, m in [(KIND_SYM, 2, 1), (KIND_ALT, 3, 0), (KIND_FULL, 2, 2), (KIND_SYM, 3, 0)]:
        amb = Ambient(field, kind, n, m)
        spaces = [space_from_coords(amb, []), full_space(amb)] if amb.dim <= 4 else []
        spaces += [_random_space(rng, amb, max_gens) for _ in range(3)]
        for space in spaces:
            ws = [SubspaceBasis.zero(field, n), SubspaceBasis.full(field, n)]
            ws += [_random_w(rng, field, n, 1, n - 1) for _ in range(2)]
            if space.dim * field.k > 8:
                maps = [random_map(space, rng)]
            else:
                maps = [_random_rc_map(space, rng), random_map(space, rng)]
            for f_map in maps:
                for w in ws:
                    want = _quotient_or_ill(reference_quotient_map, f_map, w)
                    assert _quotient_or_ill(quotient_map, f_map, w) == want
                    seen[want == "ill-defined"] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9], ids=lambda f: f"q{f.q}")
def test_carried_projection_walk_matches_the_matrices(field):
    rng = random.Random(f"carried:{field.q}")
    for kind, n, m in [(KIND_SYM, 2, 1), (KIND_ALT, 3, 0), (KIND_FULL, 3, 1), (KIND_SYM, 3, 0)]:
        amb = Ambient(field, kind, n, m)
        for _ in range(3):
            space = _random_space(rng, amb, 2 if field.q > 3 else 3)
            f_map = random_map(space, rng)
            w = _random_w(rng, field, n)
            p = quotient_projection(space, w)
            want = [
                (p.matmul(mat), p.mat_vec(evaluate_at_coeffs(f_map, coeffs)))
                for coeffs, mat in iter_space_elements(space)
            ]
            assert list(iter_projected(f_map, p)) == want


def test_line_checks_scale_by_every_power_basis_element():
    # over F_4, F(x E_22) = e_1 and F(E_22) = 0: only the scaled element shows
    # that F(M)_1 depends on row 2, and that F does not descend along e_2
    s = build_full_sym(F4, 2)
    x_e22 = (0, F4.power_basis[1], 0)
    fm = AdditiveMap(
        s, tuple((1, 0) if u == x_e22 else (0, 0) for u in prime_basis_vectors(s))
    )
    assert not respects_row_decomposition(fm)
    with pytest.raises(IllDefined):
        quotient_map(fm, SubspaceBasis.from_vectors(F4, 2, [(0, 1)]))


def test_join_of_delta_and_zero_is_rc_not_local():
    f_part = delta_map(build_full_sym(F2, 2))
    g_part = zero_map(build_full_rect(F2, 2, 1))
    joined = join_maps(f_part, g_part)
    assert joined.domain == build_full_sym(F2, 2, 1)
    assert is_range_compatible(joined)
    assert is_local(joined) is None


def test_split_join_round_trips():
    rng = random.Random(41)
    for f in (F2, F3):
        a = build_full_sym(f, 2)
        b = build_full_rect(f, 2, 2)
        fa, gb = random_map(a, rng), random_map(b, rng)
        joined = join_maps(fa, gb)
        fa2, gb2 = split_map(joined)
        assert fa2 == fa and gb2 == gb
        s = side_by_side(a, b)
        fm = random_map(s, rng)
        rejoined = join_maps(*split_map(fm))
        assert rejoined == fm
    with pytest.raises(AmbientMismatch):
        split_map(random_map(build_full_sym(F2, 2, 1), rng))


def test_split_of_join_on_equal_but_distinct_factors():
    # side_by_side is cached, so a product built from equal factors is the
    # one built first and remembers those factors, which equal the caller's
    rng = random.Random(45)
    for f in (F2, F3, F4):
        gens_a = [tuple(rng.randrange(f.q) for _ in range(3)) for _ in range(2)]
        gens_b = [tuple(rng.randrange(f.q) for _ in range(2)) for _ in range(2)]
        a1, a2 = (space_from_coords(Ambient(f, KIND_SYM, 2, 0), gens_a) for _ in range(2))
        b1, b2 = (space_from_coords(Ambient(f, KIND_FULL, 2, 1), gens_b) for _ in range(2))
        assert a1 == a2 and a1 is not a2 and b1 == b2 and b1 is not b2
        prod = side_by_side(a1, b1)
        fa, gb = random_map(a2, rng), random_map(b2, rng)
        joined = join_maps(fa, gb)
        assert joined.domain is prod and prod.product_of[0] is a1
        assert split_map(joined) == (fa, gb)
        assert join_maps(*split_map(joined)) == joined


def test_join_rc_and_local_equivalences():
    rng = random.Random(43)
    a = build_full_sym(F2, 2)
    b = build_full_rect(F2, 2, 1)
    rc_seen = {True: 0, False: 0}
    for _ in range(60):
        fa, gb = random_map(a, rng), random_map(b, rng)
        joined = join_maps(fa, gb)
        both = is_range_compatible(fa) and is_range_compatible(gb)
        assert is_range_compatible(joined) == both
        rc_seen[both] += 1
        f_loc, g_loc = is_local(fa), is_local(gb)
        j_loc = is_local(joined)
        assert (j_loc is not None) == (f_loc is not None and g_loc is not None)
    assert rc_seen[True] and rc_seen[False]


# -- oracle edge cases and JSON ----------------------------------------------


def test_naive_oracle_cap():
    with pytest.raises(DomainTooLarge):
        naive_rc_maps(build_full_sym(F2, 2), cap=10)
    z = space_from_coords(Ambient(F2, "sym", 2, 0), [])
    assert naive_rc_maps(z) == [()]


def test_map_json_round_trip():
    rng = random.Random(47)
    s = build_full_sym(F4, 2)
    fm = random_map(s, rng)
    obj = map_to_json(fm)
    assert map_from_json(obj) == fm
    assert map_from_json({"values": obj["values"]}, space=s) == fm


# -- row decomposition ---------------------------------------------------------


def test_rc_maps_decompose_row_wise():
    """Each output entry of a range-compatible map depends only on the
    matching row; cross-checked by tabulating (row, entry) pairs over every
    element of small domains."""
    domains = [
        build_full_sym(F2, 2),
        build_full_sym(F3, 2),
        build_full_alt(F3, 3),
        build_sym_block(F4, 3),
        build_full_rect(F2, 2, 2),
        space_from_coords(Ambient(F2, "sym", 2, 1), [(1, 0, 1, 0, 1), (0, 1, 0, 1, 0)]),
    ]
    rng = random.Random(31)
    for space in domains:
        rc = rc_solution_space(space)
        amb = space.ambient
        for vec in rc.basis.vectors:
            fm = map_from_coords(space, vec)
            assert respects_row_decomposition(fm), (amb.kind, amb.field.label)
            # independent route: same row always produces the same entry
            tables = [dict() for _ in range(amb.nrows)]
            for coeffs, mat in iter_space_elements(space):
                val = evaluate_at_coeffs(fm, coeffs)
                for i in range(amb.nrows):
                    key = mat.row_tuple(i)
                    assert tables[i].setdefault(key, val[i]) == val[i]
        # random prime-field combinations of solutions decompose too
        for _ in range(5):
            coords = [0] * map_coord_width(space)
            p = amb.field.p
            for vec in rc.basis.vectors:
                c = rng.randrange(p)
                for j, v in enumerate(vec):
                    coords[j] = (coords[j] + c * v) % p
            assert respects_row_decomposition(map_from_coords(space, tuple(coords)))


def test_row_mixing_map_fails_decomposition():
    # sends the bottom-right entry to the top output entry: not range-
    # compatible, and both detection routes must reject it
    space = build_full_sym(F2, 2)
    fm = map_from_function(space, lambda mat: (mat.entry(1, 1), 0))
    assert not respects_row_decomposition(fm)
    assert not is_range_compatible(fm)
    seen = {}
    consistent = True
    for coeffs, mat in iter_space_elements(space):
        val = evaluate_at_coeffs(fm, coeffs)
        key = mat.row_tuple(0)
        if seen.setdefault(key, val[0]) != val[0]:
            consistent = False
    assert not consistent
