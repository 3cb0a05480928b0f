"""Additive maps on operator spaces and range-compatibility machinery.

An additive map F : S -> K^n (S an OperatorSpace of matrices with n rows) is
stored by its values on the prime basis of S: if b_1, ..., b_d is the
canonical K-basis of S and 1, x, ..., x^{k-1} the power basis of K over its
prime field F_p, the prime basis vectors are u_{i*k+t} = x^t * b_i and every
element of S is a unique F_p-combination of them.  Additivity makes a map
F_p-linear, so F is determined by (and free on) its values at the u_j.

Everything here reduces questions about such maps to F_p-linear algebra:

* F is range-compatible when F(s) lies in the column space of s for every
  s in S.  The solution set of that condition is the kernel of explicit
  F_p-linear constraints (one batch per pair (s, annihilator row of s)),
  which `_constraint_rows` yields from one walk per characteristic: in
  characteristic 2 a packed-bitset walk in Gray-code order over the prime
  basis, in odd characteristic an odometer walk over the element entries,
  each step adding the entries of one prime basis matrix, with tuple rows
  from the cached constraint patterns of each matrix (`_odd_patterns`).
  The solver (`rc_solution_space`) folds the rows into a kernel; given a
  target space of maps known to be range-compatible, it takes the elements
  of low weight (support size in the prime basis, up to _PREFIX_WEIGHT),
  one per F_p-line, first, and stops once the rows certify that the target
  is all of RC.  The check (`is_range_compatible`) tests a map's
  coordinates against the rows.
* F is local when it is evaluation at a fixed vector, F(s) = s x.
* In characteristic 2 the diagonal maps s -> alpha(diag of the symmetric
  block) for root-linear alpha (additive with alpha(c^2 x) = c alpha(x))
  are range-compatible without being local; together with local maps they
  span the "standard" maps on symmetric-block spaces.

A brute-force oracle that filters all p^(coordinate count) additive maps is
included for cross-checking the solver on small domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, product

from .errors import (
    AmbientMismatch,
    CharacteristicMismatch,
    DomainTooLarge,
    IllDefined,
    MixedFields,
    NotInDomain,
)
from .field import FieldSpec, make_field
from .linalg import (
    Gf2Accumulator,
    Matrix,
    SubspaceBasis,
    accumulator_kernel,
    annihilator,
    echelonize,
    kernel_basis,
    left_kernel_rows,
    make_accumulator,
    pack,
    solve,
    tracked_echelon,
    unpack,
)
from .opspace import (
    KIND_FULL,
    KIND_SYM,
    Ambient,
    OperatorSpace,
    decode,
    encode,
    layout,
    place_in_product,
    product_coords,
    projection_table,
    quotient_projection,
    quotient_space,  # not called: perfbench/tracer.py patches rcmaps's name
    side_by_side,
    space_from_json,
)

DEFAULT_ELEMENT_CAP = 1 << 20

# sym4-f2 on a 2-CPU Xeon: wall_s 0.745 s -> 0.370 s; 37 of its 1,024 cases need weight 4
_PREFIX_WEIGHT = 4


def element_cap(cap: int | None = None) -> int:
    """Resolve an exhaustive-walk cap: explicit value, else 2^20."""
    return DEFAULT_ELEMENT_CAP if cap is None else cap


def prime_field(space: OperatorSpace) -> FieldSpec:
    return make_field(space.ambient.field.p)


def map_coord_width(space: OperatorSpace) -> int:
    k = space.ambient.field.k
    return space.dim * k * space.ambient.nrows * k


def iter_space_elements(space: OperatorSpace):
    """Yield (prime_coeffs, matrix) for all q^dim elements, odometer order:
    each step adds the entries of one prime basis matrix (see _odometer)."""
    amb = space.ambient
    f = amb.field
    entries = [m.entries for m in _prime_basis_matrices(space)]
    for digits, cur in _odometer(f, entries, amb.nrows * amb.ncols):
        yield digits, Matrix(f, amb.nrows, amb.ncols, cur)


def _odometer(f: FieldSpec, vectors, width: int):
    """Yield (prime_coeffs, sum of coeffs_j times vectors_j) for every
    F_p-combination of the flat vectors of length width, zero first, the
    first coefficient counting fastest: each step adds one vector."""
    p = f.p
    supports = [[(t, x) for t, x in enumerate(v) if x] for v in vectors]
    d = len(supports)
    digits = [0] * d
    cur = [0] * width
    yield tuple(digits), tuple(cur)
    add = f.add_table
    for _ in range(p**d - 1):
        j = 0
        while True:
            for t, val in supports[j]:
                cur[t] = add[cur[t]][val]
            digits[j] += 1
            if digits[j] == p:
                digits[j] = 0
                j += 1
            else:
                break
        yield tuple(digits), tuple(cur)


@dataclass(frozen=True, slots=True)
class AdditiveMap:
    """An additive map S -> K^n given by its values on the prime basis of S."""

    domain: OperatorSpace
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        f = self.domain.ambient.field
        n = self.domain.ambient.nrows
        if len(self.values) != self.domain.dim * f.k:
            raise AmbientMismatch(
                f"need {self.domain.dim * f.k} prime-basis values, got {len(self.values)}"
            )
        for v in self.values:
            if len(v) != n or any(not 0 <= x < f.q for x in v):
                raise AmbientMismatch("value outside K^n")


def random_map(space: OperatorSpace, rng) -> AdditiveMap:
    f = space.ambient.field
    n = space.ambient.nrows
    return AdditiveMap(
        space,
        tuple(
            tuple(rng.randrange(f.q) for _ in range(n))
            for _ in range(space.dim * f.k)
        ),
    )


def map_from_function(space: OperatorSpace, fn) -> AdditiveMap:
    """Build a map from a function on matrices, sampled on the prime basis.

    The result is the unique additive map agreeing with fn there; fn itself
    is not checked for additivity.
    """
    values = [tuple(fn(m)) for m in _prime_basis_matrices(space)]
    return AdditiveMap(space, tuple(values))


def prime_coeffs_of(space: OperatorSpace, coords) -> tuple[int, ...]:
    """F_p-coordinates of an element of S in the prime basis."""
    gamma = space.basis.coords_of(coords)
    if gamma is None:
        raise NotInDomain("matrix is not in the map's domain")
    return _coords_of_values(space.ambient.field, (gamma,))


def evaluate_at_coeffs(f_map: AdditiveMap, coeffs) -> tuple[int, ...]:
    """F at the element with these prime coefficients: the sum of c_j times
    F(u_j), read from the field tables (a prime coefficient c is the field
    element c * 1)."""
    f = f_map.domain.ambient.field
    add, mul = f.add_table, f.mul_table
    acc = [0] * f_map.domain.ambient.nrows
    for c, val in zip(coeffs, f_map.values):
        if c:
            times = mul[c]
            for i, x in enumerate(val):
                if x:
                    acc[i] = add[acc[i]][times[x]]
    return tuple(acc)


def _values_on_line(f_map: AdditiveMap, gamma) -> list[tuple[int, ...]]:
    """F(lam s) for each lam of the power basis, s = sum of gamma_i b_i."""
    f = f_map.domain.ambient.field
    return [
        evaluate_at_coeffs(f_map, _coords_of_values(f, ([f.mul_table[lam][g] for g in gamma],)))
        for lam in f.power_basis
    ]


def evaluate(f_map: AdditiveMap, mat: Matrix) -> tuple[int, ...]:
    """F(mat) in K^n; raises NotInDomain outside the domain."""
    space = f_map.domain
    if mat.field is not space.ambient.field:
        raise MixedFields("matrix over a different field")
    return evaluate_at_coeffs(f_map, prime_coeffs_of(space, encode(space.ambient, mat)))


def map_to_coords(f_map: AdditiveMap) -> tuple[int, ...]:
    """Flatten to F_p-coordinates: index (j*n + i)*k + t is the t-th prime
    coordinate of F(u_j)_i."""
    return _coords_of_values(f_map.domain.ambient.field, f_map.values)


def _coords_of_values(f: FieldSpec, values) -> tuple[int, ...]:
    """map_to_coords for prime-basis values that are not wrapped in a map."""
    if f.k == 1:  # an element of a prime field is its own prime coordinate
        return tuple(x for val in values for x in val)
    out = []
    for val in values:
        for x in val:
            out.extend(f.prime_coords(x))
    return tuple(out)


def map_from_coords(space: OperatorSpace, coords) -> AdditiveMap:
    f = space.ambient.field
    n, k = space.ambient.nrows, f.k
    d = space.dim * k
    if len(coords) != d * n * k:
        raise AmbientMismatch(f"need {d * n * k} coordinates, got {len(coords)}")
    values = []
    pos = 0
    for _ in range(d):
        row = []
        for _ in range(n):
            row.append(f.from_prime_coords(tuple(coords[pos : pos + k])))
            pos += k
        values.append(tuple(row))
    return AdditiveMap(space, tuple(values))


def _check_cap(space: OperatorSpace, cap: int | None) -> None:
    """Raise DomainTooLarge when the space has more elements than the cap."""
    size = space.ambient.field.q**space.dim
    limit = element_cap(cap)
    if size > limit:
        raise DomainTooLarge(f"{size} elements exceeds cap {limit}")


def is_range_compatible(f_map: AdditiveMap, cap: int | None = None) -> bool:
    """Exhaustively test F(s) in column space of s for all s in the domain:
    the rows of `_constraint_rows` cut out exactly the range-compatible maps
    (see rc_solution_space), so F is one exactly when its map coordinates
    satisfy every row.  The element cap is checked before the walk."""
    space = f_map.domain
    _check_cap(space, cap)
    coords = map_to_coords(f_map)
    rows = _constraint_rows(space, False)
    p = space.ambient.field.p
    if p == 2:
        packed = pack(coords)
        for row in rows:
            if (row & packed).bit_count() & 1:
                return False
    else:
        for row in rows:
            if sum([a * b for a, b in zip(row, coords)]) % p:
                return False
    return True


@dataclass(frozen=True, slots=True)
class MapSpace:
    """An F_p-subspace of additive maps on one domain, in map coordinates."""

    domain: OperatorSpace
    basis: SubspaceBasis

    @property
    def dim(self) -> int:
        return self.basis.dim

    def contains_coords(self, coords) -> bool:
        return self.basis.member(coords)

    def contains_map(self, f_map: AdditiveMap) -> bool:
        if f_map.domain != self.domain:
            raise AmbientMismatch("map lives on a different domain")
        return self.basis.member(map_to_coords(f_map))


@dataclass(frozen=True, slots=True)
class MapGenerators:
    """Generators of a space of additive maps on one domain, not reduced.

    Each generator is in the form the solver folds its constraint rows in: a
    packed int with bit t for map coordinate t in characteristic 2, a tuple
    of map coordinates otherwise.  rank is the dimension of their span.
    """

    domain: OperatorSpace
    vectors: tuple
    rank: int

    def span(self) -> MapSpace:
        """The canonical basis of their span."""
        fp = prime_field(self.domain)
        width = map_coord_width(self.domain)
        vecs = self.vectors
        if fp.q == 2:
            vecs = [unpack(g, width) for g in vecs]
        return MapSpace(self.domain, SubspaceBasis.from_vectors(fp, width, vecs))


def rc_solution_space(
    space: OperatorSpace, cap: int | None = None, target: MapGenerators | None = None
) -> MapSpace | None:
    """Canonical basis of all range-compatible additive maps on the space.

    F is range-compatible exactly when <a, F(s)> = 0 for every element s and
    every a in the left kernel of s (the annihilator of its column space).
    Each such pair gives F_p-linear constraints on the map coordinates; the
    answer is the kernel of the stacked system.  `_constraint_rows` yields
    the constraints from one walk per characteristic p:

    * p = 2: `_char2_rows`, a packed-bitset walk in Gray-code order over
      the d*k prime basis matrices, whose rows are pattern * comb.
    * odd p: `_odd_rows`, an odometer walk over the entries whose rows are
      c_j times a cached pattern in the slot of each basis matrix j.

    Walk order and kernel bases do not matter: the result depends only on the
    span of the constraint rows, any basis of the left kernel of s spans the same
    rows (the rows of a are F_p-linear in a, and those of c*a are F_p-
    combinations of those of a), and the Gray order visits each nonzero
    element exactly once, as the odometer order does.  The zero element
    imposes nothing.  The element cap applies to both.

    `target` must generate maps known to be range-compatible: the local
    maps, or the standard maps on a symmetric-block space.  Its generators
    need not be reduced.  With it, the solve first folds the prefix of
    `_low_weight_elements`: for w = 1, ..., _PREFIX_WEIGHT, every element
    whose prime coefficients have support size w, one per F_p-line (first
    nonzero coefficient 1; the rows of c*s are c times those of s, as c*s
    has the column space of s).  Then, unless the prefix has certified, it
    folds the rows of every element into the same accumulator, so the
    prefix changes only the order in which rows arrive.  Without a target
    there is nothing to certify, and there is no prefix.

    The solve returns None as soon as the rows folded so far reach rank
    goal = width - rank(target) and every generator satisfies all of them.
    That certifies RC = span(target): the kernel of the folded rows has
    dimension rank(target) and contains span(target), so the two are equal;
    RC lies inside that kernel, and span(target) lies inside RC because s x
    lies in the column space of s and, in characteristic 2, the square root
    of diag(A) lies in the column space of A.  With goal 0 this holds
    before any row is folded.  So the solve returns None, without building a
    canonical basis, exactly when RC = span(target); when RC is larger the
    rank never reaches goal and the solve returns the exact RC.  Generators
    outside RC never pass when their rank is at most dim RC: the rank then
    reaches goal only once every row is in, and the kernel is RC itself.

    The prefix keeps this sound because every row it folds comes from a
    real element, so the kernel always contains RC, and a stop still needs
    the whole certificate above.  When the prefix does not certify, the
    fallback folds the rows of every element, so the kernel, and with it
    the report, is the exact RC.  That the low-weight elements certify
    nearly every class case is only observed, not proved: the solve relies
    on it for speed alone.
    """
    _check_cap(space, cap)
    if target is not None and target.domain != space:
        raise AmbientMismatch("target maps live on a different domain")
    acc = make_accumulator(prime_field(space), map_coord_width(space))
    goal = _goal(acc, target)
    if goal == 0:
        return None
    add = acc.add
    for row in _constraint_rows(space, target is not None):
        if add(row) and acc.rank == goal and _cuts_out(acc, target):
            return None
    return _solution_space(space, acc)


def _goal(acc, target: MapGenerators | None) -> int:
    """The rank at which the rows folded into acc can certify RC =
    span(target): width - rank(target), or -1 (never) without a target."""
    return -1 if target is None else acc.width - target.rank


def _cuts_out(acc, target: MapGenerators) -> bool:
    """Whether every target generator satisfies every row folded into acc."""
    gens = target.vectors
    if isinstance(acc, Gf2Accumulator):
        return not any((r & g).bit_count() & 1 for r in acc.piv.values() for g in gens)
    p = acc.field.p
    return not any(sum(a * b for a, b in zip(r, g)) % p for r in acc.rows for g in gens)


@lru_cache(maxsize=256)
def _gf2_unit_keys(amb: Ambient) -> tuple[int, ...]:
    """For each coordinate t of a characteristic-2 ambient, the packed
    entries of the matrix whose coordinates are e_t: a key packs k bits per
    entry, entry (i, c) at bit (i*ncols + c)*k, so that field addition of
    matrices is XOR of keys.  Unit matrices have 0/1 entries (-1 = 1 in the
    alternating kind), so only the low bit of each slot that layout lists
    for t is set."""
    k = amb.field.k
    return tuple(sum(1 << (s * k) for s, _ in slots) for slots in layout(amb))


@lru_cache(maxsize=3)
def _gf2_basis_keys(space: OperatorSpace) -> tuple[int, ...]:
    """The packed entries of each prime basis matrix x^t b_i of a
    characteristic-2 space, indexed by j = i*k + t.  decode is linear and a
    unit key has 1 in the low bit of each of its slots, so the key of a
    coordinate vector v is the XOR of v_c times the unit key of each
    coordinate c.  Kept for the last three spaces: the target and the walk
    of one class case share one key set, and one splitting-lemma trial
    checks maps on its left factor, its right factor and their product in
    turn, which a single entry would rebuild on every check."""
    f = space.ambient.field
    units = _gf2_unit_keys(space.ambient)
    keys = []
    for vec in space.basis.vectors:
        for lam in f.power_basis:
            scaled = vec if lam == 1 else [f.mul(lam, x) for x in vec]
            key = 0
            for u, x in zip(units, scaled):
                if x:
                    key ^= x * u
            keys.append(key)
    return tuple(keys)


@lru_cache(maxsize=1 << 16)
def _gf2_left_kernel(key: int, n: int, ncols: int) -> tuple[int, ...]:
    """Row bitmasks spanning the left kernel of the n x ncols F_2 matrix
    whose entry (i, c) is bit i*ncols + c of key: the constraint patterns
    of the matrix over F_2 (see _char2_patterns).

    Eliminate the rows in order, tracking in c which original rows each
    reduced row combines.  Each pivot row is reduced by the earlier ones, so
    it lacks their lowest bits; a row that reduces to zero makes c a kernel
    vector, and these span the kernel.  The result depends on the matrix
    alone, so the cache is shared by every solve in the process.
    """
    mask = (1 << ncols) - 1
    piv = []
    out = []
    for i in range(n):
        r = (key >> (i * ncols)) & mask
        c = 1 << i
        for pr, pc, low in piv:
            if r & low:
                r ^= pr
                c ^= pc
        if r:
            piv.append((r, c, r & -r))
        else:
            out.append(c)
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _char2_patterns(f: FieldSpec, key: int, n: int, ncols: int) -> tuple[int, ...]:
    """The patterns of _kernel_patterns as bitmasks, bit t for entry t, of
    the n x ncols matrix over f, of characteristic 2 and degree k > 1, whose
    entry (i, c) is the k-bit slot (i*ncols + c)*k of key: pattern_w shifted
    by j*stride is the row forcing digit w of <a, F(u_j)> to vanish, and the
    sum of such shifts over the support of s does so for <a, F(s)>.  Zero
    patterns are dropped.  Over F_2 the one pattern of a is its bitmask of
    rows, from _gf2_left_kernel.  The result depends on the field and the
    matrix alone, so the cache is shared by every solve in the process.
    """
    entries = unpack(key, n * ncols, f.k)
    packed = (pack(p) for p in _kernel_patterns(f, entries, n, ncols))
    return tuple(pat for pat in packed if pat)


def _kernel_patterns(f: FieldSpec, entries: tuple[int, ...], n: int, ncols: int) -> tuple:
    """The constraint patterns of the n x ncols matrix over f with these
    entries, as tuples: for each vector a of the canonical basis of the left
    kernel, k patterns with entry i*k + u of pattern_w digit w of a_i x^u.
    The row forcing digit w of <a, F(s)> = 0 is then the concatenation over
    j of c_j * pattern_w, c_j the prime coefficients of s: digit w of
    <a, F(s)> is the sum over j, i and u of c_j, digit u of F(u_j)_i and
    digit w of a_i x^u.  Over F_p (k = 1) the one pattern of a is a itself."""
    out = []
    mul = f.mul_table
    for a in left_kernel_rows(f, entries, n, ncols):
        digits = [f.prime_coords(mul[ai][lam]) for ai in a for lam in f.power_basis]
        out.extend(tuple(d[w] for d in digits) for w in range(f.k))
    return tuple(out)


# cached per matrix like _char2_patterns, for every odd field
_odd_patterns = lru_cache(maxsize=1 << 16)(_kernel_patterns)


def _constraint_rows(space: OperatorSpace, prefix: bool):
    """The constraint rows of every nonzero element of the space, whose
    common kernel is the range-compatible maps (see rc_solution_space),
    with the low-weight prefix first when prefix is set: packed ints of
    map coordinates in characteristic 2, tuples otherwise.  No element cap
    here: callers check it."""
    if space.ambient.field.p == 2:
        return _char2_rows(space, prefix)
    return _odd_rows(space, prefix)


def _char2_rows(space: OperatorSpace, prefix: bool):
    """_constraint_rows in characteristic 2, on packed ints: matrices as
    keys with k bits per entry (see _gf2_unit_keys), constraint rows as
    bitmasks of map coordinates.

    The prime coefficients of an element are bits, so the walk visits the
    q^dim elements in Gray-code order over the d*k prime basis keys: each
    step XORs one key into the current element.  The map coordinate of digit
    u of F(u_j)_i is j*stride + i*k + u with stride = n*k, so for the element
    s = sum of u_j over j in a support set and a pattern of its matrix (see
    _char2_patterns), the constraint row is pattern * comb with
    comb = sum of 1 << (j*stride).  The copies of the pattern sit in
    disjoint stride-bit slots because pattern < 2^stride, so the product has
    no carries; each step flips one bit of comb.  A prefix element is the
    XOR of the keys of its support, and its comb the OR of their bits.
    """
    amb = space.ambient
    n, ncols = amb.nrows, amb.ncols
    f = amb.field
    stride = n * f.k
    basis_keys = _gf2_basis_keys(space)
    patterns = _gf2_left_kernel if f.k == 1 else partial(_char2_patterns, f)
    if prefix:
        for support, _ in _low_weight_elements(len(basis_keys), 2):
            key = comb = 0
            for j in support:
                key ^= basis_keys[j]
                comb |= 1 << (j * stride)
            for c in patterns(key, n, ncols):
                yield c * comb
    key = comb = 0
    for step in range(1, 1 << len(basis_keys)):
        j = (step & -step).bit_length() - 1
        key ^= basis_keys[j]
        comb ^= 1 << (j * stride)
        for c in patterns(key, n, ncols):
            yield c * comb


def _odd_rows(space: OperatorSpace, prefix: bool):
    """_constraint_rows in odd characteristic: walk the element entries in
    odometer order, after the low-weight prefix when prefix is set, and
    yield for each pattern of each element (see _kernel_patterns) the row
    that is c_j times the pattern in the stride slot of every prime basis
    matrix j, c_j the element's prime coefficients."""
    amb = space.ambient
    f = amb.field
    p, n, ncols = f.p, amb.nrows, amb.ncols
    mats = [m.entries for m in _prime_basis_matrices(space)]
    elements = _odometer(f, mats, n * ncols)
    if prefix:
        elements = chain(_low_weight_entries(f, mats, n * ncols), elements)
    for coeffs, entries in elements:
        if not any(coeffs):
            continue
        for pat in _odd_patterns(f, entries, n, ncols):
            yield tuple([c * x % p for c in coeffs for x in pat])


@lru_cache(maxsize=64)
def _low_weight_elements(d: int, p: int) -> tuple:
    """The prefix _constraint_rows yields first when asked: for w = 1, ...,
    min(_PREFIX_WEIGHT, d), every support of size w among the d prime basis
    indices in combinations order, and for each the coefficient vectors
    with first entry 1, one per F_p-line, as (support, coefficients)."""
    return tuple(
        (support, (1, *tail))
        for w in range(1, min(_PREFIX_WEIGHT, d) + 1)
        for support in combinations(range(d), w)
        for tail in product(range(1, p), repeat=w - 1)
    )


def _low_weight_entries(f: FieldSpec, mats, size: int):
    """The prefix elements as _odometer yields elements: (prime
    coefficients, entries), the entries the sum of c_j times the flat prime
    basis matrix j of mats."""
    add, mul = f.add_table, f.mul_table
    for support, cs in _low_weight_elements(len(mats), f.p):
        coeffs = [0] * len(mats)
        entries = [0] * size
        for j, c in zip(support, cs):
            coeffs[j] = c
            for t, x in enumerate(mats[j]):
                if x:
                    entries[t] = add[entries[t]][mul[c][x]]
        yield tuple(coeffs), tuple(entries)


def _solution_space(space: OperatorSpace, acc) -> MapSpace:
    """The maps satisfying every constraint row folded into acc."""
    return MapSpace(space, accumulator_kernel(prime_field(space), acc))


def local_generators(space: OperatorSpace) -> MapGenerators:
    """Generators of the evaluation maps s -> s x, one for each x = lam e_col
    over every column col and power-basis element lam."""
    return _map_generators(space, diagonal=False)


def local_space(space: OperatorSpace) -> MapSpace:
    """Span of the evaluation maps, as a subspace of map coordinates."""
    return local_generators(space).span()


def _map_generators(space: OperatorSpace, diagonal: bool) -> MapGenerators:
    """The local generators, followed with diagonal by one diagonal map per
    root-linear basis form (none in odd characteristic).

    The map s -> lam s e_col takes prime basis matrix j to lam times its
    column col, and A -> alpha(diag A) takes it to alpha of its diagonal.
    In characteristic 2 both are read from the packed basis keys; odd
    characteristic reads them from the decoded prime basis matrices.
    """
    amb = space.ambient
    f = amb.field
    n, ncols = amb.nrows, amb.ncols
    if f.p == 2:
        gens = _char2_generators(f, _gf2_basis_keys(space), n, ncols, diagonal)
    else:
        gens = _decoded_generators(space, diagonal)
    width = map_coord_width(space)
    if f.p == 2:
        # built directly: make_accumulator is the solver's, and perfbench
        # counts every row folded through it
        acc = Gf2Accumulator(width)
        for g in gens:
            acc.add(g)
        rank = acc.rank
    else:
        rank = len(echelonize(prime_field(space), gens, width)[0])
    return MapGenerators(space, tuple(gens), rank)


def _decoded_generators(space: OperatorSpace, diagonal: bool) -> list[tuple[int, ...]]:
    """The generators of _map_generators in map coordinates, read from the
    decoded prime basis matrices: the builder for odd characteristic, and
    the reference for the packed builders."""
    f = space.ambient.field
    n, ncols = space.ambient.nrows, space.ambient.ncols
    mats = _prime_basis_matrices(space)
    values = [
        [[f.mul(lam, m.entry(i, col)) for i in range(n)] for m in mats]
        for col in range(ncols)
        for lam in f.power_basis
    ]
    if diagonal:
        values.extend(_diag_values(form, mats) for form in root_linear_forms(f))
    return [_coords_of_values(f, v) for v in values]


@lru_cache(maxsize=128)
def _prime_basis_matrices(space: OperatorSpace) -> tuple[Matrix, ...]:
    """The prime basis matrices x^t b_i, indexed by j = i*k + t, built once
    per space: each K-basis matrix b_i is decoded once and, decode being
    K-linear, x^t b_i is its entries scaled by x^t through the field table.
    Matrix i*k is b_i itself.  Kept for the last 128 spaces, about 120 KB:
    a lemma trial reads the matrices of each of its spaces several times,
    and its small random spaces recur from trial to trial."""
    amb = space.ambient
    f = amb.field
    out = []
    for vec in space.basis.vectors:
        b = decode(amb, vec)
        out.append(b)
        for lam in f.power_basis[1:]:
            times = f.mul_table[lam]
            out.append(Matrix(f, b.rows, b.cols, tuple(times[x] for x in b.entries)))
    return tuple(out)


def _char2_generators(f: FieldSpec, keys, n: int, ncols: int, diagonal: bool) -> list[int]:
    """In characteristic 2, the packed generators of _map_generators, read
    from the basis keys.  An element's index has its prime coordinates as
    bits, and so does the k-bit slot (i*ncols + c)*k of a key (see
    _gf2_unit_keys), so value i of a generator at basis matrix j is a field
    table lookup on one slot, shifted to map bit j*stride + i*k: lam *
    entry (i, col) for the local generator of (col, lam), alpha(entry
    (i, i)) for the diagonal map of the root-linear form alpha."""
    k = f.k
    mask = f.q - 1
    stride = n * k
    forms = root_linear_forms(f) if diagonal else ()
    # per row i, the (slot column, value table) of each generator in order
    reads = [
        [(col, f.mul_table[lam]) for col in range(ncols) for lam in f.power_basis]
        + [(i, form.table) for form in forms]
        for i in range(n)
    ]
    gens = [0] * (ncols * k + len(forms))
    for j, key in enumerate(keys):
        for i, row_reads in enumerate(reads):
            row = key >> (i * ncols * k)
            shift = j * stride + i * k
            for g, (col, table) in enumerate(row_reads):
                e = (row >> (col * k)) & mask
                if e:
                    gens[g] |= table[e] << shift
    return gens


def respects_row_decomposition(f_map: AdditiveMap) -> bool:
    """Whether each output entry F(M)_i depends only on row i of M.

    By additivity this holds exactly when F(M)_i = 0 for every M in the
    domain whose i-th row vanishes, so it suffices to check a prime basis
    of each row-kill subspace.  Range-compatible maps always pass.
    """
    space = f_map.domain
    amb = space.ambient
    if space.dim == 0:
        return True
    mats = _prime_basis_matrices(space)[:: amb.field.k]  # the K-basis matrices
    for i in range(amb.nrows):
        stacked = tuple(x for m in mats for x in m.row_tuple(i))
        for gamma in left_kernel_rows(amb.field, stacked, space.dim, amb.ncols):
            if any(value[i] for value in _values_on_line(f_map, gamma)):
                return False
    return True


def is_local(f_map: AdditiveMap):
    """A vector x with F(s) = s x for all s, or None.

    Solves the K-linear system on a K-basis of the domain and then verifies
    the candidate on the whole prime basis, which catches additive maps that
    agree with an evaluation on the basis without being K-semilinear.
    """
    space = f_map.domain
    amb = space.ambient
    f = amb.field
    k = f.k
    mats = _prime_basis_matrices(space)
    # the K-basis matrices are prime basis matrices i*k, with values i*k
    k_mats, k_values = mats[::k], f_map.values[::k]
    entries = tuple(e for m in k_mats for e in m.entries)
    rhs = tuple(x for val in k_values for x in val)
    x = solve(Matrix(f, len(k_mats) * amb.nrows, amb.ncols, entries), rhs)
    if x is None:
        return None
    for m, val in zip(mats, f_map.values):
        if m.mat_vec(x) != val:
            return None
    return x


@dataclass(frozen=True, slots=True)
class RootLinearForm:
    """An additive alpha : K -> K with alpha(c^2 x) = c alpha(x); in
    characteristic 2 these are exactly x -> coeff * sqrt(x)."""

    field: FieldSpec
    coeff: int
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]


def root_linear_form(field: FieldSpec, coeff: int) -> RootLinearForm:
    if field.p != 2:
        raise CharacteristicMismatch("root-linear forms require characteristic 2")
    table = tuple(field.mul(coeff, field.sqrt(a)) for a in range(field.q))
    form = RootLinearForm(field, coeff, table)
    for a in range(field.q):
        for b in range(field.q):
            if form(field.add(a, b)) != field.add(form(a), form(b)):
                raise AssertionError("root-linear form is not additive")
            sq = field.mul(b, b)
            if form(field.mul(sq, a)) != field.mul(b, form(a)):
                raise AssertionError("root-linear scaling law fails")
    return form


@lru_cache(maxsize=None)
def root_linear_forms(field: FieldSpec) -> tuple[RootLinearForm, ...]:
    """F_2-basis of the space of root-linear forms (empty in odd
    characteristic, where only the zero form satisfies the scaling law).
    Built and checked once per field."""
    if field.p != 2:
        return ()
    return tuple(root_linear_form(field, c) for c in field.power_basis)


def _diag_values(form: RootLinearForm, mats) -> tuple[tuple[int, ...], ...]:
    """Values of A -> form(diagonal of A) on the matrices mats."""
    return tuple(tuple(form(m.entry(i, i)) for i in range(m.rows)) for m in mats)


def standard_generators(space: OperatorSpace) -> MapGenerators:
    """Generators of the local maps and (characteristic 2) the diagonal
    root-linear maps on a symmetric-block space."""
    if space.ambient.kind != KIND_SYM:
        raise AmbientMismatch("standard maps are defined on symmetric-block spaces")
    return _map_generators(space, diagonal=True)


def standard_space(space: OperatorSpace) -> MapSpace:
    """Span of local maps and (characteristic 2) diagonal root-linear maps."""
    return standard_generators(space).span()


def is_standard(f_map: AdditiveMap) -> bool:
    return standard_space(f_map.domain).contains_map(f_map)


def is_linear(f_map: AdditiveMap) -> bool:
    """Whether F is K-linear: a member of linear_maps_space."""
    return linear_maps_space(f_map.domain).contains_map(f_map)


def linear_maps_space(space: OperatorSpace) -> MapSpace:
    """All K-linear maps: the kernel of _linearity_rows, which F satisfies
    exactly when F(c s) = c F(s) for every scalar c and element s.  F is
    additive, so this reduces to c in the power basis and s in the K-basis,
    F(x^t b_i) = x^t F(b_i), which is what the rows say in coordinates."""
    return MapSpace(space, _map_kernel(space, _linearity_rows(space)))


def linear_rc_space(rc: MapSpace) -> MapSpace:
    """The K-linear maps within rc, the solved range-compatible space: one
    kernel of the annihilator rows of rc stacked with _linearity_rows."""
    rows = annihilator(rc.basis).vectors + _linearity_rows(rc.domain)
    return MapSpace(rc.domain, _map_kernel(rc.domain, rows))


def _map_kernel(space: OperatorSpace, rows) -> SubspaceBasis:
    """The map coordinates of the space satisfying every row."""
    flat = tuple(x for row in rows for x in row)
    return kernel_basis(Matrix(prime_field(space), len(rows), map_coord_width(space), flat))


def _linearity_rows(space: OperatorSpace) -> tuple[tuple[int, ...], ...]:
    """The rows values[i*k+t] - x^t * values[i*k] = 0 in map coordinates,
    one per K-basis vector i, power t >= 1, target row r and prime
    coordinate w; none over a prime field."""
    f = space.ambient.field
    p, k = f.p, f.k
    n = space.ambient.nrows
    width = map_coord_width(space)
    stride = n * k
    lams = f.power_basis
    rows = []
    for i in range(space.dim):
        for t in range(1, k):
            for r in range(n):
                for w in range(k):
                    row = [0] * width
                    row[(i * k + t) * stride + r * k + w] = 1
                    for u in range(k):
                        digs = f.prime_coords(f.mul(lams[t], lams[u]))
                        if digs[w]:
                            idx = (i * k) * stride + r * k + u
                            row[idx] = (row[idx] - digs[w]) % p
                    rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# quotients and products of maps


def quotient_map(f_map: AdditiveMap, w: SubspaceBasis, p_mat: Matrix | None = None) -> AdditiveMap:
    """Push F down to the quotient space Q = {P s : s in S}, P projecting
    along w (quotient_projection(S, w) unless the caller passes it).

    Raises IllDefined unless F maps {s in S : P s = 0} into the kernel of P,
    which is exactly when G(P s) = P F(s) defines a map.  One tracked_echelon
    of the phi(b_i), phi taking the coordinates of s to those of P s, gives
    Q's canonical basis with a preimage of each vector, and the canonical
    basis of the kernel of phi.  P F vanishing on lam * s for each kernel
    vector and each lam of the power basis means it vanishes on their
    F_p-span, the whole kernel, so every preimage gives the same values.
    """
    space = f_map.domain
    f = space.ambient.field
    p_mat = quotient_projection(space, w) if p_mat is None else p_mat
    table = projection_table(space.ambient, p_mat)
    width = table.rows
    images = [table.mat_vec(b) for b in space.basis.vectors]
    vecs, pivots, values = [], [], []
    for row, piv in zip(*tracked_echelon(f, images, width)):
        line = [p_mat.mat_vec(v) for v in _values_on_line(f_map, row[width:])]
        if piv >= width:
            if any(map(any, line)):
                raise IllDefined("map does not vanish where the projection does")
        else:
            vecs.append(row[:width])
            pivots.append(piv)
            values.extend(line)
    q_amb = Ambient(f, KIND_FULL, p_mat.rows, space.ambient.ncols)
    q_space = OperatorSpace(q_amb, SubspaceBasis(f, width, tuple(vecs), tuple(pivots)))
    return AdditiveMap(q_space, tuple(values))


def iter_projected(f_map: AdditiveMap, p_mat: Matrix):
    """Yield (P s, P F(s)) for every element s of F's domain, in the order of
    iter_space_elements, from one _odometer walk over [P u_j | P F(u_j)] for
    the prime basis vectors u_j: s -> P s is linear and F additive, so both
    are sums of c_j times those of the u_j, c_j the prime coefficients of s."""
    space = f_map.domain
    f = space.ambient.field
    rows, ncols = p_mat.rows, space.ambient.ncols
    size = rows * ncols
    mats = _prime_basis_matrices(space)
    vectors = [p_mat.matmul(m).entries + p_mat.mat_vec(v) for m, v in zip(mats, f_map.values)]
    for _, cur in _odometer(f, vectors, size + rows):
        yield Matrix(f, rows, ncols, cur[:size]), cur[size:]


def join_maps(f_map: AdditiveMap, g_map: AdditiveMap) -> AdditiveMap:
    """The map [M | R] -> F(M) + G(R) on the side-by-side product.  A basis
    vector of the product restricted to one factor's coordinates lies in
    that factor, and a member of a reduced basis has its coordinates at the
    pivots, so F and G are read on each line with no coordinate solve."""
    a, b = f_map.domain, g_map.domain
    s = side_by_side(a, b)
    add = s.ambient.field.add_table
    where = product_coords(a.ambient, b.ambient)
    in_a = [where[p] for p in a.basis.pivots]
    in_b = [where[a.ambient.dim + p] for p in b.basis.pivots]
    values = []
    for v in s.basis.vectors:
        fv = _values_on_line(f_map, [v[u] for u in in_a])
        gv = _values_on_line(g_map, [v[u] for u in in_b])
        for fx, gy in zip(fv, gv):
            values.append(tuple(add[c][d] for c, d in zip(fx, gy)))
    return AdditiveMap(s, tuple(values))


def split_map(f_map: AdditiveMap) -> tuple[AdditiveMap, AdditiveMap]:
    """Undo join_maps on a domain built by side_by_side: F is read on each
    line of the factors' bases placed in the product, whose coordinates are
    their entries at the product's pivots (see join_maps)."""
    s = f_map.domain
    if s.product_of is None:
        raise AmbientMismatch("domain was not built by side_by_side")
    a, b = s.product_of
    placed = place_in_product(a.ambient, b.ambient, a.basis.vectors, b.basis.vectors)
    values = [v for w in placed for v in _values_on_line(f_map, [w[p] for p in s.basis.pivots])]
    cut = len(values) - b.dim * s.ambient.field.k
    return AdditiveMap(a, tuple(values[:cut])), AdditiveMap(b, tuple(values[cut:]))


# ---------------------------------------------------------------------------
# naive oracle


def naive_rc_maps(space: OperatorSpace, cap: int | None = None):
    """Every range-compatible map found by filtering all additive maps.

    Returns map coordinate tuples in ascending counter order.  Exponential in
    the coordinate count; guarded by the cap.
    """
    f = space.ambient.field
    p = f.p
    width = map_coord_width(space)
    limit = element_cap(cap)
    if p**width > limit:
        raise DomainTooLarge(f"{p ** width} candidate maps exceeds cap {limit}")
    if width == 0:
        return [()]
    if p == 2 and f.k == 1:
        return _naive_rc_maps_gf2(space)
    return _naive_rc_maps_generic(space)


def _element_value_sets(space: OperatorSpace):
    """For each nonzero element: (prime coefficients, set of valid values)."""
    amb = space.ambient
    out = []
    for coeffs, mat in iter_space_elements(space):
        if not any(coeffs):
            continue
        col_span = SubspaceBasis.from_vectors(
            amb.field, amb.nrows, [mat.col_tuple(j) for j in range(amb.ncols)]
        )
        out.append((coeffs, set(col_span.enumerate_elements())))
    return out


def _naive_rc_maps_generic(space: OperatorSpace):
    f = space.ambient.field
    p, k = f.p, f.k
    n = space.ambient.nrows
    d = space.dim * k
    width = map_coord_width(space)
    elements = _element_value_sets(space)
    accepted = []
    for coords in product(range(p), repeat=width):
        f_map = None
        values = []
        pos = 0
        for _ in range(d):
            row = []
            for _ in range(n):
                row.append(f.from_prime_coords(tuple(coords[pos : pos + k])))
                pos += k
            values.append(tuple(row))
        ok = True
        for coeffs, valid in elements:
            acc = [0] * n
            for c, val in zip(coeffs, values):
                if c:
                    for i in range(n):
                        if val[i]:
                            acc[i] = f.add(acc[i], f.mul(c, val[i]))
            if tuple(acc) not in valid:
                ok = False
                break
        if ok:
            accepted.append(tuple(coords))
    return accepted


def _naive_rc_maps_gf2(space: OperatorSpace):
    """Filter all 2^width maps, packed as ints, one element s at a time: the
    value index of F(s) has bit i equal to the parity of the map bits that
    s's coefficients select in row i, looked up in the value indices of the
    column space of s."""
    n = space.ambient.nrows
    width = map_coord_width(space)
    survivors = range(1 << width)
    for coeffs, valid in _element_value_sets(space):
        # map bit j*n + i is F(u_j)_i, so coefficient j packed n bits apart
        masks = [pack(coeffs, n) << i for i in range(n)]
        ok = {pack(v) for v in valid}
        survivors = [h for h in survivors if pack([(h & m).bit_count() & 1 for m in masks]) in ok]
    return [unpack(h, width) for h in survivors]


# ---------------------------------------------------------------------------
# JSON


def map_from_json(obj: dict, space: OperatorSpace | None = None) -> AdditiveMap:
    if space is None:
        space = space_from_json(obj["space"])
    values = tuple(tuple(int(x) for x in v) for v in obj["values"])
    return AdditiveMap(space, values)
