"""Verification suites for the classification and optimality results.

Each suite enumerates (or deterministically samples) a family of cases,
decides the claimed property on every case with the exact solvers from
`rcmaps`, and returns a VerificationReport.  For a fixed suite spec the
JSON form of the report is byte-for-byte reproducible, independent of the
worker count: case lists are materialised in a canonical order before any
work is dispatched, and `_map_cases` returns results in that order, and
raises the error of the first failing case, whether it runs the cases in
process or in forked workers.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product

from . import __version__
from .action import move_images
from .errors import BadParams, EnumerationCapExceeded, IllDefined, RCKitError
from .field import FieldSpec, parse_field_label
from .linalg import (
    Matrix,
    SubspaceBasis,
    annihilator,
    kernel_basis,  # not called: perfbench/tracer.py patches verify's name
    pack,
)
from .opspace import (
    Ambient,
    KIND_ALT,
    KIND_FULL,
    KIND_SYM,
    OperatorSpace,
    annihilator_key,
    build_alt_col1,
    build_alt_2n5,
    build_alt_2n6,
    build_full_alt,
    build_full_sym,
    build_mf,
    build_sym_block,
    build_t3,
    build_u2_block,
    count_subspaces,
    decode,  # not called: perfbench/tracer.py patches verify's name
    dual_rref_rows,  # not called: perfbench/tracer.py patches verify's name
    encode,
    enumerate_subspaces_up_to,  # not called: perfbench/tracer.py patches verify's name
    full_space,
    key_space,
    projection_table,
    quotient_projection,
    restricted_part,
    rref_keys,
    rref_ranges,
    side_by_side,
    space_from_coords,
    space_to_json,
)
from .rcmaps import (
    AdditiveMap,
    MapSpace,
    element_cap,
    evaluate,
    is_linear,
    is_local,
    is_range_compatible,
    is_standard,
    iter_projected,
    iter_space_elements,  # not called: perfbench/tracer.py patches verify's name
    join_maps,
    linear_rc_space,
    local_generators,
    local_space,
    map_coord_width,
    map_from_coords,
    map_from_function,
    map_to_coords,
    naive_rc_maps,
    quotient_map,
    random_map,
    rc_solution_space,
    respects_row_decomposition,
    split_map,
    standard_generators,
    standard_space,
)

# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True, slots=True)
class SuiteSpec:
    """Everything that determines a suite run except the worker count."""

    suite: str
    field: str | None = None
    n: int | None = None
    m: int | None = None
    codim: int | None = None
    r: int | None = None
    trials: int | None = None
    samples: int | None = None
    seed: int | None = None
    cap: int | None = None

    def to_json(self) -> dict:
        out: dict = {"suite": self.suite}
        for key in ("field", "n", "m", "codim", "r", "trials", "samples", "seed", "cap"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True, slots=True)
class VerificationReport:
    spec: SuiteSpec
    cases_run: int
    passes: int
    failures: tuple[dict, ...]
    wall_time: float
    tool_version: str

    @property
    def verified(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.spec.to_json(),
            "casesRun": self.cases_run,
            "passes": self.passes,
            "failures": [dict(f) for f in self.failures],
            "verdict": "verified" if self.verified else "falsified",
            "wallTime": self.wall_time,
            "toolVersion": self.tool_version,
        }


def _failure(space: OperatorSpace, map_coords, reason: str) -> dict:
    return {
        "space": space_to_json(space),
        "map": None if map_coords is None else [int(c) for c in map_coords],
        "reason": reason,
    }


def _finish(spec: SuiteSpec, per_case, t0: float) -> VerificationReport:
    failures = tuple(f for fails in per_case for f in fails)
    passes = sum(1 for fails in per_case if not fails)
    return VerificationReport(
        spec, len(per_case), passes, failures, time.perf_counter() - t0, __version__
    )


def _pool_size(jobs: int, ncases: int) -> int:
    """Worker processes for `ncases` cases at `--jobs jobs`: never more than
    the CPUs, and only as many as get at least 64 cases each, below which
    forking a worker and unpickling its results cost more than the cases.
    At most 1 means run the cases in this process."""
    if jobs < 1:
        raise BadParams(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1, ncases // 64)


def _map_cases(worker, cases, jobs: int = 1):
    """worker on every case, in case order, raising the error of the first
    failing case: in this process, one case after another, unless _pool_size
    gives more than one worker.  Then the cases go in chunks of about an
    eighth of a worker's share, numbered in case order, and forked workers
    pull chunk numbers from one task pipe, so a faster CPU takes more chunks.
    Each worker runs every chunk it takes, stops at its first error and sends
    one pickle back through a pipe of its own.  Chunks are taken in order, so
    the lowest failing chunk that any worker reports holds the first failing
    case.  A worker that is killed, or whose report does not unpickle, ends
    in RCKitError once every worker has been reaped."""
    cases = list(cases)
    workers = _pool_size(jobs, len(cases))
    if workers < 2:
        return [worker(c) for c in cases]
    import pickle

    size = len(cases) // (workers * 8)
    chunks = [cases[i : i + size] for i in range(0, len(cases), size)]
    tasks, feed = os.pipe()
    # about 9 numbers per worker: they fit the pipe's buffer before any fork
    with open(feed, "wb") as f:
        f.write(b"".join(i.to_bytes(4, "little") for i in range(len(chunks))))
    readers, pids = [], []
    try:
        for _ in range(workers):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    try:
                        readers[-1].close()  # so a write gets EPIPE once the parent closes
                        done, failed = {}, None
                        while failed is None and (raw := os.read(tasks, 4)):
                            i = int.from_bytes(raw, "little")
                            try:
                                done[i] = [worker(c) for c in chunks[i]]
                            except Exception as exc:
                                failed = (i, exc)
                        try:
                            data = pickle.dumps((done, failed))
                        except Exception:  # an error that does not pickle
                            data = pickle.dumps((done, (failed[0], RCKitError(repr(failed[1])))))
                        out.write(data)
                        out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        sent = [f.read() for f in readers]
    finally:
        os.close(tasks)
        for f in readers:  # a worker still writing gets a broken pipe
            f.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    try:
        reports = [pickle.loads(data) for data in sent]
    except Exception:  # a worker killed, or a report that does not unpickle
        raise RCKitError(f"a worker process sent no results (exit codes {codes})") from None
    done = {i: results for by_chunk, _ in reports for i, results in by_chunk.items()}
    failed = [error for _, error in reports if error]
    if failed:
        raise min(failed, key=lambda e: e[0])[1]
    return [result for i in range(len(chunks)) for result in done[i]]


# ---------------------------------------------------------------------------
# shared case predicates


def _mismatches(
    space: OperatorSpace, found: MapSpace, expected: MapSpace, what: str, linear: str = ""
) -> list[dict]:
    """One failure for each basis vector of the solved space found outside
    expected, the span of the `what` maps, then one for each basis vector
    of expected outside found.  linear ("linear " or "") qualifies found
    in the reasons."""
    out = [
        _failure(space, vec, f"{linear}range-compatible map is not {what}")
        for vec in found.basis.vectors
        if not expected.basis.member(vec)
    ]
    out.extend(
        _failure(space, vec, f"{what} map missing from the {linear}solution space")
        for vec in expected.basis.vectors
        if not found.basis.member(vec)
    )
    return out


def _class_case(generators, what: str, cap: int, space: OperatorSpace) -> list[dict]:
    target = generators(space)
    rc = rc_solution_space(space, cap=cap, target=target)
    if rc is None:  # certified: RC is the span of the target maps
        return []
    return _mismatches(space, rc, target.span(), what)


# module-level names: the suites look them up when they run, so a test can
# replace either one
_standard_class_case = partial(_class_case, standard_generators, "standard")
_local_class_case = partial(_class_case, local_generators, "local")


# ---------------------------------------------------------------------------
# congruence classes of the class-suite cases


def _congruence_classes(amb: Ambient, codim: int, cap: int) -> tuple[list[int], list[list[int]]]:
    """The keys of the subspaces of amb of codimension <= codim, in
    enumeration order, and their classes under the moves of action._moves as
    lists of indices into the keys, each class ascending and the classes in
    the order of their first members.  The keys come packed from
    opspace.rref_keys.

    Moves keep the codimension, so each level (row count c) is searched on
    its own, with the images of action.move_images(amb, c).  Each class is a
    breadth-first orbit search from the first key of the level not yet seen,
    which images every member under every move and appends the images not
    yet seen.  Every move is invertible and the moves
    generate a finite group, so the inverse of each is a power of it, and
    the forward closure of a key under the moves is its whole orbit.  The
    search starts from the smallest unseen index, so every member is at
    least that index and the classes come out in first-member order.  Each
    key is imaged once per move."""
    total = sum(count_subspaces(amb, c) for c in range(codim + 1))
    if total > cap:
        raise EnumerationCapExceeded(f"{total} subspaces exceeds cap {cap}")
    f, d = amb.field, amb.dim
    keys, classes = [0], [[0]]
    for c in range(1, codim + 1):
        level = [k for pivots in combinations(range(d), c) for k in rref_keys(f, d, pivots)]
        start = len(keys)
        keys += level
        index = dict(zip(level, range(len(level))))
        images = move_images(amb, c)
        seen = bytearray(len(level))
        for i in range(len(level)):
            if seen[i]:
                continue
            seen[i], orbit = 1, [i]
            for j in orbit:  # grows as the search meets unseen images
                for img in images(level[j]):
                    b = index[img]
                    if not seen[b]:
                        seen[b] = 1
                        orbit.append(b)
            classes.append([start + j for j in sorted(orbit)])
    return keys, classes


# ---------------------------------------------------------------------------
# main classification suites


def _solve_classes(worker, parts, jobs: int, admissible=None) -> list[list[dict]]:
    """The failure lists of the cases of parts, a list of (amb, keys, classes)
    from _congruence_classes, solved once per congruence class.

    The first case of each class is solved (and alone tested for
    admissible), the classes of every part through one _map_cases call.
    When it passes, every member passes; when it fails, every member is
    solved on its own, part by part in enumeration order, so the failures
    come out in the order and form a case-by-case run gives them.  Passing
    members follow, one empty failure list each."""
    reps = [
        (p, members, key_space(amb, keys[members[0]]))
        for p, (amb, keys, classes) in enumerate(parts)
        for members in classes
    ]
    if admissible is not None:
        reps = [rep for rep in reps if admissible(rep[2])]
    first = _map_cases(worker, [s for _, _, s in reps], jobs)
    redo = sorted((p, i) for (p, members, _), fails in zip(reps, first) if fails for i in members)
    per_case = _map_cases(worker, [key_space(parts[p][0], parts[p][1][i]) for p, i in redo], jobs)
    return per_case + [[]] * (sum(len(members) for _, members, _ in reps) - len(redo))


def _run_class_suite(
    suite: str,
    amb: Ambient,
    case,
    codim: int | None,
    cap: int | None,
    jobs: int,
    admissible=None,
) -> VerificationReport:
    """The shared body of the class suites: every subspace of amb with
    codimension <= codim (default and bound n-2) that passes admissible is
    one case of case(cap, space), solved once per congruence class by
    _solve_classes.

    _congruence_classes finds the orbits of the cases under the moves
    M -> L M R of action._moves: [A | R] -> [Q^T A Q | Q^T R] on sym and
    alt, s -> P s and s -> s Q on rectangles, with Q and P each I + E_01,
    the cycle, or (q > 2) diag(w, 1, ..., 1).  It builds the case keys
    packed, pivot set by pivot set, and grows each orbit breadth first from
    its smallest unseen key, imaging every member once per move through
    action.move_images, which keeps a key packed from lookup to canonical
    image key.  The moves are invertible and generate a finite group, so the
    inverse of each is a power of it and the forward search reaches the
    whole orbit.

    Soundness.  For invertible Q and S' = {Q^T M D : M in S}, D = diag(Q, I_m),
    F -> F' with F'(Q^T M D) = Q^T F(M) is a bijection between the additive
    maps on S and on S'.  Im(Q^T M D) = Q^T Im(M), so it keeps range
    compatibility; M -> M x goes to M' -> M' D^-1 x, so it keeps locality;
    and in characteristic 2, diag(Q^T A Q)_i = sum_j Q_ji^2 A_jj for
    symmetric A (the cross terms pair up), so the entrywise square root of
    the diagonal moves linearly, sqrt diag(Q^T A Q) = Q^T sqrt diag(A), and
    diagonal root-linear maps go to diagonal root-linear maps.  Rectangles
    follow from Im(P s Q) = P Im(s).  The codimension and the part with zero
    tail move along too, so the case functions and admissible give one
    answer on a whole class.  A missing move would only split a class into
    several, which costs time but never soundness.
    """
    n = amb.n
    if codim is None:
        codim = n - 2
    if not 0 <= codim <= n - 2:
        raise BadParams(f"codimension bound {codim} outside the admissible range 0..{n - 2}")
    cap = element_cap(cap)
    t0 = time.perf_counter()
    parts = [(amb, *_congruence_classes(amb, codim, cap))]
    per_case = _solve_classes(partial(case, cap), parts, jobs, admissible)
    spec = SuiteSpec(suite, field=amb.field.label, n=n, m=amb.m, codim=codim, cap=cap)
    return _finish(spec, per_case, t0)


def run_sym_main(
    field: FieldSpec,
    n: int,
    m: int = 0,
    codim: int | None = None,
    cap: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Every subspace of Sym(n, m) with codimension <= codim has all of its
    range-compatible maps standard.  The bound must stay within 0..n-2."""
    if n < 2:
        raise BadParams("the symmetric classification needs n >= 2")
    amb = Ambient(field, KIND_SYM, n, m)
    return _run_class_suite("sym-main", amb, _standard_class_case, codim, cap, jobs)


def run_alt_main(
    field: FieldSpec,
    n: int,
    m: int = 0,
    codim: int | None = None,
    cap: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Every admissible subspace of Alt(n, m) has range-compatible == local.

    Admissible means codim <= n-2 and the restricted part (tail forced to
    zero) has codimension <= n-3 inside Alt(n).  Subspaces enumerated up to
    the requested codimension that miss the second condition are skipped and
    not counted.
    """
    if n < 3:
        raise BadParams("the alternating classification needs n >= 3")
    amb = Ambient(field, KIND_ALT, n, m)
    return _run_class_suite(
        "alt-main",
        amb,
        _local_class_case,
        codim,
        cap,
        jobs,
        admissible=lambda s: restricted_part(s).codim <= n - 3,
    )


def run_rect_group(
    field: FieldSpec,
    n: int,
    m: int,
    codim: int | None = None,
    cap: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Every subspace of the n x m rectangles with codimension <= codim
    (bounded by n-2) has range-compatible == local."""
    if n < 2 or m < 1:
        raise BadParams("rectangle suite needs n >= 2 rows and m >= 1 columns")
    amb = Ambient(field, KIND_FULL, n, m)
    return _run_class_suite("rect-group", amb, _local_class_case, codim, cap, jobs)


def run_full_sym_class(field: FieldSpec, n: int, cap: int | None = None) -> VerificationReport:
    """On the full space Sym(n): solution space == standard maps, the
    standard dimension exceeds the local one by k exactly in characteristic
    two, and (when the brute-force search fits under the cap) the naive
    filter over all additive maps finds the same set."""
    if n < 2:
        raise BadParams("the full symmetric classification needs n >= 2")
    cap = element_cap(cap)
    t0 = time.perf_counter()
    space = build_full_sym(field, n)
    rc = rc_solution_space(space, cap=cap)
    std = standard_space(space)
    loc = local_space(space)
    fails = _mismatches(space, rc, std, "standard")
    extra = field.k if field.p == 2 else 0
    if std.dim != loc.dim + extra:
        fails.append(
            _failure(
                space,
                None,
                f"standard dimension {std.dim} != local dimension {loc.dim} + {extra}",
            )
        )
    if field.p ** map_coord_width(space) <= cap:
        brute = naive_rc_maps(space, cap=cap)
        if len(brute) != field.p**rc.dim:
            fails.append(
                _failure(
                    space,
                    None,
                    f"brute-force count {len(brute)} != p^dim {field.p ** rc.dim}",
                )
            )
        else:
            for coords in brute:
                if not rc.contains_coords(coords):
                    fails.append(
                        _failure(space, coords, "brute-force map outside the solution space")
                    )
                    break
    spec = SuiteSpec("full-sym-class", field=field.label, n=n, cap=cap)
    return _finish(spec, [fails], t0)


def run_full_alt_class(field: FieldSpec, n: int, cap: int | None = None) -> VerificationReport:
    """On the full space Alt(n): linear range-compatible maps == local maps."""
    if n < 0:
        raise BadParams("need n >= 0")
    cap = element_cap(cap)
    t0 = time.perf_counter()
    space = build_full_alt(field, n)
    lin_rc = linear_rc_space(rc_solution_space(space, cap=cap))
    fails = _mismatches(space, lin_rc, local_space(space), "local", "linear ")
    spec = SuiteSpec("full-alt-class", field=field.label, n=n, cap=cap)
    return _finish(spec, [fails], t0)


# ---------------------------------------------------------------------------
# optimality witnesses


def _witness_case(case) -> list[dict]:
    name, f_map, want_codim, checks = case
    space = f_map.domain
    fails = []
    if space.codim != want_codim:
        fails.append(
            _failure(space, None, f"{name}: codimension {space.codim}, expected {want_codim}")
        )
    coords = map_to_coords(f_map)
    for check in checks:
        if check == "rc":
            ok = is_range_compatible(f_map)
        elif check == "linear":
            ok = is_linear(f_map)
        elif check == "not-local":
            ok = is_local(f_map) is None
        elif check == "not-standard":
            ok = not is_standard(f_map)
        else:  # pragma: no cover - guarded by the fixed case tables
            raise BadParams(f"unknown witness check '{check}'")
        if not ok:
            fails.append(_failure(space, coords, f"{name}: witness check '{check}' failed"))
    return fails


def sym_witness_cases() -> list:
    """Maps showing the symmetric codimension bounds cannot be relaxed."""
    f4 = parse_field_label("2^2")
    cases = []
    block = build_sym_block(f4, 3)
    frob = map_from_function(
        block, lambda mat: (f4.frobenius(mat.entry(0, 0)),) + (0,) * 2
    )
    cases.append(("sym-block:3 over 2^2", frob, 2, ("rc", "not-standard")))
    for label in ("2", "3"):
        f = parse_field_label(label)
        u2 = build_u2_block(f, 3)
        corner = map_from_function(u2, lambda mat: (mat.entry(0, 0), 0, 0))
        cases.append((f"u2:3 over {label}", corner, 3, ("rc", "linear", "not-local")))
    return cases


def alt_witness_cases() -> list:
    """Maps showing the alternating codimension bounds cannot be relaxed."""
    f4 = parse_field_label("2^2")
    cases = []
    col1 = build_alt_col1(f4, 4)
    frob = map_from_function(
        col1, lambda mat: (0, f4.frobenius(mat.entry(1, 0)), 0, 0)
    )
    cases.append(("alt-col1:4 over 2^2", frob, 2, ("rc", "not-local")))
    for label in ("2", "3"):
        f = parse_field_label(label)
        toep = build_alt_2n5(f, 4)
        pick = map_from_function(toep, lambda mat: (0, 0, mat.entry(2, 1), 0))
        cases.append((f"alt-2n5:4 over {label}", pick, 3, ("rc", "linear", "not-local")))
    f2 = parse_field_label("2")
    symb = build_alt_2n6(f2, 4)
    two = map_from_function(symb, lambda mat: (0, 0, mat.entry(2, 0), mat.entry(3, 1)))
    cases.append(("alt-2n6:4 over 2", two, 2, ("rc", "linear", "not-local")))
    return cases


def _run_witnesses(suite: str, witness_cases, cap: int | None, jobs: int) -> VerificationReport:
    cap = element_cap(cap)
    t0 = time.perf_counter()
    per_case = _map_cases(_witness_case, witness_cases(), jobs)
    return _finish(SuiteSpec(suite, cap=cap), per_case, t0)


def run_sym_optimality(cap: int | None = None, jobs: int = 1) -> VerificationReport:
    return _run_witnesses("sym-optimality", sym_witness_cases, cap, jobs)


def run_alt_optimality(cap: int | None = None, jobs: int = 1) -> VerificationReport:
    return _run_witnesses("alt-optimality", alt_witness_cases, cap, jobs)


# ---------------------------------------------------------------------------
# rank-one gap lemma


def line_reps(field: FieldSpec, n: int) -> list[tuple[int, ...]]:
    """Canonical representatives of the lines of K^n: first nonzero entry 1."""
    return [v for v in product(range(field.q), repeat=n) if next((c for c in v if c), 0) == 1]


def _rank1_candidates(field: FieldSpec, n: int):
    """Coordinates of c * x x^T for every line rep x and scalar c != 0."""
    amb = Ambient(field, KIND_SYM, n, 0)
    rows = []
    for x in line_reps(field, n):
        for c in range(1, field.q):
            entries = tuple(field.mul(c, field.mul(a, b)) for a in x for b in x)
            rows.append(encode(amb, Matrix(field, n, n, entries)))
    return rows


def _orthogonal_masks(field: FieldSpec, cand, rows) -> dict[int, int]:
    """For each row, keyed by the row packed as rref_ranges packs its
    options, a bitmask whose bit t is set when candidate t is orthogonal to
    the row."""
    bits, masks = (field.q - 1).bit_length(), {}
    for row in rows:
        mask = 0
        for t, vec in enumerate(cand):
            acc = 0
            for r, v in zip(row, vec):
                if r and v:
                    acc = field.add(acc, field.mul(r, v))
            if not acc:
                mask |= 1 << t
        masks[pack(row, bits)] = mask
    return masks


def _gap_counts(field: FieldSpec, n: int, in_w: list[int]) -> list[int]:
    """For each subspace, given by the AND of the orthogonality masks of its
    annihilator rows (the candidates inside it), the lines of K^n none of
    whose rank-one candidates lie in it.

    The candidates come in runs of q-1, one run per line (see
    `_rank1_candidates`), and a line is a gap when its whole run is clear:
    ORing the mask shifted down by 1..q-2 folds each run onto its first bit,
    and the first bits still set count the lines that are not gaps.
    Every nonzero multiple of x x^T is tested, not only x x^T itself, so the
    count follows the lemma as stated and does not lean on the subspace being
    closed under scalars; with masks the extra candidates cost one bit each.
    """
    scalars = field.q - 1
    full = (1 << (field.q**n - 1)) - 1
    hit = in_w
    for s in range(1, scalars):
        hit = [h | w >> s for h, w in zip(hit, in_w)]
    # full // (2^(q-1) - 1) has the first bit of every run set
    lines, firsts = full.bit_length() // scalars, full // ((1 << scalars) - 1)
    return [lines - (h & firsts).bit_count() for h in hit]


def _rank1_pivot_set(field: FieldSpec, n: int, masks, pivots) -> list[tuple[dict, ...]]:
    """The failures of the cases whose annihilator has these pivots, in
    rref_keys order, each as a tuple, so every passing case is the one
    shared empty tuple.

    The rows' masks are ANDed row by row over the options of rref_ranges,
    the fold rref_keys makes, so cases that share their first rows share
    those ANDs.  Only a set with a failing case lists its keys from
    rref_keys, and a failing case is the key_space of its key."""
    amb = Ambient(field, KIND_SYM, n, 0)
    in_w = [(1 << (field.q**n - 1)) - 1]
    for opts in rref_ranges(field, amb.dim, pivots):
        row = [masks[r] for r in opts]
        in_w = [w & m for w in in_w for m in row]
    gaps = _gap_counts(field, n, in_w)
    if min(gaps) >= 2:
        return [()] * len(gaps)
    reason = "only {} gap line(s); expected at least 2"
    return [
        () if g >= 2 else (_failure(key_space(amb, key), None, reason.format(g)),)
        for g, key in zip(gaps, rref_keys(field, amb.dim, pivots))
    ]


def run_rank1_gaps(
    field: FieldSpec, n: int = 3, cap: int | None = None, jobs: int = 1
) -> VerificationReport:
    """Every proper subspace of Sym(n) misses the rank-one matrices built
    from at least two distinct lines of K^n (all scalar multiples of x x^T
    stay outside the subspace).

    The orthogonality of each candidate c x x^T to each row with leading
    entry 1, as every annihilator row has, is computed once, here, as one
    bitmask per row; the cases then only AND the masks of their rows.  Each
    pivot set is one case of _map_cases and returns its cases in rref_keys
    order, and the sets go in dual_rref_rows order, so the flattened cases
    follow it.  Sym_3 has 63 pivot sets, too few for _map_cases to fork."""
    if n < 3:
        raise BadParams("the rank-one gap property needs n >= 3")
    cap = element_cap(cap)
    t0 = time.perf_counter()
    amb = Ambient(field, KIND_SYM, n, 0)
    d = amb.dim
    total = sum(count_subspaces(amb, c) for c in range(1, d + 1))
    if total > cap:
        raise EnumerationCapExceeded(f"{total} proper subspaces exceeds cap {cap}")
    masks = _orthogonal_masks(field, _rank1_candidates(field, n), line_reps(field, d))
    pivot_sets = [pivots for c in range(1, d + 1) for pivots in combinations(range(d), c)]
    per_set = _map_cases(partial(_rank1_pivot_set, field, n, masks), pivot_sets, jobs)
    spec = SuiteSpec("rank1-gaps", field=field.label, n=n, cap=cap)
    return _finish(spec, [fails for cases in per_set for fails in cases], t0)


# ---------------------------------------------------------------------------
# good functionals lemma


@lru_cache(maxsize=64)
def _line_tables(amb: Ambient) -> tuple:
    """The projection_table of P projecting along each line K x of K^n, in
    line_reps order."""
    f = amb.field
    return tuple(
        projection_table(
            amb,
            quotient_projection(full_space(amb), SubspaceBasis.from_vectors(f, amb.nrows, [x])),
        )
        for x in line_reps(f, amb.nrows)
    )


def _good_lines(space: OperatorSpace) -> tuple[int, int]:
    """Count lines K*f of the target whose quotient S mod f has codimension
    at most n-3 inside the self-adjoint operators to the smaller target.

    Quotients of symmetric-with-tail spaces are (after a change of bases)
    again symmetric-with-tail, one row smaller, so the reference dimension
    is (n-1)n/2 + (n-1)(ncols-n+1).  The second return value flags any line
    whose quotient dimension exceeds that bound, which would contradict the
    self-adjoint structure of the quotient.

    The quotient dimension is the rank of the images P b of the basis
    vectors b, read off the line's projection table.
    """
    amb = space.ambient
    n = amb.nrows
    rect_dim = (n - 1) * amb.ncols
    self_adjoint_dim = (n - 1) * n // 2 + (n - 1) * (amb.ncols - n + 1)
    count = overflow = 0
    for table in _line_tables(amb):
        images = [table.mat_vec(b) for b in space.basis.vectors]
        dim = SubspaceBasis.from_vectors(amb.field, rect_dim, images).dim
        if dim > self_adjoint_dim:
            overflow += 1
        elif self_adjoint_dim - dim <= n - 3:
            count += 1
    return count, overflow


def _t3_class(
    amb: Ambient, keys: list[int], classes: list[list[int]]
) -> frozenset[SubspaceBasis]:
    """Canonical bases of the members of the class of the t3 block with a
    free tail, given the keys and classes of amb from _congruence_classes."""
    f = amb.field
    t3 = build_t3(f)
    if amb.m:
        t3 = side_by_side(t3, full_space(Ambient(f, KIND_FULL, 3, amb.m)))
    ann = annihilator(t3.basis)
    i = keys.index(annihilator_key(f, ann.vectors))
    members = next(c for c in classes if i in c)
    return frozenset(key_space(amb, keys[j]).basis for j in members)


def _good_functional_case(orbits, space: OperatorSpace) -> list[dict]:
    good, overflow = _good_lines(space)
    if overflow:
        reason = f"{overflow} quotient(s) larger than the self-adjoint bound"
    elif good < 2:
        reason = f"only {good} good line(s); expected at least 2"
    elif space.ambient.field.q != 2 or good >= 3 or space.basis in orbits[space.ambient.m]:
        return []
    else:
        reason = (
            f"only {good} good lines over GF(2) and the space is not congruent "
            "to the t3 block with free tail"
        )
    return [_failure(space, None, reason)]


def run_good_functionals(
    field: FieldSpec, cap: int | None = None, jobs: int = 1
) -> VerificationReport:
    """Subspaces of Sym(3, m) for m in {0, 1} with codimension <= 1 admit at
    least two good lines (quotient by the line is everything); over GF(2)
    either a third good line exists or the space is congruent to the t3
    block with a free tail.

    The cases of Sym(3, 0), then of Sym(3, 1), are solved once per
    congruence class of _congruence_classes, as in the class suites.

    Soundness.  For invertible Q, S' = {Q^T M D : M in S}, D = diag(Q, I_m),
    and P with kernel K x, P Q^-T has kernel K Q^T x and
    P Q^-T (Q^T M D) = (P M) D, so Q^T carries the lines of S one-to-one
    onto those of S' and every quotient keeps its dimension (D is
    invertible).  The good-line count and the overflow count are therefore
    the same across a class.  Over GF(2) the moves are Q = I + E_01 and the
    3-cycle (action._gl_generators(F_2, 3)): conjugating I + E_01 by the 3-cycle
    gives I + E_12 and I + E_20, their commutators give the other three
    elementary transvections, and these generate SL_3(F_2) = GL_3(F_2); in
    a finite group the inverses are powers, so a class is a whole
    congruence orbit, and the class of the t3 block with a free tail is
    that block's orbit.  The tail shears [A | R] -> [A | A U + R] are not
    needed: the tail is free, so every shear fixes the space.  So
    _good_functional_case gives one answer on a whole class.
    """
    cap = element_cap(cap)
    t0 = time.perf_counter()
    parts = []
    for m in (0, 1):
        amb = Ambient(field, KIND_SYM, 3, m)
        parts.append((amb, *_congruence_classes(amb, 1, cap)))
    orbits = {}
    if field.q == 2:
        orbits = {amb.m: _t3_class(amb, keys, classes) for amb, keys, classes in parts}
    per_case = _solve_classes(partial(_good_functional_case, orbits), parts, jobs)
    spec = SuiteSpec("good-functionals", field=field.label, n=3, cap=cap)
    return _finish(spec, per_case, t0)


# ---------------------------------------------------------------------------
# dimension-three alternating spaces and the trace-constrained family


def run_dim3_alt(field: FieldSpec, cap: int | None = None) -> VerificationReport:
    """On Alt(3) every additive range-compatible map is local."""
    cap = element_cap(cap)
    t0 = time.perf_counter()
    per_case = [_local_class_case(cap, build_full_alt(field, 3))]
    spec = SuiteSpec("dim3-alt", field=field.label, n=3, cap=cap)
    return _finish(spec, per_case, t0)


def _mf_case(field: FieldSpec, r: int, cap: int, coeffs) -> list[dict]:
    return _local_class_case(cap, build_mf(field, r, coeffs))


def run_mf_suite(
    field: FieldSpec,
    r: int = 1,
    samples: int | None = None,
    seed: int = 0,
    cap: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Range-compatible == local on the trace-constrained spaces M_f inside
    Alt(3) with an r-column tail.  With samples=None every coefficient
    tensor (q^(3 r^2) of them) is checked; otherwise that many tensors are
    drawn with a seeded generator."""
    if r < 1:
        raise BadParams("need r >= 1; use dim3-alt for the tailless case")
    cap = element_cap(cap)
    t0 = time.perf_counter()
    width = 3 * r * r
    if samples is None:
        total = field.q**width
        if total > cap:
            raise EnumerationCapExceeded(f"{total} coefficient tensors exceeds cap {cap}")
        cases = [tuple(c) for c in product(range(field.q), repeat=width)]
        spec = SuiteSpec("mf-lemma", field=field.label, r=r, cap=cap)
    else:
        if samples < 1:
            raise BadParams("need at least one sample")
        rng = random.Random(f"mf:{field.label}:{r}:{seed}")
        cases = [
            tuple(rng.randrange(field.q) for _ in range(width)) for _ in range(samples)
        ]
        spec = SuiteSpec(
            "mf-lemma", field=field.label, r=r, samples=samples, seed=seed, cap=cap
        )
    per_case = _map_cases(partial(_mf_case, field, r, cap), cases, jobs)
    return _finish(spec, per_case, t0)


# ---------------------------------------------------------------------------
# randomized structural properties: quotients and splittings


_QUOTIENT_DOMAINS = (
    ("2", KIND_SYM, 2, 0),
    ("2", KIND_SYM, 3, 0),
    ("2", KIND_ALT, 3, 0),
    ("2", KIND_ALT, 4, 0),
    ("2", KIND_SYM, 2, 1),
    ("2", KIND_FULL, 2, 2),
    ("3", KIND_SYM, 2, 0),
    ("3", KIND_SYM, 3, 0),
    ("3", KIND_ALT, 3, 0),
    ("3", KIND_SYM, 2, 1),
    ("3", KIND_FULL, 3, 1),
    ("2^2", KIND_SYM, 2, 0),
    ("2^2", KIND_ALT, 3, 0),
    ("2^2", KIND_FULL, 2, 1),
)


def _random_space(amb: Ambient, rng, max_gens: int) -> OperatorSpace:
    gens = [
        tuple(rng.randrange(amb.field.q) for _ in range(amb.dim))
        for _ in range(rng.randint(0, max_gens))
    ]
    return space_from_coords(amb, gens)


def _random_member(mspace: MapSpace, rng) -> AdditiveMap:
    p = mspace.domain.ambient.field.p
    width = map_coord_width(mspace.domain)
    coords = [0] * width
    for vec in mspace.basis.vectors:
        c = rng.randrange(p)
        if c:
            for i, v in enumerate(vec):
                if v:
                    coords[i] = (coords[i] + c * v) % p
    return map_from_coords(mspace.domain, tuple(coords))


def _run_trials(
    suite: str, trial, trials: int, seed: int, jobs: int, cap: int | None
) -> VerificationReport:
    """The report of trial(seed, cap, idx) over idx in range(trials)."""
    if trials < 1:
        raise BadParams("need at least one trial")
    t0 = time.perf_counter()
    per_case = _map_cases(partial(trial, seed, element_cap(cap)), range(trials), jobs)
    return _finish(SuiteSpec(suite, trials=trials, seed=seed), per_case, t0)


def _quotient_trial(seed: int, cap: int, idx: int) -> list[dict]:
    rng = random.Random(f"quotient:{seed}:{idx}")
    label, kind, n, m = _QUOTIENT_DOMAINS[rng.randrange(len(_QUOTIENT_DOMAINS))]
    field = parse_field_label(label)
    amb = Ambient(field, kind, n, m)
    space = _random_space(amb, rng, 4)
    f_map = _random_member(rc_solution_space(space, cap), rng)
    w = SubspaceBasis.from_vectors(
        field,
        n,
        [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(rng.randint(0, n))],
    )
    fail = partial(_failure, space, map_to_coords(f_map))
    if not respects_row_decomposition(f_map):
        return [fail("range-compatible map does not decompose row-wise")]
    p = quotient_projection(space, w)
    try:
        g_map = quotient_map(f_map, w, p)
    except IllDefined:
        return [fail("quotient of a range-compatible map must be defined")]
    # P s and P F(s) are carried by one walk (see iter_projected); G(P s)
    # goes through the matrix P s, its encoding and G's own values
    for ps, pfs in iter_projected(f_map, p):
        if evaluate(g_map, ps) != pfs:
            return [fail("quotient map does not commute with the projection")]
    if not is_range_compatible(g_map, cap):
        return [fail("quotient of a range-compatible map is not range-compatible")]
    return []


def run_quotient_property(
    trials: int = 200, seed: int = 0, jobs: int = 1, cap: int | None = None
) -> VerificationReport:
    """Randomized check that range-compatible maps decompose row-wise and
    that their quotients are defined, commute with the projection on every
    element, and stay range-compatible.  cap bounds every element walk; the
    report leaves it out, so the pinned digests do not depend on it."""
    return _run_trials("quotient-lemma", _quotient_trial, trials, seed, jobs, cap)


_SPLIT_SHAPES = (
    ("2", KIND_SYM, 2, 1),
    ("2", KIND_SYM, 2, 2),
    ("2", KIND_ALT, 3, 1),
    ("2", KIND_FULL, 2, 1),
    ("3", KIND_SYM, 2, 1),
    ("3", KIND_ALT, 3, 1),
    ("2^2", KIND_SYM, 2, 1),
)


def _split_trial(seed: int, cap: int, idx: int) -> list[dict]:
    rng = random.Random(f"split:{seed}:{idx}")
    label, kind, n, extra = _SPLIT_SHAPES[rng.randrange(len(_SPLIT_SHAPES))]
    field = parse_field_label(label)
    left = _random_space(Ambient(field, kind, n, 0), rng, 3)
    right = _random_space(Ambient(field, KIND_FULL, n, extra), rng, 2)
    prod = side_by_side(left, right)
    if rng.random() < 0.5:
        f_map = _random_member(rc_solution_space(left, cap), rng)
    else:
        f_map = random_map(left, rng)
    if rng.random() < 0.5:
        g_map = _random_member(rc_solution_space(right, cap), rng)
    else:
        g_map = random_map(right, rng)
    joined = join_maps(f_map, g_map)
    fail_joined = partial(_failure, prod, map_to_coords(joined))
    back_f, back_g = split_map(joined)
    fails = []
    if map_to_coords(back_f) != map_to_coords(f_map) or map_to_coords(back_g) != map_to_coords(g_map):
        fails.append(fail_joined("splitting does not invert joining"))
    want = is_range_compatible(f_map, cap) and is_range_compatible(g_map, cap)
    if is_range_compatible(joined, cap) != want:
        fails.append(fail_joined("joined map range-compatibility differs from the parts"))
    want_local = is_local(f_map) is not None and is_local(g_map) is not None
    if (is_local(joined) is not None) != want_local:
        fails.append(fail_joined("joined map locality differs from the parts"))
    free = random_map(prod, rng)
    coords_free = map_to_coords(free)
    fail_free = partial(_failure, prod, coords_free)
    part_f, part_g = split_map(free)
    if map_to_coords(join_maps(part_f, part_g)) != coords_free:
        fails.append(fail_free("joining does not invert splitting"))
    if is_range_compatible(free, cap) != (
        is_range_compatible(part_f, cap) and is_range_compatible(part_g, cap)
    ):
        fails.append(fail_free("map range-compatibility differs from its split parts"))
    return fails


def run_splitting_property(
    trials: int = 200, seed: int = 0, jobs: int = 1, cap: int | None = None
) -> VerificationReport:
    """Randomized check that joining and splitting maps over side-by-side
    products are mutually inverse and preserve range-compatibility and
    locality exactly.  cap as in run_quotient_property."""
    return _run_trials("splitting-lemma", _split_trial, trials, seed, jobs, cap)


# ---------------------------------------------------------------------------
# dispatch


SUITE_IDS = (
    "sym-main",
    "alt-main",
    "rect-group",
    "full-sym-class",
    "full-alt-class",
    "sym-optimality",
    "alt-optimality",
    "rank1-gaps",
    "good-functionals",
    "dim3-alt",
    "mf-lemma",
    "quotient-lemma",
    "splitting-lemma",
)


def run_suite(
    suite: str,
    field: FieldSpec | None = None,
    n: int | None = None,
    m: int | None = None,
    codim: int | None = None,
    r: int | None = None,
    trials: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    cap: int | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Run one suite by id.  Missing required parameters raise BadParams."""

    def need(value, what):
        if value is None:
            raise BadParams(f"suite '{suite}' needs {what}")
        return value

    if suite == "sym-main":
        return run_sym_main(need(field, "a field"), need(n, "n"), m or 0, codim, cap, jobs)
    if suite == "alt-main":
        return run_alt_main(need(field, "a field"), need(n, "n"), m or 0, codim, cap, jobs)
    if suite == "rect-group":
        return run_rect_group(
            need(field, "a field"), need(n, "n"), need(m, "m"), codim, cap, jobs
        )
    if suite == "full-sym-class":
        return run_full_sym_class(need(field, "a field"), need(n, "n"), cap)
    if suite == "full-alt-class":
        return run_full_alt_class(need(field, "a field"), need(n, "n"), cap)
    if suite == "sym-optimality":
        return run_sym_optimality(cap, jobs)
    if suite == "alt-optimality":
        return run_alt_optimality(cap, jobs)
    if suite == "rank1-gaps":
        return run_rank1_gaps(need(field, "a field"), n if n is not None else 3, cap, jobs)
    if suite == "good-functionals":
        return run_good_functionals(need(field, "a field"), cap, jobs)
    if suite == "dim3-alt":
        return run_dim3_alt(need(field, "a field"), cap)
    if suite == "mf-lemma":
        return run_mf_suite(
            need(field, "a field"), r if r is not None else 1, samples, seed, cap, jobs
        )
    if suite == "quotient-lemma":
        return run_quotient_property(trials if trials is not None else 200, seed, jobs, cap)
    if suite == "splitting-lemma":
        return run_splitting_property(trials if trials is not None else 200, seed, jobs, cap)
    raise BadParams(f"unknown suite '{suite}'")
