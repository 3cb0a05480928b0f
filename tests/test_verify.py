"""Suite framework tests: report shapes, case counts, determinism, and
honest failure payloads (checked against a known non-standard map)."""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from functools import partial, reduce
from itertools import product
from operator import and_

import pytest

from rckit.errors import BadParams, RCKitError
from rckit.field import make_field
from rckit.linalg import (
    Matrix,
    SubspaceBasis,
    gaussian_binomial,
    kernel_basis,
    matrix_from_rows,
    pack,
)
from rckit.opspace import (
    Ambient,
    KIND_ALT,
    KIND_FULL,
    KIND_SYM,
    OperatorSpace,
    build_full_sym,
    build_sym_block,
    build_t3,
    dual_rref_rows,
    encode,
    enumerate_subspaces_up_to,
    full_space,
    key_space,
    quotient_projection,
    rref_keys,
    side_by_side,
    space_from_json,
)
from rckit.rcmaps import (
    AdditiveMap,
    MapSpace,
    element_cap,
    is_range_compatible,
    is_standard,
    local_space,
    map_coord_width,
    map_from_coords,
    prime_field,
    standard_space,
)
from rckit import verify as V

from test_linalg import rank
from test_opspace import basis_matrices


def report_from_json(obj: dict) -> V.VerificationReport:
    raw = dict(obj["suite"])
    spec = V.SuiteSpec(
        suite=raw.pop("suite"),
        **{k: raw.get(k) for k in ("field", "n", "m", "codim", "r", "trials", "samples", "seed", "cap")},
    )
    return V.VerificationReport(
        spec,
        obj["casesRun"],
        obj["passes"],
        tuple(dict(f) for f in obj["failures"]),
        obj["wallTime"],
        obj["toolVersion"],
    )

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F8 = make_field(2, 3)

REPORT_KEYS = {"suite", "casesRun", "passes", "failures", "verdict", "wallTime", "toolVersion"}


def strip_time(report):
    obj = report.to_json()
    obj["wallTime"] = None
    return json.dumps(obj, sort_keys=True)


def test_report_shape_and_round_trip():
    rep = V.run_dim3_alt(F2)
    obj = rep.to_json()
    assert set(obj) == REPORT_KEYS
    assert obj["suite"]["suite"] == "dim3-alt"
    assert obj["suite"]["field"] == "2"
    assert obj["verdict"] == "verified"
    assert obj["casesRun"] == obj["passes"] == 1
    assert obj["failures"] == []
    assert isinstance(obj["wallTime"], float)
    back = report_from_json(json.loads(json.dumps(obj)))
    assert back.to_json() == obj


def test_sym_main_counts_and_verdict():
    rep = V.run_sym_main(F2, 3, codim=1)
    assert rep.verified
    assert rep.cases_run == 1 + gaussian_binomial(6, 5, 2) == 64
    assert rep.passes == 64
    spec = rep.spec
    assert (spec.suite, spec.field, spec.n, spec.m, spec.codim) == ("sym-main", "2", 3, 0, 1)


def test_sym_main_rejects_out_of_range_bounds():
    with pytest.raises(BadParams):
        V.run_sym_main(F2, 3, codim=2)
    with pytest.raises(BadParams):
        V.run_sym_main(F2, 1)
    with pytest.raises(BadParams):
        V.run_sym_main(F2, 3, codim=-1)


def test_alt_main_counts_and_admissibility_filter():
    rep = V.run_alt_main(F2, 4, codim=1)
    assert rep.verified and rep.cases_run == 64
    # bound 2 is allowed (n-2), but codimension-2 subspaces fail the
    # restricted-part condition (n-3 = 1) and are skipped, not counted
    rep2 = V.run_alt_main(F2, 4, codim=2)
    assert rep2.verified and rep2.cases_run == 64
    with pytest.raises(BadParams):
        V.run_alt_main(F2, 4, codim=3)
    with pytest.raises(BadParams):
        V.run_alt_main(F2, 2)


def test_rect_group_suite():
    rep = V.run_rect_group(F2, 3, 2, codim=1)
    assert rep.verified and rep.cases_run == 64
    with pytest.raises(BadParams):
        V.run_rect_group(F2, 3, 0)
    with pytest.raises(BadParams):
        V.run_rect_group(F2, 3, 2, codim=2)


def _canonical_sha256(report) -> str:
    """SHA-256 of a report's JSON with sorted keys and without wallTime."""
    obj = report.to_json()
    del obj["wallTime"]
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "run, cases, digest",
    [
        (
            lambda: V.run_sym_main(F4, 3),
            1366,
            "298fac862e92e6d9c02af3916cae278ca6b2353d7829451e73c0d4d31ae29c32",
        ),
        (
            lambda: V.run_rect_group(F4, 3, 1, codim=1),
            22,
            "a4e07569a93dca8a199f67f28b2c207d16f9c208a44f7ff2756d312c2cf932b4",
        ),
    ],
    ids=["sym3-f4", "rect3x1-f4"],
)
def test_gf4_class_suite_reports_are_pinned(run, cases, digest):
    # the digests are those of the element walk's reports, which the Gray
    # walk must reproduce byte for byte (apart from wallTime)
    rep = run()
    assert rep.verified and rep.cases_run == cases
    assert _canonical_sha256(rep) == digest


@pytest.mark.parametrize(
    "run, cases, digest",
    [
        (
            lambda: V.run_sym_main(F2, 4, codim=1),
            1024,
            "0b2ac289fccfd1a1f873dacbdb64875d2db465e2907e1cbe4e2ba6964233c4af",
        ),
        (
            lambda: V.run_sym_main(F3, 3),
            365,
            "17bcca495c1c4b0661e0a63daf71b0127ca1d2ac08bcb883b29ae24d175bb2f1",
        ),
        (
            lambda: V.run_alt_main(F2, 5, codim=1),
            1024,
            "8a6f4be24ebd535bb7a8d404c0c321c5b312081cddbfba39253d7eff6527bf8d",
        ),
        (
            lambda: V.run_alt_main(F2, 4, m=1, codim=1),
            1024,
            "5a3a6aca7b478420921a9b93e1bd1ea1683e2e42798368ee8223fdb0943ba653",
        ),
        (
            lambda: V.run_alt_main(F4, 3, m=1),
            22,
            "dae574f4df1ea9031f77a8ca098974edab4d3d5660c88644fccec5a8515d8b05",
        ),
        (
            lambda: V.run_rect_group(F2, 3, 2, codim=1),
            64,
            "ead96d66b30cf0ee1da568a7d2afb3d82f6686411ddd1c5ef84c7d5566c5e1ec",
        ),
        (
            lambda: V.run_rect_group(F3, 3, 2, codim=1),
            365,
            "96ec9a1e3a91f8c2c35fd5333505ba6aa1a421ab2f6a4897c5d0367ac8a0a3f1",
        ),
        (
            lambda: V.run_alt_main(F3, 4),
            365,
            "f839b5a7634beeb6da92c9fab2929fbbe14eabc8a1c5561b1e5f448671c8cbb3",
        ),
    ],
    ids=[
        "sym4c1-f2",
        "sym3-f3",
        "alt5c1-f2",
        "alt4x1c1-f2",
        "alt3x1-f4",
        "rect3x2-f2",
        "rect3x2-f3",
        "alt4-f3",
    ],
)
def test_certified_class_suite_reports_are_pinned(run, cases, digest):
    # the digests are those of the walks in Gray or odometer order alone,
    # which the low-weight prefix must reproduce byte for byte (apart from
    # wallTime): over F_2, over F_3 and with the alternating local target;
    # alt4x1c1-f2 to rect3x2-f3 are those of the driver that solved every
    # case on its own, which the one solve per congruence class must
    # reproduce too; alt4-f3, taken from the class driver, is the one that
    # keys multi-row cases over odd q (through echelonize)
    rep = run()
    assert rep.verified and rep.cases_run == cases
    assert _canonical_sha256(rep) == digest


@pytest.mark.parametrize(
    "run, cases, digest",
    [
        (
            lambda: V.run_quotient_property(200, 0),
            200,
            "3ca4ce52498b180620ae4a4f9448cce1692c7b43f10e0806a9e232c1c6fd4aed",
        ),
        (
            lambda: V.run_splitting_property(200, 0),
            200,
            "85c57252fe2e128b8b3864870ec8341a4ac62322ab8cef22cd7f7842a5c34fb9",
        ),
        (
            lambda: V.run_alt_main(F2, 3, m=1),
            8,
            "bd7e5b87de333e61c396bb3f90471c5e9a8d0140b7ca42e95caae5c0c6cbc636",
        ),
        (
            lambda: V.run_alt_main(F3, 3, m=1),
            14,
            "24753d5d490f9eb5fa075e5d193a34bcbc2ebc262949a3d65f4400dad34e44ff",
        ),
    ],
    ids=["quotient-lemma", "splitting-lemma", "alt3x1-f2", "alt3x1-f3"],
)
def test_lemma_and_admissibility_reports_are_pinned(run, cases, digest):
    # the digests are those of the reports from products, joins and splits
    # built by padding and slicing matrices, and of the admissibility filter
    # built by intersecting with an annihilator
    rep = run()
    assert rep.verified and rep.cases_run == cases
    assert _canonical_sha256(rep) == digest


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "run, cases, digest",
    [
        (
            lambda jobs: V.run_rank1_gaps(F2, 3, jobs=jobs),
            2824,
            "ef8d46ea3530ee39243b03bb248d881b03fd2c01a8bdc9135f7e1928f2838bd0",
        ),
        (
            lambda jobs: V.run_rank1_gaps(F3, 3, jobs=jobs),
            56631,
            "108221e30b722ea39992d32a973ae7cacb07b083650a7490bd6f32ae73bbe9f0",
        ),
        (
            lambda jobs: V.run_good_functionals(F2, jobs=jobs),
            576,
            "f0cb0b2f26dd71c815a35213551d45d5d0ea385b1f1c27f0c5ab2f0e94fa9254",
        ),
        (
            lambda jobs: V.run_good_functionals(F3, jobs=jobs),
            10207,
            "1fecad01d606c1c97345d48ac76195204d7b0bdabffd3c23896d4d0c8b679008",
        ),
    ],
    ids=["rank1-f2", "rank1-f3", "good-functionals-f2", "good-functionals-f3"],
)
def test_rank1_and_good_functional_reports_are_pinned(run, cases, digest, jobs):
    # the digests are those of the reports from one pool case per
    # annihilator or per subspace and of quotients built by decode, matmul
    # and echelon form
    rep = run(jobs)
    assert rep.verified and rep.cases_run == cases
    assert _canonical_sha256(rep) == digest


@pytest.mark.parametrize(
    "run, cases, digest",
    [
        (
            lambda: V.run_sym_optimality(),
            3,
            "fc538e41bbcdcef36a8a470620fbdfe6677da2393770ea05747608592a35f2c9",
        ),
        (
            lambda: V.run_alt_optimality(),
            4,
            "4f769306d4b762a699842974bed3f6425dc998b8c2992b5eeb31eb5b90faad5d",
        ),
        (
            lambda: V.run_full_sym_class(F2, 3),
            1,
            "6d3189f604ea7606892a6038e04aa6afdb525007303357dc49862640495846e5",
        ),
        (
            lambda: V.run_full_sym_class(F3, 3),
            1,
            "d3f8bf127298c25092c86ea78d217a3d69ac7994bcbf2e6fd32330c21874bc18",
        ),
        (
            lambda: V.run_full_sym_class(F4, 2),
            1,
            "0712190dc67fc9206c88c2c84f9418a52d8cb201d5f4744bbd669bf9ff374ad8",
        ),
        (
            lambda: V.run_full_alt_class(F2, 4),
            1,
            "994ad032d64dbbb9ef42ccd7ff8a057e7af1b7e5374713fb0d02b559b81b108d",
        ),
        (
            lambda: V.run_full_alt_class(F3, 4),
            1,
            "25835311088a705e244a5c3db545e4b283f51a1370214f7ea56e21cf5658b5e5",
        ),
        (
            lambda: V.run_full_alt_class(F4, 3),
            1,
            "30fb7e82dc8bd6ef6daccbadbbf4ecb95671e3e5a1162e6e0d1374a696a7ebdb",
        ),
        (
            lambda: V.run_dim3_alt(F3),
            1,
            "82fa8199e904c763c4c529991854be705e0e47ad9de46040df1923efb894d9ea",
        ),
        (
            lambda: V.run_dim3_alt(F4),
            1,
            "0c3e6d7afed36999f519ab463c62a76d1c9b56bbcb9c2e191b711820d9cdb93d",
        ),
        (
            lambda: V.run_mf_suite(F2, 1),
            8,
            "1b43126fdf9bf23e5ec4ae46b9337976529e80bbd3a55a5fdf4fd360aa881651",
        ),
        (
            lambda: V.run_mf_suite(F3, 1),
            27,
            "6bba6c552527fdd993e96818f426cec3b42f47648dc5b8cf10b4d1f1eaf78993",
        ),
    ],
    ids=[
        "sym-optimality", "alt-optimality", "full-sym3-f2", "full-sym3-f3",
        "full-sym2-f4", "full-alt4-f2", "full-alt4-f3", "full-alt3-f4",
        "dim3-alt-f3", "dim3-alt-f4", "mf-f2", "mf-f3",
    ],
)
def test_small_suite_reports_are_pinned(run, cases, digest):
    # the digests were taken when the solve (the class, dim3-alt and mf
    # suites) and the range check (the optimality witnesses) each had walks
    # of their own; the shared constraint-row stream must reproduce them
    # byte for byte (apart from wallTime)
    rep = run()
    assert rep.verified and rep.cases_run == cases
    assert _canonical_sha256(rep) == digest


def test_full_class_suites():
    for f, n in ((F2, 2), (F2, 3), (F3, 2), (F4, 2)):
        rep = V.run_full_sym_class(f, n)
        assert rep.verified, rep.failures
    for f, n in ((F2, 3), (F3, 3), (F2, 4)):
        rep = V.run_full_alt_class(f, n)
        assert rep.verified, rep.failures


def _zero_maps(space):
    return MapSpace(space, SubspaceBasis.zero(prime_field(space), map_coord_width(space)))


_ALT3_LOCAL = [(1, 0, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 1, 0)]
_SYM2_DIAGONAL = [(0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 1)]


@pytest.mark.parametrize(
    "name, replacement, run, expected",
    [
        # the local maps in place of the standard ones: the diagonal
        # root-linear maps are reported, then the dimension gap
        (
            "standard_space",
            local_space,
            partial(V.run_full_sym_class, F2, 2),
            [(v, "range-compatible map is not standard") for v in _SYM2_DIAGONAL]
            + [(None, "standard dimension 2 != local dimension 2 + 1")],
        ),
        # a solver that drops the diagonal maps: they are missing, and the
        # brute-force filter finds more maps than the solved space holds
        (
            "rc_solution_space",
            lambda space, cap=None, target=None: local_space(space),
            partial(V.run_full_sym_class, F2, 2),
            [(v, "standard map missing from the solution space") for v in _SYM2_DIAGONAL]
            + [(None, "brute-force count 8 != p^dim 4")],
        ),
        (
            "local_space",
            _zero_maps,
            partial(V.run_full_alt_class, F2, 3),
            [(v, "linear range-compatible map is not local") for v in _ALT3_LOCAL],
        ),
        (
            "linear_rc_space",
            lambda rc: _zero_maps(rc.domain),
            partial(V.run_full_alt_class, F2, 3),
            [(v, "local map missing from the linear solution space") for v in _ALT3_LOCAL],
        ),
    ],
    ids=["sym2-standard-too-small", "sym2-solution-too-small", "alt3-local-zero", "alt3-linear-zero"],
)
def test_full_class_suites_report_each_mismatch(monkeypatch, name, replacement, run, expected):
    monkeypatch.setattr(V, name, replacement)
    rep = run()
    got = [(None if f["map"] is None else tuple(f["map"]), f["reason"]) for f in rep.failures]
    assert got == expected
    assert rep.cases_run == 1 and rep.passes == 0


def test_standard_class_case_reports_standard_maps_missing_from_the_solution(monkeypatch):
    # a solver that drops the diagonal root-linear maps of Sym(2) over F_2
    # and cannot certify: every one of them must be reported missing
    space = build_full_sym(F2, 2)
    monkeypatch.setattr(
        V, "rc_solution_space", lambda s, cap=None, target=None: local_space(s)
    )
    fails = V._standard_class_case(1 << 20, space)
    assert [(tuple(f["map"]), f["reason"]) for f in fails] == [
        (v, "standard map missing from the solution space") for v in _SYM2_DIAGONAL
    ]


def test_optimality_suites():
    rep = V.run_sym_optimality()
    assert rep.verified and rep.cases_run == 3
    rep = V.run_alt_optimality()
    assert rep.verified and rep.cases_run == 4


def test_determinism_across_worker_counts():
    serial = V.run_sym_main(F2, 3, codim=1, jobs=1)
    parallel = V.run_sym_main(F2, 3, codim=1, jobs=3)
    assert strip_time(serial) == strip_time(parallel)
    s1 = V.run_splitting_property(trials=12, seed=9, jobs=1)
    s2 = V.run_splitting_property(trials=12, seed=9, jobs=4)
    assert strip_time(s1) == strip_time(s2)
    # the t3 orbits reach the pool workers through partial
    g1 = V.run_good_functionals(F2, jobs=1)
    g2 = V.run_good_functionals(F2, jobs=2)
    assert strip_time(g1) == strip_time(g2)


def test_determinism_through_the_pool(monkeypatch, forks):
    # the comparisons above hand _map_cases too few cases to fork; 200
    # trials at jobs=2 fork two workers
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    serial = V.run_splitting_property(trials=200, seed=9, jobs=1)
    assert forks == []
    parallel = V.run_splitting_property(trials=200, seed=9, jobs=2)
    assert len(forks) == 2
    assert serial.cases_run == 200
    assert strip_time(serial) == strip_time(parallel)


def test_pool_size_clamps_to_cpus_and_cases(monkeypatch):
    # a worker is forked only for every 64 cases
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    assert V._pool_size(2, 127) == 1
    assert V._pool_size(2, 128) == 2
    assert V._pool_size(1, 1000) == 1
    assert V._pool_size(8, 1000) == 2
    assert V._pool_size(2, 0) == 0
    monkeypatch.setattr(V.os, "cpu_count", lambda: 16)
    assert V._pool_size(8, 300) == 4
    assert V._pool_size(8, 1000) == 8
    monkeypatch.setattr(V.os, "cpu_count", lambda: None)
    assert V._pool_size(8, 1000) == 1


def _case_and_pid(case):
    return case, os.getpid()


def test_map_cases_forks_only_for_64_cases_per_worker(monkeypatch):
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)

    def no_fork():
        raise AssertionError("forked for fewer than 64 cases per worker")

    with monkeypatch.context() as m:
        m.setattr(V.os, "fork", no_fork)
        out = V._map_cases(_case_and_pid, range(127), jobs=2)
    assert out == [(c, os.getpid()) for c in range(127)]
    out = V._map_cases(_case_and_pid, range(130), jobs=2)
    assert [c for c, _ in out] == list(range(130))
    assert os.getpid() not in {pid for _, pid in out}


def _slow_and_fast_failures(case):
    # case 5 is the first to fail, but it fails last
    if case == 5:
        time.sleep(0.3)
        raise BadParams("case 5")
    if case == 150:
        raise BadParams("case 150")
    return case


def test_map_cases_raises_the_first_failing_case(monkeypatch):
    # the error --jobs 1 raises, whichever worker fails first
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        with pytest.raises(BadParams, match="^case 5$"):
            V._map_cases(_slow_and_fast_failures, range(200), jobs=jobs)


def test_map_cases_reports_an_error_that_does_not_pickle(monkeypatch):
    # a local class does not pickle: the worker sends its repr instead
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)

    class Local(Exception):
        pass

    def worker(case):
        if case == 10:
            raise Local("case 10")
        return case

    with pytest.raises(RCKitError, match=r"Local\('case 10'\)"):
        V._map_cases(worker, range(200), jobs=2)


def _alarm(signum, frame):
    raise TimeoutError("_map_cases hung")


def _killed_on_case_100(parent, case):
    if case == 100 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return case


def test_map_cases_raises_when_a_worker_is_killed(monkeypatch):
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    worker = partial(_killed_on_case_100, os.getpid())
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with pytest.raises(RCKitError, match="sent no results"):
            V._map_cases(worker, range(200), jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [0, -3])
def test_pool_size_rejects_nonpositive_jobs(jobs):
    with pytest.raises(BadParams):
        V._pool_size(jobs, 10)


def test_failure_payload_replays():
    # the diagonal-block space admits a Frobenius map that is
    # range-compatible but not standard, so the case predicate must report
    # it; the payload must rebuild into the same verdicts
    space = build_sym_block(F4, 3)
    fails = V._standard_class_case(1 << 20, space)
    assert fails, "expected a non-standard range-compatible map"
    payload = fails[0]
    assert set(payload) == {"space", "map", "reason"}
    assert "not standard" in payload["reason"]
    rebuilt = space_from_json(payload["space"])
    assert rebuilt.basis == space.basis
    f_map = map_from_coords(rebuilt, tuple(payload["map"]))
    assert is_range_compatible(f_map)
    assert not is_standard(f_map)


def _reference_class_case(space, standard, full_walk):
    """A class case's failures from the full walk, with no target, and the
    canonical standard or local space built eagerly, compared both ways."""
    rc = full_walk(space)
    what = "standard" if standard else "local"
    target = standard_space(space) if standard else local_space(space)
    out = [
        V._failure(space, vec, f"range-compatible map is not {what}")
        for vec in rc.basis.vectors
        if not target.basis.member(vec)
    ]
    out.extend(
        V._failure(space, vec, f"{what} map missing from the solution space")
        for vec in target.basis.vectors
        if not rc.basis.member(vec)
    )
    return out


@pytest.mark.parametrize(
    "amb, standard",
    [
        (Ambient(F2, KIND_SYM, 3, 0), True),
        (Ambient(F2, KIND_SYM, 4, 0), True),
        (Ambient(F3, KIND_SYM, 3, 0), True),
        (Ambient(F2, KIND_ALT, 4, 0), False),
        (Ambient(F2, KIND_ALT, 5, 0), False),
        (Ambient(F2, KIND_FULL, 3, 2), False),
        # local is smaller than RC here, so every case fails
        (Ambient(F2, KIND_SYM, 3, 0), False),
    ],
    ids=["sym3-f2", "sym4-f2", "sym3-f3", "alt4-f2", "alt5-f2", "rect3x2-f2", "sym3-f2-local"],
)
def test_class_cases_match_full_walk_reference(amb, standard, full_walk):
    case = V._standard_class_case if standard else V._local_class_case
    failing = 0
    for s in enumerate_subspaces_up_to(amb, 1):
        got = case(1 << 20, s)
        assert got == _reference_class_case(s, standard, full_walk)
        failing += bool(got)
    if not standard and amb.kind == KIND_SYM:
        assert failing == 64


def test_sym_block_space_is_outside_the_theorem_range():
    # the witness family has codimension n-1, one more than the suite will
    # ever enumerate, so the failing case above does not contradict sym-main
    space = build_sym_block(F4, 3)
    assert space.codim == 2 == space.ambient.n - 1


def test_rank1_gap_suite_counts():
    rep = V.run_rank1_gaps(F2, 3)
    total = sum(gaussian_binomial(6, 6 - c, 2) for c in range(1, 7))
    assert rep.verified and rep.cases_run == total == 2824
    with pytest.raises(BadParams):
        V.run_rank1_gaps(F2, 2)


def _slow_gap_count(field, n, ann_rows):
    """Gap lines counted by membership of every c x x^T in the kernel."""
    amb = Ambient(field, KIND_SYM, n, 0)
    w = kernel_basis(matrix_from_rows(field, ann_rows))
    gaps = 0
    for x in V.line_reps(field, n):
        hit = False
        for c in range(1, field.q):
            entries = tuple(
                field.mul(c, field.mul(x[i], x[j])) for i in range(n) for j in range(n)
            )
            hit = hit or w.member(encode(amb, Matrix(field, n, n, entries)))
        gaps += not hit
    return gaps


def _random_rref(field, dim, rng):
    """A random annihilator in the reduced row echelon form of dual_rref_rows."""
    rank = rng.randint(1, dim)
    pivots = sorted(rng.sample(range(dim), rank))
    rows = []
    for p in pivots:
        row = [0] * dim
        row[p] = 1
        for col in range(p + 1, dim):
            if col not in pivots:
                row[col] = rng.randrange(field.q)
        rows.append(tuple(row))
    return tuple(rows)


def test_rank1_gap_masks_match_kernel_membership():
    d = Ambient(F2, KIND_SYM, 3, 0).dim
    f2_cases = [
        tuple(tuple(r) for r in rows)
        for c in range(1, d + 1)
        for rows in dual_rref_rows(F2, d, c)
    ]
    rng = random.Random(7)
    for field, cases in (
        (F2, f2_cases),
        (F3, [_random_rref(F3, d, rng) for _ in range(300)]),
        (F4, [_random_rref(F4, d, rng) for _ in range(300)]),
    ):
        # as run_rank1_gaps builds them: one mask per row with leading entry
        # 1, keyed by the packed row; a case ANDs the masks of its rows
        masks = V._orthogonal_masks(field, V._rank1_candidates(field, 3), V.line_reps(field, d))
        bits = (field.q - 1).bit_length()
        in_w = [reduce(and_, [masks[pack(r, bits)] for r in rows]) for rows in cases]
        assert V._gap_counts(field, 3, in_w) == [_slow_gap_count(field, 3, rows) for rows in cases]


def test_rank1_case_reports_a_space_without_gaps():
    # a zero candidate lies in every subspace: with only zero candidates,
    # each case of the pivot set (0,) fails as the space of its key
    amb = Ambient(F3, KIND_SYM, 3, 0)
    zeros = [(0,) * 6] * len(V._rank1_candidates(F3, 3))
    masks = V._orthogonal_masks(F3, zeros, V.line_reps(F3, 6))
    cases = V._rank1_pivot_set(F3, 3, masks, (0,))
    assert len(cases) == 3**5
    for fails, key in zip(cases, rref_keys(F3, 6, (0,))):
        assert [f["reason"] for f in fails] == ["only 0 gap line(s); expected at least 2"]
        space = key_space(amb, key)
        assert space_from_json(fails[0]["space"]) == space and space.codim == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_rank1_failures_follow_the_case_by_case_order(jobs, monkeypatch):
    # zero candidates lie in every subspace, so no line is a gap and every
    # case fails; the failures must be those of a case-by-case run over
    # dual_rref_rows, space for space and in its order
    amb = Ambient(F2, KIND_SYM, 3, 0)
    d, ncand = amb.dim, len(V._rank1_candidates(F2, 3))
    monkeypatch.setattr(V, "_rank1_candidates", lambda field, n: [(0,) * d] * ncand)
    rep = V.run_rank1_gaps(F2, 3, jobs=jobs)
    want = [
        V._failure(OperatorSpace(amb, kernel_basis(matrix_from_rows(F2, rows))), None,
                   "only 0 gap line(s); expected at least 2")
        for c in range(1, d + 1)
        for rows in dual_rref_rows(F2, d, c)
    ]
    assert rep.cases_run == 2824 and rep.passes == 0
    assert list(rep.failures) == want


def test_cli_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rckit.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_good_functional_suite_and_good_line_counter():
    rep = V.run_good_functionals(F2)
    assert rep.verified and rep.cases_run == (1 + 63) + (1 + 511)
    good, overflow = V._good_lines(build_full_sym(F2, 3))
    assert (good, overflow) == (7, 0)


def _matrix_good_lines(space):
    """The reference good-line count: for each line, P from
    quotient_projection, each basis vector decoded and multiplied by P, and
    the quotient dimension from the echelon form of the products."""
    amb = space.ambient
    field, n = amb.field, amb.nrows
    rect_dim = (n - 1) * amb.ncols
    self_adjoint_dim = (n - 1) * n // 2 + (n - 1) * (amb.ncols - n + 1)
    count = overflow = 0
    for x in V.line_reps(field, n):
        p = quotient_projection(space, SubspaceBasis.from_vectors(field, n, [x]))
        vecs = [p.matmul(mat).entries for mat in basis_matrices(space)]
        dim = SubspaceBasis.from_vectors(field, rect_dim, vecs).dim
        if dim > self_adjoint_dim:
            overflow += 1
        elif self_adjoint_dim - dim <= n - 3:
            count += 1
    return count, overflow


def test_good_lines_match_the_matrix_reference():
    # every case of good-functionals over F_2, then the full spaces and
    # seeded samples of the codim-1 cases over F_3, F_4 and F_8
    for m in (0, 1):
        for s in enumerate_subspaces_up_to(Ambient(F2, KIND_SYM, 3, m), 1):
            assert V._good_lines(s) == _matrix_good_lines(s)
    rng = random.Random(11)
    for field in (F3, F4, F8):
        for m in (0, 1):
            amb = Ambient(field, KIND_SYM, 3, m)
            assert V._good_lines(full_space(amb)) == _matrix_good_lines(full_space(amb))
            for _ in range(40):
                row = _random_rref(field, amb.dim, rng)[0]
                s = OperatorSpace(amb, kernel_basis(matrix_from_rows(field, [row])))
                assert V._good_lines(s) == _matrix_good_lines(s)


def _t3_class(m):
    amb = Ambient(F2, KIND_SYM, 3, m)
    return V._t3_class(amb, *V._congruence_classes(amb, 1, 1 << 20))


def test_good_line_counts_match_t3_orbit():
    # exactly the spaces congruent to the t3 block have only two good lines
    orbit = _t3_class(0)
    amb = Ambient(F2, KIND_SYM, 3, 0)
    two_good = set()
    for s in enumerate_subspaces_up_to(amb, 1):
        good, _ = V._good_lines(s)
        if good == 2:
            two_good.add(s.basis)
    assert two_good == set(orbit)
    assert len(orbit) == 21


def _brute_t3_orbit(field, m):
    """Every [Q^T A Q | Q^T (A U + R)] over invertible Q and any U, from the
    t3 block with free tail: |GL_3(q)| * q^(3m) images, with
    [A | R] [[Q, U], [0, I_m]] = [A Q | A U + R]."""
    base = build_t3(field)
    if m:
        base = side_by_side(base, full_space(Ambient(field, KIND_FULL, 3, m)))
    mats = basis_matrices(base)
    out = set()
    for entries in product(range(field.q), repeat=9):
        q = Matrix(field, 3, 3, entries)
        if rank(q) < 3:
            continue
        qt = q.transpose()
        for u in product(range(field.q), repeat=3 * m):
            right = matrix_from_rows(
                field,
                [list(q.row_tuple(i)) + list(u[i * m : (i + 1) * m]) for i in range(3)]
                + [[0] * 3 + [int(j == i) for j in range(m)] for i in range(m)],
            )
            vecs = [encode(base.ambient, qt.matmul(a).matmul(right)) for a in mats]
            out.add(SubspaceBasis.from_vectors(field, base.ambient.dim, vecs))
    return frozenset(out)


@pytest.mark.parametrize("m", [0, 1])
def test_t3_class_matches_brute_force(m):
    # the congruence class of the t3 block with free tail is its whole orbit
    orbit = _t3_class(m)
    assert orbit == _brute_t3_orbit(F2, m)
    assert len(orbit) == 21


def test_mf_suite_exhaustive_and_sampled():
    rep = V.run_mf_suite(F2, r=1)
    assert rep.verified and rep.cases_run == 8
    assert rep.spec.samples is None
    a = V.run_mf_suite(F3, r=1, samples=15, seed=4)
    b = V.run_mf_suite(F3, r=1, samples=15, seed=4)
    assert a.verified and a.cases_run == 15
    assert strip_time(a) == strip_time(b)
    with pytest.raises(BadParams):
        V.run_mf_suite(F2, r=0)
    with pytest.raises(BadParams):
        V.run_mf_suite(F2, r=1, samples=0)


def test_dim3_alt_suite():
    for f in (F2, F3, F4):
        assert V.run_dim3_alt(f).verified


def test_randomized_property_suites():
    rep = V.run_quotient_property(trials=40, seed=7)
    assert rep.verified and rep.cases_run == 40
    rep = V.run_splitting_property(trials=30, seed=7)
    assert rep.verified and rep.cases_run == 30
    with pytest.raises(BadParams):
        V.run_quotient_property(trials=0)


def test_quotient_trial_catches_a_perturbed_quotient_map(monkeypatch):
    # the commute check reads G's values and the carried P F(s) apart, so a
    # quotient map with one value moved must fail it on every trial
    real = V.quotient_map
    perturbed = []

    def one_value_moved(f_map, w, p_mat=None):
        g = real(f_map, w, p_mat)
        values = [list(v) for v in g.values]
        if values and values[0]:
            values[0][0] = g.domain.ambient.field.add(values[0][0], 1)
            perturbed.append(True)
        return AdditiveMap(g.domain, tuple(tuple(v) for v in values))

    monkeypatch.setattr(V, "quotient_map", one_value_moved)
    caught = 0
    for idx in range(60):
        perturbed.clear()
        reasons = [fail["reason"] for fail in V._quotient_trial(3, element_cap(), idx)]
        if perturbed:
            assert reasons == ["quotient map does not commute with the projection"], idx
            caught += 1
        else:
            assert reasons == [], idx
    assert caught >= 20


def test_run_suite_dispatch():
    rep = V.run_suite("dim3-alt", field=F2)
    assert rep.spec.suite == "dim3-alt" and rep.verified
    rep = V.run_suite("quotient-lemma", trials=5, seed=1)
    assert rep.cases_run == 5
    with pytest.raises(BadParams):
        V.run_suite("no-such-suite")
    with pytest.raises(BadParams):
        V.run_suite("sym-main")  # missing field and n
    assert set(V.SUITE_IDS) >= {"sym-main", "alt-main", "mf-lemma"}


def test_full_sym_class_cross_checks_with_brute_force():
    # widths small enough that the report exercises the naive filter branch
    space = build_full_sym(F2, 2)
    assert F2.p ** (space.dim * space.ambient.nrows) <= 1 << 20
    rep = V.run_full_sym_class(F2, 2)
    assert rep.verified
