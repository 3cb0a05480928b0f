"""Acceptance suite: eight end-to-end criteria, one test (and one printed
pass line) per criterion.  Expected dimensions were derived once from the
brute-force all-additive-maps oracle and are frozen here; each criterion
also re-checks itself against an independent route where one fits.
"""

from __future__ import annotations

import json
import time

from rckit.cli import main
from rckit.field import make_field
from rckit.linalg import SubspaceBasis, annihilator
from rckit.opspace import (
    Ambient,
    KIND_ALT,
    KIND_SYM,
    build_full_alt,
    build_full_sym,
    build_sym_block,
    build_u2_block,
    enumerate_subspaces,
)
from rckit.rcmaps import (
    local_space,
    map_coord_width,
    naive_rc_maps,
    rc_solution_space,
    root_linear_forms,
    standard_space,
)
from rckit.verify import (
    run_alt_main,
    run_alt_optimality,
    run_dim3_alt,
    run_full_alt_class,
    run_mf_suite,
    run_quotient_property,
    run_splitting_property,
    run_sym_main,
    run_sym_optimality,
)

from test_opspace import build_full_rect

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)

ORACLE_MAP_LIMIT = 1 << 20

# frozen from the oracle: F_p-dimension of the full solution space on Sym(n)
FULL_SYM_RC_DIMS = {("2", 2): 3, ("2", 3): 4, ("3", 2): 2, ("3", 3): 3, ("2^2", 2): 6}


def test_criterion_1_full_symmetric_classification():
    t0 = time.monotonic()
    fields = {"2": F2, "3": F3, "2^2": F4}
    oracle_hits = 0
    for (label, n), want in FULL_SYM_RC_DIMS.items():
        f = fields[label]
        space = build_full_sym(f, n)
        rc = rc_solution_space(space)
        loc = local_space(space)
        extra = len(root_linear_forms(f))  # k in characteristic 2, else 0
        assert rc.dim == want, (label, n, rc.dim)
        assert rc.dim == loc.dim + extra, (label, n)
        std = standard_space(space)
        assert rc.basis == std.basis, (label, n)
        if f.p ** map_coord_width(space) <= ORACLE_MAP_LIMIT:
            brute = naive_rc_maps(space)
            assert len(brute) == f.p**rc.dim
            assert all(rc.contains_coords(c) for c in brute)
            oracle_hits += 1
    assert oracle_hits == 3  # (2,2), (2,3) and (3,2) fit under the map cap
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"{elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - full Sym(n) dims {FULL_SYM_RC_DIMS} confirmed, "
          f"{oracle_hits} oracle cross-checks ({elapsed:.1f}s)")


def test_criterion_2_symmetric_codim_one_exhaustive():
    t0 = time.monotonic()
    rep2 = run_sym_main(F2, 3, codim=1, jobs=4)
    assert rep2.verified and rep2.cases_run == 64
    rep3 = run_sym_main(F3, 3, codim=1, jobs=4)
    assert rep3.verified and rep3.cases_run == (3**6 - 1) // 2 + 1 == 365
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"{elapsed:.1f}s"
    print(f"\nACCEPTANCE 2: PASS - Sym(3) codim<=1: 64 cases over GF(2), "
          f"365 over GF(3), zero failures ({elapsed:.1f}s)")


def test_criterion_3_alternating_codim_one_exhaustive():
    t0 = time.monotonic()
    rep = run_alt_main(F2, 4, codim=1, jobs=4)
    assert rep.verified and rep.cases_run == 64
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"{elapsed:.1f}s"
    print(f"\nACCEPTANCE 3: PASS - Alt(4)/GF(2) codim<=1: 64 cases, "
          f"solution space == local maps ({elapsed:.1f}s)")


def test_criterion_4_full_alternating_linear_classification():
    t0 = time.monotonic()
    checked = 0
    for f in (F2, F3):
        for n in (0, 1, 2, 3, 4):
            rep = run_full_alt_class(f, n)
            assert rep.verified, (f.label, n, rep.failures)
            checked += 1
    # anchor: on Alt(4)/GF(2) the local maps have dimension 4 and exhaust
    # the solution space
    space = build_full_alt(F2, 4)
    assert local_space(space).dim == 4
    assert rc_solution_space(space).basis == local_space(space).basis
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"{elapsed:.1f}s"
    print(f"\nACCEPTANCE 4: PASS - linear solutions == local on Alt(n), "
          f"{checked} (field, n) pairs, n<=4, q in {{2,3}} ({elapsed:.1f}s)")


def test_criterion_5_optimality_witnesses():
    rep_s = run_sym_optimality()
    rep_a = run_alt_optimality()
    assert rep_s.verified and rep_s.cases_run == 3, rep_s.failures
    assert rep_a.verified and rep_a.cases_run == 4, rep_a.failures
    print("\nACCEPTANCE 5: PASS - all optimality witnesses confirmed: "
          "diag-block/GF(4) non-standard, corner map at codim 2n-3 (GF(2), GF(3)), "
          "first-column/GF(4) non-local, codim 2n-5 (GF(2), GF(3)) and 2n-6 (GF(2)) "
          "linear non-local")


def test_criterion_6_dimension_three_alternating_and_trace_family():
    rep = run_dim3_alt(F2)
    assert rep.verified
    rep = run_dim3_alt(F3)
    assert rep.verified
    exhaust = run_mf_suite(F2, r=1, jobs=2)
    assert exhaust.verified and exhaust.cases_run == 8
    sampled = run_mf_suite(F3, r=1, samples=100, seed=0, jobs=4)
    assert sampled.verified and sampled.cases_run == 100
    print("\nACCEPTANCE 6: PASS - Alt(3) solutions local over GF(2)/GF(3); "
          "trace-constrained family: 8 exhaustive tensors (GF(2)) and 100 "
          "sampled (GF(3)), zero failures")


def _oracle_domains():
    """Every subspace of three tiny ambients plus the named families whose
    map coordinate count stays at or below 12."""
    domains = []
    for amb in (
        Ambient(F2, KIND_ALT, 3, 0),
        Ambient(F2, KIND_SYM, 2, 0),
        Ambient(F3, KIND_SYM, 2, 0),
    ):
        for c in range(amb.dim + 1):
            domains.extend(enumerate_subspaces(amb, c))
    domains.extend(
        [
            build_sym_block(F2, 3),
            build_u2_block(F2, 3),
            build_full_rect(F2, 2, 2),
            build_full_alt(F3, 3),
        ]
    )
    assert all(map_coord_width(s) <= 12 for s in domains)
    return domains


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    quo = run_quotient_property(trials=1000, seed=0, jobs=4)
    assert quo.verified and quo.cases_run == 1000, quo.failures[:2]
    split = run_splitting_property(trials=1000, seed=0, jobs=4)
    assert split.verified and split.cases_run == 1000, split.failures[:2]

    # double annihilator: ann(ann(V)) == V for every subspace of F_2^3 and
    # for spot checks over F_3 and F_4
    import random

    for c in range(4):
        amb = Ambient(F2, KIND_SYM, 1, 2)  # any 3-dim coordinate space
        for s in enumerate_subspaces(amb, c):
            v = s.basis
            assert annihilator(annihilator(v)) == v
    rng = random.Random(11)
    for f in (F3, F4):
        for _ in range(25):
            vecs = [
                tuple(rng.randrange(f.q) for _ in range(4))
                for _ in range(rng.randint(0, 4))
            ]
            v = SubspaceBasis.from_vectors(f, 4, vecs)
            assert annihilator(annihilator(v)) == v

    # solver == oracle on every domain with coordinate count <= 12
    checked = 0
    for space in _oracle_domains():
        rc = rc_solution_space(space)
        brute = naive_rc_maps(space)
        p = space.ambient.field.p
        assert len(brute) == p**rc.dim, space
        assert all(rc.contains_coords(coords) for coords in brute), space
        checked += 1
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 7: PASS - 1000 quotient triples, 1000 splitting "
          f"instances, double-annihilator identities, solver == oracle on "
          f"{checked} domains ({elapsed:.1f}s)")


def test_criterion_8_byte_identical_reports_across_jobs(tmp_path):
    outputs = {}
    for field, n in (("2", 3), ("3", 3)):
        for jobs in ("1", "8"):
            out = tmp_path / f"sym-{field}-j{jobs}.json"
            code = main(
                ["verify", "--suite", "sym-main", "--field", field, "--n", str(n),
                 "--codim", "1", "--jobs", jobs, "--out", str(out)]
            )
            assert code == 0
            obj = json.loads(out.read_text())
            obj["wallTime"] = None
            outputs[(field, jobs)] = json.dumps(obj, sort_keys=True).encode()
    assert outputs[("2", "1")] == outputs[("2", "8")]
    assert outputs[("3", "1")] == outputs[("3", "8")]
    print("\nACCEPTANCE 8: PASS - verify --jobs 1 and --jobs 8 emit "
          "byte-identical reports (wallTime excluded) for both criterion-2 runs")
