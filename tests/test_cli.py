"""CLI tests: exit codes, JSON artifacts, and cross-worker determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from rckit import verify
from rckit.cli import main
from rckit.field import make_field
from rckit.opspace import build_space, space_to_json
from rckit.rcmaps import root_linear_forms
from rckit.verify import SuiteSpec, VerificationReport

from test_rcmaps import diag_root_linear_map, local_map, map_to_json

F2 = make_field(2)


def canonical(path, null_time=True):
    with open(path) as fh:
        obj = json.load(fh)
    if null_time:
        if isinstance(obj, list):
            for entry in obj:
                entry["wallTime"] = None
        else:
            obj["wallTime"] = None
    return json.dumps(obj, sort_keys=True)


def test_verify_verb_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "sym-main", "--field", "2", "--n", "3",
         "--codim", "1", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "sym-main: verified" in stdout
    report = json.loads(out.read_text())
    assert report["verdict"] == "verified"
    assert report["casesRun"] == 64
    assert report["suite"] == {
        "suite": "sym-main", "field": "2", "n": 3, "m": 0, "codim": 1,
        "cap": 1 << 20,
    }


def test_verify_reports_are_deterministic_across_jobs(tmp_path):
    paths = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.json"
        assert main(
            ["verify", "--suite", "alt-main", "--field", "2", "--n", "4",
             "--codim", "1", "--jobs", jobs, "--out", str(out)]
        ) == 0
        paths.append(out)
    assert canonical(paths[0]) == canonical(paths[1])


def test_verify_bad_parameters_exit_2(capsys):
    code = main(["verify", "--suite", "sym-main", "--field", "2", "--n", "3",
                 "--codim", "5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_nonpositive_jobs_exit_2(jobs, capsys):
    code = main(["verify", "--suite", "sym-main", "--field", "2", "--n", "3",
                 "--codim", "0", "--jobs", jobs])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "sym-main", "--field", "2", "--n", "4"],
        ["verify", "--suite", "full-sym-class", "--field", "2", "--n", "2"],
        ["lemmas", "--field", "2"],
    ],
)
def test_zero_jobs_exit_2_before_any_work(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("suite work started before --jobs was checked")

    # the class suites start by keying, every pooled suite by dispatching,
    # and the full-space suites by solving
    for attr in ("_congruence_classes", "_map_cases", "rc_solution_space"):
        monkeypatch.setattr(verify, attr, refuse)
    assert main(argv + ["--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "not-a-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["quotient-lemma", "splitting-lemma"])
def test_lemma_trials_respect_the_cap(suite, capsys):
    # every nonzero trial space has more than one element
    code = main(["verify", "--suite", suite, "--trials", "20", "--cap", "1"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_verify_falsified_exit_1(monkeypatch, capsys):
    fake = VerificationReport(
        SuiteSpec("sym-main", field="2"),
        1,
        0,
        ({"space": {}, "map": None, "reason": "synthetic failure"},),
        0.0,
        "test",
    )
    monkeypatch.setattr("rckit.cli.run_suite", lambda *a, **k: fake)
    code = main(["verify", "--suite", "sym-main", "--field", "2", "--n", "3"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FALSIFIED" in out and "synthetic failure" in out


def test_classify_known_space(tmp_path, capsys):
    out = tmp_path / "classify.json"
    code = main(["classify", "--builder", "t3", "--field", "2", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "dim 5 (codim 1)" in stdout
    obj = json.loads(out.read_text())
    assert (obj["rcDim"], obj["localDim"], obj["standardDim"], obj["linearRcDim"]) == (4, 3, 4, 4)
    assert obj["exoticDim"] == 1
    assert obj["allStandard"] is True and obj["allLocal"] is False


def test_classify_solves_once(monkeypatch, capsys):
    from rckit import cli, rcmaps

    calls = []
    solve = rcmaps.rc_solution_space

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    # patched where the CLI and the library look it up
    monkeypatch.setattr(cli, "rc_solution_space", counting)
    monkeypatch.setattr(rcmaps, "rc_solution_space", counting)
    assert main(["classify", "--builder", "full-alt:3", "--field", "2^2"]) == 0
    assert len(calls) == 1
    assert "linear range-compatible maps: dim" in capsys.readouterr().out


def test_classify_full_sym_and_frobenius_block(tmp_path):
    out = tmp_path / "fs.json"
    assert main(["classify", "--builder", "full-sym:2", "--field", "2",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert (obj["rcDim"], obj["localDim"], obj["exoticDim"]) == (3, 2, 1)
    out2 = tmp_path / "sb.json"
    assert main(["classify", "--builder", "sym-block:3", "--field", "2^2",
                 "--out", str(out2)]) == 0
    obj2 = json.loads(out2.read_text())
    assert obj2["exoticDim"] >= 1
    assert obj2["allStandard"] is False


def test_classify_alt_space_has_no_standard_notion(tmp_path):
    out = tmp_path / "alt.json"
    assert main(["classify", "--builder", "full-alt:3", "--field", "3",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["standardDim"] is None and obj["allStandard"] is None
    assert obj["allLocal"] is True


def test_check_map_local_and_nonlocal(tmp_path, capsys):
    space = build_space("full-sym:2", F2)
    loc = local_map(space, (1, 0))
    map_file = tmp_path / "local.json"
    map_file.write_text(json.dumps(map_to_json(loc)))
    out = tmp_path / "verdict.json"
    assert main(["check-map", "--map-file", str(map_file), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["rangeCompatible"] and obj["local"] and obj["linear"] and obj["standard"]
    assert obj["x"] is not None

    delta = diag_root_linear_map(space, root_linear_forms(F2)[0])
    map_file2 = tmp_path / "delta.json"
    map_file2.write_text(json.dumps(map_to_json(delta)))
    out2 = tmp_path / "verdict2.json"
    assert main(["check-map", "--map-file", str(map_file2), "--out", str(out2)]) == 0
    obj2 = json.loads(out2.read_text())
    assert obj2["rangeCompatible"] and not obj2["local"] and obj2["x"] is None
    assert obj2["standard"] is True
    stdout = capsys.readouterr().out
    assert "local: no" in stdout


def test_check_map_missing_file_exit_2(tmp_path, capsys):
    code = main(["check-map", "--map-file", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_build_space_round_trip(tmp_path, capsys):
    out = tmp_path / "space.json"
    assert main(["build-space", "--builder", "alt-2n5:4", "--field", "3",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    space = build_space("alt-2n5:4", make_field(3))
    assert obj == space_to_json(space)
    assert "wrote" in capsys.readouterr().out
    # without --out the JSON goes to stdout
    assert main(["build-space", "--builder", "t3", "--field", "2"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["ambient"]["kind"] == "sym"


def test_emitted_space_json_is_accepted_back(tmp_path, capsys):
    space_file = tmp_path / "u2.json"
    assert main(["build-space", "--builder", "u2:3", "--field", "3",
                 "--out", str(space_file)]) == 0
    out = tmp_path / "classify.json"
    assert main(["classify", "--space-file", str(space_file), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    direct = tmp_path / "direct.json"
    capsys.readouterr()
    assert main(["classify", "--builder", "u2:3", "--field", "3",
                 "--out", str(direct)]) == 0
    assert obj == json.loads(direct.read_text())


def test_counterexamples_verb(tmp_path, capsys):
    out = tmp_path / "wit.json"
    assert main(["counterexamples", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r["suite"]["suite"] for r in reports] == ["sym-optimality", "alt-optimality"]
    assert all(r["verdict"] == "verified" for r in reports)
    assert "sym-optimality: verified" in capsys.readouterr().out


def test_lemmas_verb(tmp_path):
    out = tmp_path / "lemmas.json"
    assert main(["lemmas", "--field", "2", "--trials", "10", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    suites = [r["suite"]["suite"] for r in reports]
    assert suites == [
        "rank1-gaps", "good-functionals", "dim3-alt", "mf-lemma",
        "quotient-lemma", "splitting-lemma",
    ]
    assert all(r["verdict"] == "verified" for r in reports)


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rckit.cli", "verify", "--suite", "dim3-alt",
         "--field", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dim3-alt: verified" in proc.stdout
