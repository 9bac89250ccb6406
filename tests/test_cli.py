import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cpconftest.cli import main
from cpconftest.corpus import corpus_path, load_manifest

ORACLE = """
dvar int x[1..2] in 0..3;
subject to { c1: x[1] < x[2]; }
"""

SUBSET = """
dvar int x[1..2] in 0..3;
subject to {
  k1: x[1] < x[2];
  k2: x[1] >= 1;
}
"""

TIES = """
dvar int x[1..2] in 0..3;
subject to { k1: x[1] <= x[2]; }
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, src in (("oracle", ORACLE), ("subset", SUBSET), ("ties", TIES)):
        p = tmp_path / f"{name}.cpm"
        p.write_text(src, encoding="utf-8")
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_check_conf_exits_zero(files, capsys):
    rc = main(["check", "--oracle", files["oracle"], "--cput", files["subset"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: Conf" in out
    assert re.search(r"^stats: solves=\d+ nodes=\d+ failures=\d+ propagations=\d+ ", out, re.M)
    # --json carries every counter per subproblem; stats add the checks outside them
    rc = main(["check", "--oracle", files["oracle"], "--cput", files["subset"], "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    counters = ("solves", "nodes", "failures", "propagations", "false_alarms")
    solved = [s for s in payload["subproblems"] if s["status"] == "unsat"]
    assert solved
    for sub in payload["subproblems"]:
        assert all(isinstance(sub[k], int) for k in counters), sub
    # c1 is asserted by the program too, so presolve refutes it unpropagated
    assert all(s["solves"] >= 1 for s in solved)
    assert any(s["propagations"] >= 1 for s in solved)
    for k in counters[:4]:
        assert sum(s[k] for s in payload["subproblems"]) <= payload["stats"][k]


def test_check_is_the_default_subcommand(files, capsys):
    rc = main(["--oracle", files["oracle"], "--cput", files["ties"]])
    assert rc == 1
    out = capsys.readouterr().out
    assert "verdict: NonConf" in out
    assert "violated: c1" in out
    assert "witness:" in out


def test_check_json_payload(files, capsys):
    rc = main(
        ["check", "--oracle", files["oracle"], "--cput", files["ties"], "--json"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    # reports re-serialize byte-identically
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out
    assert payload["schema"] == 1
    assert payload["command"] == "check"
    assert payload["verdict"] == "NonConf"
    assert payload["reason"] == "extra-solution"
    assert payload["witness"]["x[1]"] == payload["witness"]["x[2]"]
    assert isinstance(payload["subproblems"], list) and payload["subproblems"]


def test_check_timeout_exits_two(files):
    rc = main(
        [
            "check",
            "--oracle",
            files["oracle"],
            "--cput",
            files["subset"],
            "--timeout",
            "0",
        ]
    )
    assert rc == 2


def test_bad_param_exits_three(files, capsys):
    rc = main(
        [
            "check",
            "--oracle",
            files["oracle"],
            "--cput",
            files["subset"],
            "--param",
            "q=abc",
        ]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_three(files, capsys):
    rc = main(["check", "--oracle", "/no/such/file.cpm", "--cput", files["subset"]])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_bad_bounds_exits_three(files, capsys):
    rc = main(
        [
            "check",
            "--oracle",
            files["oracle"],
            "--cput",
            files["subset"],
            "--relation",
            "bounds",
            "--bounds",
            "5",
        ]
    )
    assert rc == 3
    assert "lo:hi" in capsys.readouterr().err


def test_jobs_flag_exits_three(files, capsys):
    rc = main(["check", "--oracle", files["oracle"], "--cput", files["subset"], "--jobs", "2"])
    assert rc == 3
    assert "--jobs" in capsys.readouterr().err


def test_unknown_relation_exits_three(files, capsys):
    rc = main(
        [
            "check",
            "--oracle",
            files["oracle"],
            "--cput",
            files["subset"],
            "--relation",
            "superset",
        ]
    )
    assert rc == 3
    capsys.readouterr()


def test_no_arguments_prints_help(capsys):
    assert main([]) == 3
    assert "usage:" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "check" in capsys.readouterr().out


def witness_file(tmp_path, obj, name="w.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def test_validate_genuine_exits_zero(files, capsys):
    w = witness_file(files["dir"], {"x": [1, 1]})
    rc = main(
        [
            "validate",
            "--oracle",
            files["oracle"],
            "--cput",
            files["ties"],
            "--witness",
            w,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "genuine: yes" in out
    assert "direction: extra-solution" in out


def test_validate_accepts_wrapped_witness(files, capsys):
    w = witness_file(files["dir"], {"witness": {"x": [1, 1]}, "note": "from a report"})
    rc = main(
        [
            "validate",
            "--oracle",
            files["oracle"],
            "--cput",
            files["ties"],
            "--witness",
            w,
        ]
    )
    assert rc == 0
    capsys.readouterr()


def test_validate_not_genuine_exits_one(files, capsys):
    w = witness_file(files["dir"], {"x": [1, 2]})
    rc = main(
        [
            "validate",
            "--oracle",
            files["oracle"],
            "--cput",
            files["ties"],
            "--witness",
            w,
            "--json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "validate"
    assert payload["genuine"] is False


def test_validate_bad_witness_exits_three(files, capsys):
    w = witness_file(files["dir"], {"y": [1, 2]})
    rc = main(
        [
            "validate",
            "--oracle",
            files["oracle"],
            "--cput",
            files["ties"],
            "--witness",
            w,
        ]
    )
    assert rc == 3
    assert "unknown array" in capsys.readouterr().err


SIZED = """
int n = ...;
dvar int x[1..n] in 0..9;
minimize x[n];
subject to {
  c1: forall (i in 1..n-1) x[i] < x[i+1];
}
"""


@pytest.fixture
def bench_dir(tmp_path):
    (tmp_path / "sized.cpm").write_text(SIZED, encoding="utf-8")
    manifest = {
        "schema": 1,
        "runs": [
            {
                "name": "tiny-self",
                "oracle": "sized.cpm",
                "program": "sized.cpm",
                "relation": "one",
                "params": {"n": 3},
                "timeout": 30,
                "expect": {"verdict": "Conf", "reason": None, "violated": None},
            }
        ],
        "scaling": {
            "oracle": "sized.cpm",
            "detect": "sized.cpm",
            "solve": "sized.cpm",
            "size_param": "n",
            "sizes": [2, 3],
            "timeout": 30,
        },
    }
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps(manifest), encoding="utf-8")
    return str(mp)


def test_bench_runs_a_manifest(bench_dir, capsys):
    rc = main(["bench", "--manifest", bench_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tiny-self" in out
    assert "scaling n=2" in out


def test_bench_exits_one_on_an_unexpected_verdict(bench_dir, capsys):
    path = Path(bench_dir)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    wrong = dict(manifest["runs"][0], name="tiny-wrong")
    wrong["expect"] = {"verdict": "NonConf", "reason": "extra-solution", "violated": "c1"}
    unchecked = dict(manifest["runs"][0], name="tiny-unchecked")
    del unchecked["expect"]
    manifest["runs"] += [wrong, unchecked]
    del manifest["scaling"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    rc = main(["bench", "--manifest", bench_dir, "--json"])
    assert rc == 1
    captured = capsys.readouterr()
    assert [r["verdict"] for r in json.loads(captured.out)["runs"]] == ["Conf"] * 3
    flagged = captured.err.strip().splitlines()
    assert len(flagged) == 1 and "tiny-wrong" in flagged[0], captured.err


def test_bench_json_shapes(bench_dir, capsys):
    rc = main(["bench", "--manifest", bench_dir, "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "bench"
    assert payload["runs"][0]["verdict"] == "Conf"
    assert {"nodes", "failures", "propagations"} <= payload["runs"][0].keys()
    # minimizing the last mark of a strictly increasing chain from 0..9
    assert [s["optimum"] for s in payload["scaling"]] == [1, 2]
    assert all(s["solve_proven"] for s in payload["scaling"])


def test_bundled_manifest_is_well_formed():
    manifest = load_manifest()
    assert manifest["schema"] == 1
    names = [r["name"] for r in manifest["runs"]]
    assert len(names) == len(set(names))
    for run in manifest["runs"]:
        assert run["expect"].keys() == {"verdict", "reason", "violated"}, run["name"]
        assert corpus_path(*run["oracle"].split("/")).is_file()
        assert corpus_path(*run["program"].split("/")).is_file()
        if run.get("data"):
            assert corpus_path(*run["data"].split("/")).is_file()
    scaling = manifest["scaling"]
    for key in ("oracle", "detect", "solve"):
        assert corpus_path(*scaling[key].split("/")).is_file()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cpconftest.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cpconftest" in proc.stdout
