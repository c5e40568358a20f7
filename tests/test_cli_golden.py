"""Smoke test of ``tools/cli_golden.py``, the CLI byte-identity check between two trees."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "cli_golden", os.path.join(ROOT, "tools", "cli_golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

# One report, one sweep that dumps a violation file per check, one malformed observable.
SMOKE_ARGVS = [
    ("report", "werner.json"),
    ("sweep", "--samples", "3", "--seed", "2", "--tol", "-1"),
    ("twins", "bell.json", "nan_obs.json", "z.json"),
]


def test_smoke_argvs_are_golden():
    assert set(SMOKE_ARGVS) <= set(golden.golden_argvs())


def test_tree_against_itself_has_no_differences():
    lines, dumped = golden.compare(ROOT, ROOT, SMOKE_ARGVS)
    assert lines == []
    assert dumped > 0


def test_each_difference_is_listed():
    base = {"stdout": b"{}", "stderr": b"", "exit": 0, "files": {"violations/a.json": b"x"}}
    changed = dict(base, stderr=b"warning\n",
                   files={"violations/a.json": b"y", "violations/b.json": b"z"})
    assert golden.differences([("report", "s.json")], [base], [changed]) == [
        "report s.json: stderr differs",
        "report s.json: file violations/a.json differs",
        "report s.json: file violations/b.json differs",
    ]
