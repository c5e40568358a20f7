"""Census of the library lines that no check runs.

    python3 tools/line_hits.py

(``--golden WORK``, its only other argv form, is the traced child's own entry.)

Runs the whole Tier-1 suite (``python -m pytest -q -p no:cacheprovider
--continue-on-collection-errors`` in the repository root), then every argv of
the golden set of ``tools/cli_golden.py`` through ``twinfo.cli.main``, each in
a fresh working directory that holds the golden inputs, all in one tree under
a line tracer.  It prints each executable line of ``src/twinfo``
that never ran, as ``path:line: source``, then a one-line summary.  A line is
executable when a code object compiled from its module lists it in
``co_lines``.

The tracer is a ``sitecustomize.py`` written to a temporary directory that
goes first on ``PYTHONPATH``, so every Python process started below, the
suite's own ``python -m twinfo.cli`` subprocesses included, records the
library lines it runs (``sys.settrace`` and ``threading.settrace``) and
appends them to a file of its own at exit.  The golden argvs share one
process, which spares 151 traced start-ups and reaches the same lines: each
module's top level runs on import either way, and the suite runs
``python -m twinfo.cli`` itself.  Standard library only, apart from the numpy
that the golden inputs are written with.  The exit code is the suite's; the
census itself sets no threshold.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "twinfo")

SITECUSTOMIZE = '''\
import atexit, marshal, os, sys, threading

_PACKAGE = os.environ["LINE_HITS_PACKAGE"]
_OUT = os.environ["LINE_HITS_OUT"]
_inside = {}  # co_filename -> whether the file is a module of the package
_codes = {}  # code object -> its local tracer, or None outside the package
_traced = []  # (co_filename, lines, lines not yet run) of every package code object seen


def _start(code):
    name = code.co_filename
    if name not in _inside:
        _inside[name] = os.path.dirname(os.path.realpath(name)) == _PACKAGE
    if not _inside[name]:
        return None
    lines = {line for _, _, line in code.co_lines() if line}
    todo = set(lines)
    _traced.append((name, lines, todo))

    def local(frame, event, arg):
        todo.discard(frame.f_lineno)
        return local

    local.todo = todo
    return local


def _tracer(frame, event, arg):
    # A code object whose every line has run is no longer traced.
    code = frame.f_code
    local = _codes.get(code, _tracer)
    if local is _tracer:
        local = _codes[code] = _start(code)
    if local is None or not local.todo:
        return None
    return local(frame, event, arg)


@atexit.register
def _dump():
    sys.settrace(None)
    ran = {}
    for name, lines, todo in _traced:
        ran.setdefault(name, set()).update(lines - todo)
    with open(os.path.join(_OUT, str(os.getpid())), "ab") as fh:
        marshal.dump({name: sorted(lines) for name, lines in ran.items()}, fh)


sys.settrace(_tracer)
threading.settrace(_tracer)
'''


def executable_lines(path: str) -> set[int]:
    """Every line that a code object compiled from ``path`` lists in ``co_lines``."""
    with open(path) as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ran_lines(out_dir: str) -> dict[str, set[int]]:
    """The lines each traced process recorded, merged, by real path."""
    ran: dict[str, set[int]] = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            while True:
                try:
                    record = marshal.load(fh)
                except EOFError:
                    break
                for path, lines in record.items():
                    ran.setdefault(os.path.realpath(path), set()).update(lines)
    return ran


def run_golden(work: str) -> None:
    """Every golden argv through ``twinfo.cli.main`` in this process, each in a fresh
    copy of the golden inputs under ``work``, its output discarded."""
    import cli_golden as golden  # beside this script, so first on ``sys.path``
    from twinfo.cli import main

    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    golden.write_inputs(inputs)
    for n, argv in enumerate(golden.golden_argvs()):
        cwd = os.path.join(work, str(n))
        shutil.copytree(inputs, cwd)
        os.chdir(cwd)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                main(list(argv))
            except SystemExit:  # argparse's usage errors
                pass


def run_traced(tmp: str) -> tuple[int, float, float]:
    """Tier-1, then the golden argvs in one process, under the tracer; returns the
    suite's exit code and both wall times."""
    site, out = os.path.join(tmp, "site"), os.path.join(tmp, "hits")
    os.mkdir(site)
    os.mkdir(out)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)
    env = dict(os.environ, LINE_HITS_PACKAGE=os.path.realpath(PACKAGE), LINE_HITS_OUT=out,
               PYTHONPATH=os.pathsep.join([site, SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    start = time.perf_counter()
    suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"], cwd=ROOT, env=env)
    tier1 = time.perf_counter() - start
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--golden", os.path.join(tmp, "golden")],
                   env=env, check=True)
    return suite.returncode, tier1, time.perf_counter() - start


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--golden":
        run_golden(argv[1])
        return 0
    if argv:
        print("usage: python3 tools/line_hits.py", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        code, tier1, golden = run_traced(tmp)
        ran = ran_lines(os.path.join(tmp, "hits"))
    total = unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(os.path.realpath(path), set()))
        total, unrun = total + len(lines), unrun + len(missed)
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in missed:
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines of src/twinfo never ran "
          f"(Tier-1 {tier1:.1f} s, golden argvs {golden:.1f} s, traced; suite exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
