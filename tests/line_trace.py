"""Line trace: the executable lines of src/ledgergraph that nothing runs.

    python tests/line_trace.py

Runs, in this one process under sys.settrace: tier-1 (pytest on tests/),
the eight demos, and run_pipeline on each benchmark workload's seed-7
input, built by bench/worker.py's prepare() from bench/inputs.py and
bench/workloads.json. A line is executable when a code object compiled
from the module lists it in co_lines(). Prints each executable line that
never ran, sorted, as path:line and its text, then their count. pytest
does not collect this file; a slow test may overrun its time budget
under the tracer, and its failure does not stop the trace.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgergraph"
SEED = 7


def executable_lines(path: pathlib.Path) -> set[int]:
    """Every line that a code object compiled from path lists."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_everything() -> None:
    """Tier-1, the demos and the workloads, in that order."""
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 str(ROOT / "tests")])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            runpy.run_path(str(demo), run_name="__main__")
    import worker
    from ledgergraph.pipeline import run_pipeline

    for name, workload in worker.load_workloads().items():
        with tempfile.TemporaryDirectory() as work:
            config, _script, _genesis = worker.prepare(name, workload["params"],
                                                       SEED, work)
            run_pipeline(config)


def main() -> int:
    # the root lets tests import tests.<module>; bench/ holds worker and inputs
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "bench")]
    # tests that start the CLI in a subprocess (not traced) need the package
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def trace_line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    def trace_call(frame, _event, _arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    cwd = os.getcwd()
    os.chdir(ROOT)  # the demos read fixtures/ relative to the root
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        run_everything()
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    never = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                never.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print("\n".join(never))
    print(f"{len(never)} never-run lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
