"""List the lines of src/tetraposet function bodies that tier-1 never runs.

Run from anywhere:

    python tests/unrun_lines.py

It installs a sys.settrace line tracer, limited to the frames of
src/tetraposet, runs the tier-1 suite in this process, and prints every
function-body line (lambdas and comprehensions included, module and class
bodies left out) that no test ran. A line counts as run when the tracer saw
a line event on it; a line is executable when the compiled code has an
instruction on it past the function's entry prelude (RESUME and what comes
before it).

Tests that run the command line in a subprocess are not traced, so the lines
only they reach are listed in ALLOWED, each with its reason, keyed by file
and the line's stripped text. The script exits 0 when the suite passes and
the unrun lines are exactly the allowed ones; it exits 1 when a line outside
ALLOWED never ran or an ALLOWED line did run (drop it from the list), and
with pytest's own code when the suite fails. pytest does not collect this
file (its name does not start with test_). The traced suite takes four to
five times as long as the plain one.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tetraposet"

#: (file, stripped line text) -> why no in-process test runs it
ALLOWED = {
    ("cli.py", 'raise ValueError("input JSON is nested too deeply") from None'):
        "json.loads raises RecursionError only on deep nesting, which the CLI "
        "tests feed to a subprocess (test_cli.py and the CI console-script step)",
    ("cli.py", "sys.exit(main())"):
        "entry_point is the console script's body, run only as a subprocess",
}

CO_NEWLOCALS = 0x2  # set on function code, not on module or class bodies


def _function_code(code: CodeType):
    """Every function code object nested in code, code itself included when
    it is one."""
    if code.co_flags & CO_NEWLOCALS:
        yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _function_code(const)


def _body_lines(code: CodeType) -> set[int]:
    """The lines with an instruction past the entry prelude."""
    instructions = list(dis.get_instructions(code))
    start = next((k + 1 for k, ins in enumerate(instructions) if ins.opname == "RESUME"), 0)
    offset = instructions[start].offset if start < len(instructions) else len(code.co_code)
    return {line for begin, _, line in code.co_lines() if line is not None and begin >= offset}


def executable_lines() -> dict[str, set[int]]:
    """File path -> the executable function-body lines of that file."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        out[str(path)] = set().union(*map(_body_lines, _function_code(module)))
    return out


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per file, the lines the tracer saw run."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    # the subprocess tests import the package too, as tier-1's PYTHONPATH=src lets them
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    imported = sys.modules["tetraposet"].__file__
    if not imported.startswith(prefix):
        sys.exit(f"traced {imported}, not the package under {PACKAGE}")
    return int(code), ran


def main() -> int:
    code, ran = traced_run()
    unrun = []
    for path, lines in executable_lines().items():
        text = Path(path).read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - ran.get(path, set())):
            unrun.append((Path(path).name, line, text[line - 1].strip()))
    print(f"\n{len(unrun)} function-body lines never ran in-process:")
    for name, line, source in unrun:
        mark = "allowed" if (name, source) in ALLOWED else "NOT ALLOWED"
        print(f"  {name}:{line}: {source}  [{mark}]")
    stale = ALLOWED.keys() - {(name, source) for name, _, source in unrun}
    for name, source in sorted(stale):
        print(f"  allowed but ran or gone: {name}: {source}")
    if code:
        return code
    return 1 if stale or any((name, source) not in ALLOWED for name, _, source in unrun) else 0


if __name__ == "__main__":
    sys.exit(main())
