"""Executable lines of ``src/`` that the output digest's operations never run.

    python3 tools/reach.py --rounds 2 --seeds 1 2

Line-traces every module under ``src/radialqm`` with ``sys.settrace``
while it runs the operations of ``tools/output_digest.py`` (the README
examples, both ``validate`` reports and the ``scan`` and ``solve``
rounds), then prints, per module, the executable lines that never ran,
and the totals.  A line is executable when the compiler gives it
bytecode, so blank lines, comments and function docstrings do not count.
The tracer slows the interpreter down, so two rounds take minutes.
"""
from __future__ import annotations

import argparse
import dis
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from output_digest import HERE, records  # noqa: E402


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in any code object of the file."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_traced(root: Path, rounds: int, seeds: list) -> dict:
    """{file name: reached line numbers} over one digest run."""
    prefix = str(root / "src" / "radialqm")
    reached: dict = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hits = reached.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        for _ in records(root, rounds, seeds):
            pass
    finally:
        sys.settrace(None)
    return reached


def ranges(lines: list) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to run (default: this one)")
    parser.add_argument("--rounds", type=int, default=2, help="generator rounds per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)

    root = args.root.resolve()
    reached = run_traced(root, args.rounds, args.seeds)
    total = missed = 0
    for path in sorted((root / "src").rglob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(unreached)
        if unreached:
            name = path.relative_to(root / "src")
            print(f"{name}: {len(unreached)} of {len(lines)} unreached: {ranges(unreached)}")
    print(f"total: {missed} of {total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
