"""Digest of the program's observable output, for byte-identity checks.

    python3 tools/output_digest.py --rounds 16 --seeds 1 2 --out digest.jsonl

Runs, in this interpreter, against ``src/`` of one checkout (by default
the one holding this file, or ``--root``):

* every CLI example in README.md except ``validate``, once with
  ``--format csv`` and once with ``--format json``;
* ``validate`` at the default scales and at ``--mass`` 1.25, 2.0 and 0.5
  (where the report's finite well binds one level and the run exits 3);
* a fixed set of finite wells: each full spectrum, the spectrum cut by
  ``--levels`` below, at and past its level count, the last bound mode and
  the mode one level past it (which exits 2); zero tables of count 60
  at the orders of the benchmark's n set; and a fixed set of shells, each
  as a spectrum and a mode;
* ``--rounds`` rounds of the ``scan`` and ``solve`` generators of
  ``bench/workloads.py`` at each seed of ``--seeds``; the transmission
  operations are library calls, recorded as the ``repr`` of the result.

Each operation writes one JSON line: argv (or the transmission
parameters), exit code, stdout and stderr.  An exception that escapes the
CLI is recorded by type and message, without a traceback, so that records
from two checkouts compare byte for byte.  The last stdout line is the
sha256 of the record file.  Run it at two commits and ``cmp`` the record
files: a refactor that claims unchanged behaviour leaves them identical.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# (n, V0, R) of the fixed finite wells: 1 to 46 levels, the last one past
# the order where J underflows below its first zero
WELLS = (("0", "2", "1"), ("1", "40", "1"), ("2", "80", "1"), ("4", "600", "1"),
         ("9", "5000", "1"), ("25", "2000", "1"), ("250", "50000", "1"))

# (n, gamma, R) of the fixed shells: orders 33 to 124.5, where I_nu underflows
# and K_nu overflows, two a relative 1e-6 above gamma R = 2 nu, and a level
# whose square leaves the double range (exits 3)
SHELLS = (("67", "70", "1"), ("67", "66.5", "1"), ("68", "80", "1"), ("250", "300", "1"),
          ("67", "66.000066", "1"), ("250", "249.000249", "1"), ("2", "1e300", "1"))


def readme_examples(readme: Path) -> list:
    """argv lists of the `radialqm ...` lines in the README's sh blocks, minus --format."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if not words or words[0] != "radialqm":
                continue
            argv = words[1:]
            if "--format" in argv:
                at = argv.index("--format")
                del argv[at:at + 2]
            examples.append(argv)
    return examples


def run_cli(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the console script would exit 1 here
            rc = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def run_transmission(p: dict) -> dict:
    from radialqm.radial.model import DeltaShell, Dimension, FiniteWell, PhysicalScales
    from radialqm.solvers import quantized_transmission_energies

    if p["problem"] == "delta":
        problem = DeltaShell(g=p["g"], sign=p["sign"], R=p["R"])
    else:
        problem = FiniteWell(V0=p["V0"], R=p["R"])
    try:
        result = quantized_transmission_energies(
            problem, Dimension(p["n"]), p["target"], tuple(p["eps_range"]), PhysicalScales())
        rc, out, err = 0, repr(result), ""
    except Exception as exc:
        rc, out, err = 1, "", f"{type(exc).__name__}: {exc}"
    return {"transmission": p, "rc": rc, "out": out, "err": err}


def well_records(cli):
    """Cut spectra and edge modes of the fixed wells."""
    for n, v0, radius in WELLS:
        well = ["--problem", "finite-well", "--n", n, "--v0", v0, "--radius", radius]
        full = run_cli(cli, ["spectrum"] + well + ["--format", "json"])
        yield full
        count = len(json.loads(full["out"])["rows"]) if full["rc"] == 0 else 0
        for cut in sorted({1, count - 1, count, count + 1, count + 5} - {-1, 0}):
            yield run_cli(cli, ["spectrum"] + well + ["--levels", str(cut)])
        for level in sorted({count, count + 1} - {0}):
            yield run_cli(cli, ["wavefunction"] + well + ["--level", str(level), "--samples", "7"])


def shell_records(cli):
    """Spectrum and mode of the fixed shells."""
    for n, gamma, radius in SHELLS:
        shell = ["--problem", "delta-shell", "--n", n, "--gamma", gamma, "--radius", radius]
        yield run_cli(cli, ["spectrum"] + shell + ["--format", "json"])
        yield run_cli(cli, ["wavefunction"] + shell + ["--samples", "7"])


def records(root: Path, rounds: int, seeds: list):
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "bench"))
    import radialqm.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"radialqm imported from {cli.__file__}, not from {root / 'src'}")
    for argv in readme_examples(root / "README.md"):
        if argv[0] == "validate":
            continue
        for fmt in ("csv", "json"):
            yield run_cli(cli, argv + ["--format", fmt])
    yield run_cli(cli, ["validate"])
    for mass in ("1.25", "2.0", "0.5"):
        yield run_cli(cli, ["validate", "--mass", mass])
    yield from well_records(cli)
    for n in workloads.N_SET:
        yield run_cli(cli, ["zeros", "--nu", workloads._num(workloads.nu_of(n)), "--count", "60",
                            "--format", "json"])
    yield from shell_records(cli)
    for seed in seeds:
        for workload in ("scan", "solve"):
            stream = workloads.rounds(workload, seed)
            for _ in range(rounds):
                for op in next(stream):
                    if op["kind"] == "cli":
                        yield run_cli(cli, op["argv"])
                    else:
                        yield run_transmission(op["p"])


# a number as the CLI prints it: CSV, JSON, repr and messages alike
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _label(record: dict) -> str:
    if "argv" in record:
        return shlex.join(record["argv"])
    return "transmission " + json.dumps(record["transmission"], sort_keys=True)


def _relative_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def record_change(old: dict, new: dict):
    """(relative change, old, new) of the number that moved most; None for changed text."""
    worst = (0.0, "", "")
    for key in ("rc", "out", "err"):
        a, b = str(old[key]), str(new[key])
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            return None
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            worst = max(worst, (_relative_change(x, y), x, y))
    return worst


def diff(old_path: Path, new_path: Path) -> int:
    """Print the changed records of two record files; 1 if their operations differ."""
    with open(old_path) as f:
        old = [json.loads(line) for line in f]
    with open(new_path) as f:
        new = [json.loads(line) for line in f]
    if len(old) != len(new) or any(_label(a) != _label(b) for a, b in zip(old, new)):
        print("the two files record different operations; rerun with the same --rounds and --seeds")
        return 1
    changed = text = 0
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        changed += 1
        change = record_change(a, b)
        if change is None:
            text += 1
            print(f"{'text':>9}  {_label(a)}")
        else:
            worst = max(worst, change[0])
            print(f"{change[0]:9.2e}  {_label(a)}  ({change[1]} -> {change[2]})")
    print(f"{changed} of {len(old)} records changed, {text} in their text; "
          f"largest relative change of a number {worst:.2e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to run (default: this one)")
    parser.add_argument("--rounds", type=int, default=4, help="generator rounds per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--out", type=Path, default=Path("output_digest.jsonl"), help="record file")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two record files instead of writing one")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)

    digest = hashlib.sha256()
    count = 0
    with open(args.out, "w") as sink:
        for record in records(args.root.resolve(), args.rounds, args.seeds):
            line = json.dumps(record, sort_keys=True) + "\n"
            sink.write(line)
            digest.update(line.encode())
            count += 1
    print(f"{count} records in {args.out}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
