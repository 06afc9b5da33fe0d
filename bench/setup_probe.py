"""Set-up time of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Prints the seconds from just before ``import radialqm.cli`` to the end of
one tiny call to each entry point the workload uses, so an import that is
deferred to first use still counts.  Interpreter start-up is excluded.
"""
import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

TINY = {
    "scan": [
        ["scattering", "--problem", "delta-shell", "--n", "2", "--radius", "1",
         "--gamma", "1", "--eps-from", "1", "--eps-to", "1", "--steps", "1"],
        ["scattering", "--problem", "finite-well", "--n", "2", "--radius", "1",
         "--v0", "1", "--eps-from", "1", "--eps-to", "1", "--steps", "1"],
    ],
    "solve": [
        ["spectrum", "--problem", "infinite-well", "--n", "2", "--radius", "1", "--levels", "1"],
        ["spectrum", "--problem", "harmonic", "--n", "2", "--levels", "1"],
        ["spectrum", "--problem", "finite-well", "--n", "2", "--v0", "1", "--radius", "1"],
        ["spectrum", "--problem", "delta-shell", "--n", "2", "--gamma", "1", "--radius", "1"],
        ["wavefunction", "--problem", "harmonic", "--n", "2", "--level", "0", "--samples", "2"],
        ["zeros", "--nu", "0", "--count", "1"],
        ["closure", "--n", "2", "--k", "1", "--k-prime", "1", "--r-max", "1", "--width", "1"],
    ],
    "validate": [],
}


def main() -> None:
    workload = sys.argv[1]
    t0 = time.perf_counter()
    import radialqm.cli as cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in TINY[workload]:
            if cli.main(argv) != 0:
                raise SystemExit(f"tiny call failed: {argv}")
    if workload == "solve":
        from radialqm.radial.model import DeltaShell, Dimension, PhysicalScales
        from radialqm.solvers import quantized_transmission_energies

        quantized_transmission_energies(DeltaShell(g=1.0, sign=-1, R=1.0), Dimension(1),
                                        1.0, (1.0, 1.1), PhysicalScales())
    if workload == "validate":
        # the suite has no tiny form; load everything it runs on
        import radialqm.oracle.report  # noqa: F401
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
