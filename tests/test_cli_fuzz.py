"""Seeded fuzzing of `wavefunction` and of shell `spectrum` over the
parameter space the CLI accepts.

Every draw must end in a result (exit 0) or a typed error (exit 2 or 3):
no exception escapes `main`, and no printed number is nan or inf.  A shell
level that `spectrum` prints must give a finite mode or a typed error.
"""
from __future__ import annotations

import contextlib
import io
import math

from hypothesis import given, settings, strategies as st

from radialqm.cli import main


def _log_uniform(lo_exp: int, hi_exp: int, steps_per_decade: int = 10):
    """Values 10^(k/steps) for k in [lo_exp, hi_exp], as CLI strings."""
    return st.integers(lo_exp, hi_exp).map(lambda k: repr(10.0 ** (k / steps_per_decade)))


_N = st.integers(0, 300).map(str)
_RADIUS = _log_uniform(-10, 7)

_ARGV = st.one_of(
    st.tuples(st.just("harmonic"), _N, st.just("--omega"), _log_uniform(-13, 13),
              st.integers(0, 30).map(str)),
    st.tuples(st.just("finite-well"), _N, st.just("--radius"), _RADIUS,
              st.just("--v0"), _log_uniform(-10, 37), st.integers(1, 4).map(str)),
    st.tuples(st.just("delta-shell"), _N, st.just("--radius"), _RADIUS,
              st.just("--gamma"), _log_uniform(-10, 40), st.just("1")),
).map(lambda t: ["wavefunction", "--problem", t[0], "--n", t[1], *t[2:-1],
                 "--level", t[-1], "--samples", "8"])


@st.composite
def _shell(draw):
    """(n, radius, gamma) as CLI strings: gamma log-uniform, or gamma R a relative
    1e-12 to 10 above the threshold 2 nu (for n <= 1, which has none, that far above 0)."""
    n, radius = draw(st.integers(0, 300)), draw(_RADIUS)
    if draw(st.booleans()):
        return str(n), radius, draw(_log_uniform(-10, 40))
    above = 10.0 ** (draw(st.integers(-120, 10)) / 10)
    gr = (n - 1) * (1.0 + above) if n > 1 else above
    return str(n), radius, repr(gr / float(radius))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    return code, out.getvalue().splitlines()[1:]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_wavefunction_ends_in_a_mode_or_a_typed_error(argv):
    code, rows = _run(argv)
    if code == 0:
        assert len(rows) == 8
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows), (argv, rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shell=_shell())
def test_shell_level_ends_in_a_mode_or_a_typed_error(shell):
    n, radius, gamma = shell
    args = ["--problem", "delta-shell", "--n", n, "--radius", radius, "--gamma", gamma]
    code, rows = _run(["spectrum", *args])
    if code != 0 or not rows:
        return
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0].split(",")), rows
    code, rows = _run(["wavefunction", *args, "--samples", "8"])
    assert code in (0, 3), (args, code)
    if code == 0:
        assert len(rows) == 8
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows), (args, rows)
