"""Span tracing at the layer boundaries of radialqm, from outside the package.

``install(tracer)`` replaces module-level functions at each layer boundary
with timing wrappers, in the defining module and in every radialqm module
that imported the function by name.  Each span records its name, start,
end and parent; spans live in flat arrays until the run ends, when
``write`` dumps them and ``layer_metrics`` folds them into the per-layer
metrics.  A layer's self time is its span durations minus the durations
of its direct child spans.

Kernel spans carry a regime label chosen from the call's arguments with
the seams stated in the kernel's module docstrings:
J series for x <= 2 or x^2 <= 4(nu+1); Y small-x route for x <= 2;
J/Y asymptotic for x >= max(60, (nu+1)^2/2 + 20), continued fraction
between; K Temme for x <= 2, trapezoid for 2 < x < 20, asymptotic above.
"""
from __future__ import annotations

import gzip
import math
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Spans in flat arrays plus plain counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = getattr(self, "stack", [])
        self.stack.clear()
        self.counts: Dict[str, float] = {}
        self.distinct: Dict[str, set] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, fn: Callable, name: str,
             namer: Optional[Callable[..., int]] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """fn inside a span.  namer(*args) picks the span name from the
        arguments; before(*args) may return replacement args; after(result,
        *args) sees the result."""
        fixed = self.name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(*args)
            sid = len(self.start)
            self.name.append(fixed if namer is None else namer(*args))
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn: Callable, key: str, distinct_arg: bool = False) -> Callable:
        """fn counted, with no span: for calls too small and frequent to time."""
        def counted(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0.0) + 1.0
            if distinct_arg:
                self.distinct.setdefault(key, set()).add(args[0])
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path: str) -> None:
        """One line per span: id, parent, op span id, name, start, end."""
        op_id = self.name_id("bench.op")
        op_of = array("q", [-1]) * len(self.start)
        with gzip.open(path, "wt") as out:
            out.write("id,parent,op,name,start_s,end_s\n")
            for i in range(len(self.start)):
                p = self.parent[i]
                op_of[i] = i if self.name[i] == op_id else (op_of[p] if p >= 0 else -1)
                out.write(f"{i},{p},{op_of[i]},{self.names[self.name[i]]},"
                          f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


# ---------------------------------------------------------------------------
# regime labels


def _jy_regime(nu: float, x: float, small_x_series: bool) -> str:
    if x >= max(60.0, 0.5 * (nu + 1.0) ** 2 + 20.0):
        return "asym"
    if small_x_series:
        return "series" if x <= 2.0 or x * x <= 4.0 * (nu + 1.0) else "cf"
    return "series" if x <= 2.0 else "cf"


def _k_route(x: float) -> str:
    if x <= 2.0:
        return "temme"
    return "trapezoid" if x < 20.0 else "asym"


# ---------------------------------------------------------------------------
# installation


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "radialqm" or mod_name.startswith("radialqm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _lookup(module: str, attr: str):
    mod = sys.modules.get(module)
    fn = getattr(mod, attr, None) if mod is not None else None
    if fn is None:
        sys.stderr.write(f"trace: {module}.{attr} not found, its metrics read 0\n")
    return fn


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary, importing the modules that define them first."""
    import importlib

    for mod in ("radialqm.cli", "radialqm.specfun.bessel_jy", "radialqm.specfun.bessel_ik",
                "radialqm.specfun.zeros", "radialqm.solvers.rootfind",
                "radialqm.radial.quadrature", "radialqm.radial.norms",
                "radialqm.radial.wavefunction", "radialqm.oracle.fd",
                "radialqm.oracle.report", "radialqm.oracle.series",
                "radialqm.solvers.transmission"):
        try:
            importlib.import_module(mod)
        except ImportError:
            sys.stderr.write(f"trace: module {mod} not importable\n")

    t = tracer

    def spanned(module: str, attr: str, name: str, **kw) -> None:
        fn = _lookup(module, attr)
        if fn is not None:
            _replace_everywhere(fn, t.wrap(fn, name, **kw))

    # cli
    spanned("radialqm.cli", "main", "cli.main")
    spanned("radialqm.cli", "parse_args", "cli.parse_args")

    # solvers
    for module, attr, name in (
        ("radialqm.solvers.delta_shell", "delta_bound_energy", "solvers.delta_bound_energy"),
        ("radialqm.solvers.delta_shell", "delta_bound_wavefunction", "solvers.delta_bound_wavefunction"),
        ("radialqm.solvers.delta_shell", "delta_scattering", "solvers.scattering"),
        ("radialqm.solvers.finite_well", "finite_well_scattering", "solvers.scattering"),
        ("radialqm.solvers.finite_well", "finite_well_bound_spectrum", "solvers.finite_well_bound_spectrum"),
        ("radialqm.solvers.finite_well", "finite_well_bound_wavefunction", "solvers.finite_well_bound_wavefunction"),
        ("radialqm.solvers.infinite_well", "infinite_well_spectrum", "solvers.infinite_well_spectrum"),
        ("radialqm.solvers.infinite_well", "infinite_well_wavefunction", "solvers.infinite_well_wavefunction"),
        ("radialqm.solvers.oscillator", "oscillator_spectrum", "solvers.oscillator_spectrum"),
        ("radialqm.solvers.oscillator", "oscillator_wavefunction", "solvers.oscillator_wavefunction"),
        ("radialqm.solvers.closure", "closure_check", "solvers.closure"),
        ("radialqm.solvers.transmission", "quantized_transmission_energies", "solvers.transmission"),
    ):
        spanned(module, attr, name)

    def scan_before(f, grid, *rest):
        t.add("rootfind.scans")
        t.add("rootfind.grid_points", len(grid))
        return (t.counter(f, "rootfind.residual_evals"), grid) + rest

    def scan_after(found, *args):
        t.add("rootfind.roots", len(found))

    spanned("radialqm.solvers.rootfind", "scan_roots", "solvers.rootfind.scan_roots",
            before=scan_before, after=scan_after)

    # specfun: kernel spans named by regime
    ids = {key: t.name_id(key) for key in (
        "specfun.bessel_j.series", "specfun.bessel_j.cf", "specfun.bessel_j.asym",
        "specfun.bessel_y.series", "specfun.bessel_y.cf", "specfun.bessel_y.asym",
        "specfun.bessel_k.temme", "specfun.bessel_k.trapezoid", "specfun.bessel_k.asym",
        "specfun.scaled_bessel_k.temme", "specfun.scaled_bessel_k.trapezoid",
        "specfun.scaled_bessel_k.asym")}
    spanned("radialqm.specfun.bessel_jy", "bessel_j", "specfun.bessel_j",
            namer=lambda nu, x: ids["specfun.bessel_j." + _jy_regime(float(nu), float(x), True)])
    spanned("radialqm.specfun.bessel_jy", "bessel_y", "specfun.bessel_y",
            namer=lambda nu, x: ids["specfun.bessel_y." + _jy_regime(float(nu), float(x), False)])
    spanned("radialqm.specfun.bessel_ik", "bessel_k", "specfun.bessel_k",
            namer=lambda nu, x: ids["specfun.bessel_k." + _k_route(float(x))])
    spanned("radialqm.specfun.bessel_ik", "scaled_bessel_k", "specfun.scaled_bessel_k",
            namer=lambda nu, x: ids["specfun.scaled_bessel_k." + _k_route(float(x))])
    spanned("radialqm.specfun.bessel_ik", "bessel_i", "specfun.bessel_i")
    spanned("radialqm.specfun.bessel_ik", "scaled_bessel_i", "specfun.scaled_bessel_i")
    spanned("radialqm.specfun.zeros", "bessel_j_zero", "specfun.bessel_j_zero")
    fn = _lookup("radialqm.specfun._temme", "gamma_pair_small")
    if fn is not None:
        _replace_everywhere(fn, t.counter(fn, "gamma_pair_small", distinct_arg=True))

    # radial
    def integrate_before(f, *rest):
        return (t.counter(f, "quadrature.integrand_evals"),) + rest

    spanned("radialqm.radial.quadrature", "integrate", "radial.quadrature.integrate",
            before=integrate_before)
    spanned("radialqm.radial.norms", "normalize", "radial.norms.normalize")
    wf = sys.modules.get("radialqm.radial.wavefunction")
    cls = getattr(wf, "RadialWaveFunction", None)
    if cls is not None and hasattr(cls, "sample"):
        cls.sample = t.wrap(cls.sample, "radial.wavefunction.sample")
    else:
        sys.stderr.write("trace: RadialWaveFunction.sample not found\n")

    # oracle
    def eig_before(diag, *rest):
        t.add("eigensolve.rows", len(diag))
        return (diag,) + rest

    def rk4_before(segments, *rest):
        steps = 0
        for a, b, target, _ in segments:
            if b > a:
                steps += max(4, int(math.ceil((b - a) / target)))
        t.add("rk4.steps", steps)
        return (segments,) + rest

    spanned("radialqm.oracle.report", "validation_report", "oracle.validation_report")
    spanned("radialqm.oracle.fd", "fd_bound_spectrum", "oracle.fd_bound_spectrum")
    spanned("radialqm.oracle.fd", "_eigenvalues", "oracle.eigensolve", before=eig_before)
    spanned("radialqm.oracle.fd", "fd_scattering", "oracle.fd_scattering")
    spanned("radialqm.oracle.fd", "shooting_bound_levels", "oracle.shooting")
    spanned("radialqm.oracle.fd", "_rk4_sweep", "oracle.rk4", before=rk4_before)
    spanned("radialqm.oracle.series", "series_reference", "oracle.series_reference")


# ---------------------------------------------------------------------------
# folding spans into metrics


def layer_metrics(t: Tracer) -> Dict[str, float]:
    n_spans = len(t.start)
    dur = [t.end[i] - t.start[i] for i in range(n_spans)]
    child = [0.0] * n_spans
    for i in range(n_spans):
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
    names = t.names

    calls: Dict[str, int] = {}
    incl: Dict[str, float] = {}
    self_: Dict[str, float] = {}
    for i in range(n_spans):
        nm = names[t.name[i]]
        calls[nm] = calls.get(nm, 0) + 1
        incl[nm] = incl.get(nm, 0.0) + dur[i]
        self_[nm] = self_.get(nm, 0.0) + dur[i] - child[i]

    # spans under a zero search or a normalization, by one forward pass
    zero_id = t._ids.get("specfun.bessel_j_zero", -1)
    norm_id = t._ids.get("radial.norms.normalize", -1)
    integ_id = t._ids.get("radial.quadrature.integrate", -1)
    j_ids = {t._ids[k] for k in t._ids if k.startswith("specfun.bessel_j.")}
    in_zero = [False] * n_spans
    in_norm = [False] * n_spans
    j_in_zero = 0
    integ_in_norm = 0
    for i in range(n_spans):
        p = t.parent[i]
        nid = t.name[i]
        in_zero[i] = (p >= 0 and (in_zero[p] or t.name[p] == zero_id))
        in_norm[i] = (p >= 0 and (in_norm[p] or t.name[p] == norm_id))
        if in_zero[i] and nid in j_ids:
            j_in_zero += 1
        if in_norm[i] and nid == integ_id:
            integ_in_norm += 1

    def s(prefix: str, table: Dict[str, float]) -> float:
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def c(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    kernel = ("specfun.bessel_j", "specfun.bessel_y", "specfun.bessel_i",
              "specfun.bessel_k", "specfun.scaled_bessel_k", "specfun.scaled_bessel_i")
    kernel_calls = sum(c(k) for k in kernel)
    kernel_self = sum(s(k, self_) for k in kernel)
    cnt = t.counts

    def jy(regime: str, table) -> float:
        return sum(table.get(f"specfun.bessel_{f}.{regime}", 0) for f in ("j", "y"))

    def kr(route: str, table) -> float:
        return sum(table.get(f"specfun.{f}.{route}", 0) for f in ("bessel_k", "scaled_bessel_k"))

    rk4_s = incl.get("oracle.rk4", 0.0)
    zero_calls = calls.get("specfun.bessel_j_zero", 0)
    norm_calls = calls.get("radial.norms.normalize", 0)
    integ_calls = calls.get("radial.quadrature.integrate", 0)
    roots = cnt.get("rootfind.roots", 0.0)
    m = {
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": s("cli", self_),
        "cli.parse_s": incl.get("cli.parse_args", 0.0),
        "solvers.self_s": s("solvers", self_),
        "solvers.delta_bound_energy.s": incl.get("solvers.delta_bound_energy", 0.0),
        "solvers.finite_well_bound_spectrum.s": incl.get("solvers.finite_well_bound_spectrum", 0.0),
        "solvers.scattering.s": incl.get("solvers.scattering", 0.0),
        "solvers.transmission.s": incl.get("solvers.transmission", 0.0),
        "solvers.closure.s": incl.get("solvers.closure", 0.0),
        "solvers.rootfind.scans": cnt.get("rootfind.scans", 0.0),
        "solvers.rootfind.grid_points": cnt.get("rootfind.grid_points", 0.0),
        "solvers.rootfind.residual_evals": cnt.get("rootfind.residual_evals", 0.0),
        "solvers.rootfind.roots": roots,
        "solvers.rootfind.evals_per_root": ratio(cnt.get("rootfind.residual_evals", 0.0), roots),
        "solvers.rootfind.self_s": s("solvers.rootfind", self_),
        "specfun.calls": kernel_calls,
        "specfun.self_s": s("specfun", self_),
        "specfun.us_per_call": 1e6 * ratio(kernel_self, kernel_calls),
    }
    for f in ("bessel_j", "bessel_y", "bessel_i", "bessel_k", "scaled_bessel_k", "scaled_bessel_i"):
        m[f"specfun.{f}.calls"] = c(f"specfun.{f}")
    for regime in ("series", "cf", "asym"):
        m[f"specfun.jy.{regime}.calls"] = jy(regime, calls)
        m[f"specfun.jy.{regime}.self_s"] = jy(regime, self_)
    for route in ("temme", "trapezoid", "asym"):
        m[f"specfun.k.{route}.calls"] = kr(route, calls)
        m[f"specfun.k.{route}.self_s"] = kr(route, self_)
    m.update({
        "specfun.gamma_pair_small.calls": cnt.get("gamma_pair_small", 0.0),
        "specfun.gamma_pair_small.distinct_args": len(t.distinct.get("gamma_pair_small", ())),
        "specfun.bessel_j_zero.calls": zero_calls,
        "specfun.bessel_j_zero.self_s": self_.get("specfun.bessel_j_zero", 0.0),
        "specfun.bessel_j_zero.j_calls_per_zero": ratio(j_in_zero, zero_calls),
        "radial.quadrature.calls": integ_calls,
        "radial.quadrature.integrand_evals": cnt.get("quadrature.integrand_evals", 0.0),
        "radial.quadrature.evals_per_call": ratio(cnt.get("quadrature.integrand_evals", 0.0), integ_calls),
        "radial.quadrature.self_s": self_.get("radial.quadrature.integrate", 0.0),
        "radial.norms.normalize.calls": norm_calls,
        "radial.norms.normalize.s": incl.get("radial.norms.normalize", 0.0),
        "radial.norms.integrals_per_normalize": ratio(integ_in_norm, norm_calls),
        "radial.wavefunction.sample.calls": calls.get("radial.wavefunction.sample", 0),
        "radial.wavefunction.sample.self_s": self_.get("radial.wavefunction.sample", 0.0),
        "oracle.self_s": s("oracle", self_),
        "oracle.fd_bound_spectrum.calls": calls.get("oracle.fd_bound_spectrum", 0),
        "oracle.eigensolve.calls": calls.get("oracle.eigensolve", 0),
        "oracle.eigensolve.rows": cnt.get("eigensolve.rows", 0.0),
        "oracle.eigensolve.s": incl.get("oracle.eigensolve", 0.0),
        "oracle.fd_scattering.calls": calls.get("oracle.fd_scattering", 0),
        "oracle.shooting.calls": calls.get("oracle.shooting", 0),
        "oracle.rk4.sweeps": calls.get("oracle.rk4", 0),
        "oracle.rk4.steps": cnt.get("rk4.steps", 0.0),
        "oracle.rk4.s": rk4_s,
        "oracle.rk4.steps_per_s": ratio(cnt.get("rk4.steps", 0.0), rk4_s),
        "oracle.series_reference.calls": calls.get("oracle.series_reference", 0),
        "oracle.series_reference.s": incl.get("oracle.series_reference", 0.0),
    })
    return m


UNITS = {
    "calls": "count", "scans": "count", "grid_points": "count", "residual_evals": "count",
    "roots": "count", "evals_per_root": "1/root", "us_per_call": "us",
    "distinct_args": "count", "j_calls_per_zero": "1/zero", "integrand_evals": "count",
    "evals_per_call": "1/call", "integrals_per_normalize": "1/call", "rows": "count",
    "sweeps": "count", "steps": "count", "steps_per_s": "1/s",
}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last in ("s", "self_s", "parse_s"):
        return "s"
    return UNITS[last]
