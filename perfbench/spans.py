"""Spans around the public functions of each irsim module, and the per-layer report.

``Tracer.install`` replaces each traced function by a wrapper in every
module that holds it, including modules that imported it under its own
name (``irsim.protocol.link_power``, ``irsim.experiments.run_cpi``, ...),
so calls between modules are recorded too; ``Tracer.uninstall`` puts the
originals back. Spans stay in memory as [name, start, end, parent, attrs]
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

# (module, public function) pairs that become spans; the hooks read the
# work counts from what the call returned
TRACED = (
    ("arrays", "composite_vector"),
    ("power", "link_power"),
    ("power", "power_report"),
    ("power", "irs_received_powers"),
    ("power", "bilinear_link_power"),
    ("optimizer", "build_problem"),
    ("optimizer", "pdd_solve"),
    ("optimizer", "pdd_solve_with_candidates"),
    ("optimizer", "minimize_unit_modulus_quadratic"),
    ("protocol", "run_cpi"),
    ("protocol", "random_phase_baseline"),
    ("experiments", "run_experiment"),
    ("experiments", "emit"),
    ("cli", "main"),
)


def _pdd_attrs(result, args, kwargs):
    return {
        "outer": result.outer_iterations,
        "winning": len(result.trace),
        "unconverged": 0 if result.converged else 1,
    }


def _cpi_attrs(result, args, kwargs):
    return {"iterations": result.iterations}


def _emit_attrs(result, args, kwargs):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return {"bytes": os.path.getsize(path)}


HOOKS = {
    "optimizer.pdd_solve": _pdd_attrs,
    "protocol.run_cpi": _cpi_attrs,
    "experiments.emit": _emit_attrs,
}


class Tracer:
    """In-memory span recorder for one process (single-threaded use)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original) of each installed wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the span's record."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        # inlines span(): a generator-based context manager would triple the
        # cost of a span, and composite_vector alone makes thousands per round
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            span = [name, time.perf_counter(), 0.0, parent, None]
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span[4] = hook(out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an irsim module holds it."""
        importlib.import_module("irsim.cli")  # imports every module that holds a traced function
        mods = [m for name, m in list(sys.modules.items()) if name == "irsim" or name.startswith("irsim.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"irsim.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        config = sys.modules["irsim.config"].ScenarioConfig
        from_file = config.__dict__["from_file"]
        self._patched.append((config, "from_file", from_file))
        config.from_file = classmethod(self.wrap("config.from_file", from_file.__func__))

    def uninstall(self) -> None:
        """Put back every function that ``install`` wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for i, (name, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0:.9f},{t1:.9f}\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds that one span adds to a call: a wrapped no-op timed against the bare one."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, rounds: int, overhead_share: float) -> dict[str, float]:
    """Per-layer figures per round, from the spans of ``rounds`` traced rounds.

    ``overhead_share`` is the tracing cost of a round as a share of the
    untraced round time; it is reported as ``trace.overhead_share``.
    """
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    attrs: dict[str, float] = {}
    module_self: dict[str, float] = {}
    own = _self_times(spans)
    for (name, t0, t1, _, extra), self_s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (t1 - t0)
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + self_s
        if name == "protocol.run_cpi":
            attrs["run_cpi.self_s"] = attrs.get("run_cpi.self_s", 0.0) + self_s
        for key, value in (extra or {}).items():
            attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0.0) + value

    def per_round(x):
        return x / rounds

    def c(name):
        return per_round(calls.get(name, 0))

    def s(name):
        return per_round(secs.get(name, 0.0))

    cpi_times = [t1 - t0 for name, t0, t1, _, _ in spans if name == "protocol.run_cpi"]
    cpi_deciles = statistics.quantiles(cpi_times, n=10) if len(cpi_times) > 1 else [0.0] * 9
    outer = attrs.get("optimizer.pdd_solve.outer", 0.0)
    winning = attrs.get("optimizer.pdd_solve.winning", 0.0)
    m = {
        "arrays.composite_vector.calls": c("arrays.composite_vector"),
        "arrays.composite_vector.s": s("arrays.composite_vector"),
        "power.link_power.calls": c("power.link_power"),
        "power.link_power.s": s("power.link_power"),
        "power.power_report.calls": c("power.power_report"),
        "power.power_report.s": s("power.power_report"),
        "power.irs_received_powers.calls": c("power.irs_received_powers"),
        "power.irs_received_powers.s": s("power.irs_received_powers"),
        "power.bilinear_link_power.s": s("power.bilinear_link_power"),
        "optimizer.pdd_solve.calls": c("optimizer.pdd_solve"),
        "optimizer.pdd_solve.s": s("optimizer.pdd_solve"),
        "optimizer.pdd_solve.s_per_outer": secs.get("optimizer.pdd_solve", 0.0) / outer if outer else 0.0,
        "optimizer.pdd_solve.outer_iterations": per_round(outer),
        "optimizer.pdd_solve.winning_outer": per_round(winning),
        "optimizer.pdd_solve.useful_outer_ratio": winning / outer if outer else 0.0,
        "optimizer.pdd_solve.unconverged": per_round(attrs.get("optimizer.pdd_solve.unconverged", 0.0)),
        "optimizer.pdd_solve_with_candidates.s": s("optimizer.pdd_solve_with_candidates"),
        "optimizer.build_problem.s": s("optimizer.build_problem"),
        "optimizer.minimize_unit_modulus_quadratic.calls": c("optimizer.minimize_unit_modulus_quadratic"),
        "optimizer.minimize_unit_modulus_quadratic.s": s("optimizer.minimize_unit_modulus_quadratic"),
        "protocol.run_cpi.calls": c("protocol.run_cpi"),
        "protocol.run_cpi.s": s("protocol.run_cpi"),
        "protocol.run_cpi.self_s": per_round(attrs.get("run_cpi.self_s", 0.0)),
        "protocol.run_cpi.p50_s": statistics.median(cpi_times) if cpi_times else 0.0,
        "protocol.run_cpi.p90_s": cpi_deciles[-1],
        "protocol.run_cpi.iterations": per_round(attrs.get("protocol.run_cpi.iterations", 0.0)),
        "protocol.random_phase_baseline.calls": c("protocol.random_phase_baseline"),
        "protocol.random_phase_baseline.s": s("protocol.random_phase_baseline"),
        "experiments.run_experiment.s": s("experiments.run_experiment"),
        "experiments.emit.s": s("experiments.emit"),
        "experiments.emit.bytes": per_round(attrs.get("experiments.emit.bytes", 0.0)),
        "config.from_file.s": s("config.from_file"),
        "cli.main.s": s("cli.main"),
        "cli.overhead_s": s("cli.main") - s("experiments.run_experiment"),
    }
    for module in ("arrays", "power", "optimizer", "protocol", "experiments", "config", "cli", "bench"):
        m[f"{module}.self_s"] = per_round(module_self.get(module, 0.0))
    m["trace.overhead_share"] = overhead_share
    m["trace.op_coverage"] = op_coverage(spans, own)
    return m


def op_coverage(spans, own) -> float:
    """Share of the benchmark's timed operations spent inside irsim spans (``own``: self times)."""
    total = sum(s[2] - s[1] for s in spans if s[0] == "bench.op")
    uncovered = sum(o for s, o in zip(spans, own) if s[0] == "bench.op")
    return 1.0 - uncovered / total if total else 0.0

