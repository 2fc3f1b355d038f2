"""Per-layer metrics of the traced run, one table for all eight modules.

Every entry names the metric, its unit, which direction is better, and the
end-to-end metrics and workloads it should move.  BENCHMARK.json's
``per_layer`` list is this table without the last two fields (its schema
allows no more keys), and ``test_perfbench.py`` keeps the two in step.

All values describe one pass of a workload's fixed work.  A layer that a
workload does not reach reads 0 there.  "Per point" means per sweep row,
so it reads 0 on workloads that run no sweep.
"""

from dataclasses import dataclass
from typing import Callable

LIBRARY_MODULES = ("matkernel", "model", "thermal", "entanglement", "sweeps",
                   "output", "validate", "cli")

#: the public functions wrapped in spans, as module.function.  hf_coupling
#: and the small matkernel helpers stay unwrapped: they run many times per
#: point, and their time counts in their callers' self time.
SPAN_TARGETS = (
    "matkernel.hermitian_eig", "matkernel.kron",
    "model.hamiltonian_tensor", "model.hamiltonian_closed_form",
    "model.analytic_spectrum", "model.effective_coupling",
    "thermal.gibbs", "thermal.gibbs_analytic", "thermal.gibbs_numeric",
    "thermal.partition_function", "thermal.ground_state_mixture",
    "entanglement.negativity", "entanglement.partial_transpose",
    "entanglement.pure_state_negativity_oracle",
    "sweeps.run_sweep", "sweeps.figure_preset",
    "sweeps.detect_critical_field", "sweeps.detect_critical_dz",
    "output.emit_csv", "output.emit_svg",
    "validate.check_spectrum", "validate.check_hamiltonian_routes",
    "validate.check_gibbs_routes", "validate.check_symmetries",
    "validate.check_oracle", "validate.check_hf_maximum",
    "validate.check_headline", "validate.check_critical_field",
    "cli.main",
)

CHECKS = tuple(t.split(".", 1)[1] for t in SPAN_TARGETS if t.startswith("validate.check_"))
CLI_SUBCOMMANDS = ("negativity", "spectrum")


@dataclass(frozen=True)
class PassTrace:
    """What one traced pass left behind."""

    agg: object          # spans.Aggregate of the pass
    spans: list
    info: dict           # the workload's own counts (sweep rows, bytes, tokens)
    wall: float          # traced wall time of the pass
    eig_calls: int       # numpy.linalg eigenroutine calls during the pass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable      # PassTrace -> number; None for run-level metrics


def _ratio(a, b):
    return a / b if b else 0.0


def _calls(name):
    return lambda t: t.agg.calls[name]


def _self(name):
    return lambda t: t.agg.self_s[name]


def _per_point(name):
    return lambda t: _ratio(t.agg.calls[name], t.info.get("sweep_rows", 0))


def _per_scan(child, scan):
    return lambda t: _ratio(t.agg.by_parent[child, scan], t.agg.calls[scan])


def _us_per_call(name):
    return lambda t: 1e6 * _ratio(t.agg.incl_s[name], t.agg.calls[name])


def _by_caller(name, module):
    return lambda t: t.agg.by_caller[name, f"qutritxxz.{module}"]


def _cli_us(subcommand):
    def value(t):
        durations = [s.end - s.start for s in t.spans if s.name == "cli.main"]
        mine = [d for d, sub in zip(durations, t.info.get("subcommands", ()))
                if sub == subcommand]
        return 1e6 * _ratio(sum(mine), len(mine))
    return value


def _info(key):
    return lambda t: t.info.get(key, 0)


EIG = "matkernel.hermitian_eig"
_FIG = "figures wall_s, points_per_s"
_VAL = "validate wall_s"
_CRIT = "critical wall_s, call_p50_ms"
_CLI = "cli_points call_p50_ms"

LAYER_METRICS = (
    LayerMetric(f"{EIG}.calls", "count", "lower", f"{_FIG}; {_VAL}", _calls(EIG)),
    LayerMetric(f"{EIG}.self_s", "s", "lower", f"{_FIG}; {_VAL}", _self(EIG)),
    LayerMetric(f"{EIG}.calls_per_point", "calls/point", "lower", _FIG, _per_point(EIG)),
    *(LayerMetric(f"{EIG}.by_caller.{m}", "count", "lower",
                  {"cli": _CLI, "entanglement": _FIG, "sweeps": _FIG}.get(m, _VAL),
                  _by_caller(EIG, m))
      for m in ("cli", "entanglement", "model", "sweeps", "thermal", "validate")),
    LayerMetric("matkernel.kron.calls", "count", "lower", _VAL, _calls("matkernel.kron")),

    *(LayerMetric(f"model.{f}.{k}", u, "lower", f"{_CRIT}; {_VAL}", fn(f"model.{f}"))
      for f in ("hamiltonian_tensor", "hamiltonian_closed_form", "analytic_spectrum")
      for k, u, fn in (("calls", "count", _calls), ("self_s", "s", _self))),
    LayerMetric("model.analytic_spectrum.calls_per_point", "calls/point", "lower",
                f"{_CRIT}; {_FIG}", _per_point("model.analytic_spectrum")),
    LayerMetric("model.effective_coupling.calls", "count", "lower", f"{_CRIT}; {_FIG}",
                _calls("model.effective_coupling")),

    LayerMetric("thermal.gibbs.calls", "count", "lower", f"{_FIG}; {_VAL}",
                _calls("thermal.gibbs")),
    LayerMetric("thermal.gibbs_analytic.self_s", "s", "lower", f"{_FIG}; {_VAL}",
                _self("thermal.gibbs_analytic")),
    *(LayerMetric(f"thermal.{f}.{k}", u, "lower", f"{_FIG}; {_VAL}", fn(f"thermal.{f}"))
      for f in ("gibbs_numeric", "partition_function", "ground_state_mixture")
      for k, u, fn in (("calls", "count", _calls), ("self_s", "s", _self))),
    LayerMetric("thermal.route.closed_form", "count", "higher", _FIG,
                lambda t: t.agg.ok_by_parent["thermal.gibbs_analytic", "thermal.gibbs"]),
    LayerMetric("thermal.route.numeric_fallback", "count", "lower", _FIG,
                lambda t: t.agg.by_parent["thermal.gibbs_numeric", "thermal.gibbs"]),
    LayerMetric("thermal.route.ground_mixture", "count", "lower", _FIG,
                _calls("thermal.ground_state_mixture")),

    LayerMetric("entanglement.negativity.calls", "count", "lower", f"{_FIG}; {_CRIT}; {_CLI}",
                _calls("entanglement.negativity")),
    LayerMetric("entanglement.negativity.self_s", "s", "lower", f"{_FIG}; {_CRIT}; {_CLI}",
                _self("entanglement.negativity")),
    LayerMetric("entanglement.negativity.us_per_call", "us", "lower",
                f"{_FIG}; {_CRIT}; {_CLI}", _us_per_call("entanglement.negativity")),
    LayerMetric("entanglement.partial_transpose.calls", "count", "lower", _FIG,
                _calls("entanglement.partial_transpose")),
    LayerMetric("entanglement.partial_transpose.self_s", "s", "lower", _FIG,
                _self("entanglement.partial_transpose")),
    LayerMetric("entanglement.pure_state_negativity_oracle.calls", "count", "lower", _VAL,
                _calls("entanglement.pure_state_negativity_oracle")),

    LayerMetric("sweeps.run_sweep.calls", "count", "lower", _FIG, _calls("sweeps.run_sweep")),
    LayerMetric("sweeps.run_sweep.self_s", "s", "lower", _FIG, _self("sweeps.run_sweep")),
    LayerMetric("sweeps.points", "count", "higher", _FIG, _info("sweep_rows")),
    LayerMetric("sweeps.figure_preset.self_s", "s", "lower", _FIG,
                _self("sweeps.figure_preset")),
    LayerMetric("sweeps.detect_critical_field.self_s", "s", "lower", _CRIT,
                _self("sweeps.detect_critical_field")),
    LayerMetric("sweeps.detect_critical_field.spectra_per_scan", "calls/scan", "lower", _CRIT,
                _per_scan("model.analytic_spectrum", "sweeps.detect_critical_field")),
    LayerMetric("sweeps.detect_critical_dz.self_s", "s", "lower", _CRIT,
                _self("sweeps.detect_critical_dz")),
    LayerMetric("sweeps.detect_critical_dz.negativity_per_scan", "calls/scan", "lower", _CRIT,
                _per_scan("entanglement.negativity", "sweeps.detect_critical_dz")),

    *(LayerMetric(f"output.{f}.{k}", u, "lower", "figures call_p50_ms (should not move)", fn)
      for f, key in (("emit_csv", "csv_bytes"), ("emit_svg", "svg_bytes"))
      for k, u, fn in (("calls", "count", _calls(f"output.{f}")),
                       ("self_s", "s", _self(f"output.{f}")),
                       ("bytes", "bytes", _info(key)))),

    *(LayerMetric(f"validate.{c}.self_s", "s", "lower", _VAL, _self(f"validate.{c}"))
      for c in CHECKS),

    LayerMetric("cli.main.calls", "count", "higher", _CLI, _calls("cli.main")),
    LayerMetric("cli.main.self_s", "s", "lower", _CLI, _self("cli.main")),
    *(LayerMetric(f"cli.main.us_per_call.{sub}", "us", "lower", _CLI, _cli_us(sub))
      for sub in CLI_SUBCOMMANDS),
    LayerMetric("cli.negative_zero_tokens", "count", "lower",
                "none; counts the -0.0 formatting defect", _info("negative_zero_tokens")),
    LayerMetric("cli.numpy_repr_tokens", "count", "lower",
                "none; counts np.float64(...) tokens in spectrum CSV",
                _info("numpy_repr_tokens")),

    LayerMetric("numpy.linalg.eig_calls", "count", "lower",
                "none; any nonzero count is a failed item", lambda t: t.eig_calls),
    LayerMetric("trace.wall_s", "s", "lower", "none; wall time of one traced pass",
                lambda t: t.wall),
    LayerMetric("trace.unattributed_s", "s", "lower",
                "none; traced wall time outside every span (benchmark overhead)",
                lambda t: t.wall - t.agg.total_self_s),
    LayerMetric("trace.spans", "count", "lower", "none; spans recorded per pass",
                lambda t: len(t.spans)),
    LayerMetric("trace.overhead_s", "s", "lower",
                "none; traced minus untraced wall_s of the same run", None),
)
