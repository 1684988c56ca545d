"""The benchmark's tracer still fits numvar.

perfbench/tracing.py wraps numvar functions under the names the calling
modules bound them to, and reads its work counts off their arguments and
results.  So a renamed or removed binding, or a changed signature, breaks
a traced benchmark run while the library itself still works.  These tests
pin each (module, attribute) pair its LAYERS table lists, and run every
workload's tiny commands in process under the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the layers each workload's tiny commands reach, so each gets a span
_REACHED = {
    "variance-exact-1e6": {
        "sequences.generate_sequence", "sequences.dilate_mod1", "stats.number_variance_exact",
        "harness.variance_cell", "harness.run_variance_experiment", "harness.emit",
    },
    "variance-mc-mid": {
        "sequences.generate_sequence", "sequences.dilate_mod1",
        "stats.number_variance_montecarlo", "harness.variance_cell",
        "harness.run_variance_experiment", "harness.emit",
    },
    "spectral-paircorr": {
        "sequences.generate_sequence", "sequences.dilate_mod1", "stats.pair_correlation_direct",
        "stats.pair_correlation_fourier", "harness.emit",
    },
    "energy-structure": {
        "sequences.generate_sequence", "energy.additive_energy", "harness.run_energy_sweep",
        "theory.fourier_coefficient", "harness.emit",
    },
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = _load("tracing")
    bindings = [b for _, layer_bindings, _, _ in tracing.LAYERS for b in layer_bindings]
    assert bindings
    missing = [
        (module, attr) for module, attr in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", sorted(_REACHED))
def test_tiny_workload_runs_traced(workload, monkeypatch, capsys):
    # run.py imports its sibling modules checks and tracing by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    tracing = run.tracing
    import numvar.cli

    # saved first, so teardown puts every original binding back
    for _, bindings, _, _ in tracing.LAYERS:
        for module_name, attr in bindings:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for argv in run.commands_for(workload, 0, tiny=True):
        code = tracer.call(tracing.MAIN_SPAN, numvar.cli.main, (argv,))
        assert code == 0, (argv, capsys.readouterr().err)
    assert {s["name"] for s in tracer.spans} == _REACHED[workload] | {tracing.MAIN_SPAN}
    metrics = tracing.layer_metrics(tracer.spans, 1)
    for name, _, work_name, _ in tracing.LAYERS:
        if work_name and name in _REACHED[workload]:
            assert metrics["%s.%s" % (name, work_name)] > 0, name
