"""Every binding the benchmark's tracer wraps still exists in numvar.

perfbench/tracing.py wraps numvar functions under the names the calling
modules bound them to, so a renamed or removed binding breaks a traced
benchmark run while the library itself still works.  This pins each
(module, attribute) pair its LAYERS table lists.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [b for _, layer_bindings, _, _ in tracing.LAYERS for b in layer_bindings]
    assert bindings
    missing = [
        (module, attr) for module, attr in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
