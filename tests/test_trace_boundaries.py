"""The benchmark's trace boundaries name functions that exist in the package.

``bench/tracing.py`` wraps module-level names from outside the package and
silently leaves out every per-layer metric whose name no longer resolves,
so a rename has to fail here instead. The file is loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# The optimizer stopped importing these when it began to take the round's
# uplink budget as an argument; their spans are still recorded through
# swiptfl.scenario. The boundary table drops them at its next revision.
STALE = {
    ("swiptfl.optimizer", "uplink_budget"),
    ("swiptfl.optimizer", "round_total"),
    ("swiptfl.optimizer", "local_train_time"),
}


def load_boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_trace_boundary_resolves_to_a_package_callable():
    boundaries = load_boundaries()
    unresolved = {
        (module, attr)
        for module, attr, _ in boundaries
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert unresolved <= STALE
    traced = {name for module, attr, name in boundaries if (module, attr) not in unresolved}
    assert traced == {name for _, _, name in boundaries}
