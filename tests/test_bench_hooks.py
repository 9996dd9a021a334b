"""The benchmark's traced run patches scalefit functions by name; every name must resolve.

Imports perfbench/tracing.py (no import-time side effects) and runs no workload.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.LAYERS
    missing = []
    for module_name, attr, _, _ in tracing.LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            ok = owner is not None and isinstance(vars(owner).get(method), classmethod)
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
