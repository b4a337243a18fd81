"""The benchmark's traced run patches qusecnets names; each must exist where it is looked up."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_patch_target_is_defined_on_its_owner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    patches = spans.Tracer()._patches
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in owner.__dict__]
    assert missing == []
