"""Every name the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` replaces each entry of its ``INSTRUMENTS`` list with a
timing wrapper.  A name deleted or renamed in ``src/`` makes every traced
benchmark run crash, so this check runs in the unit suite, which is where
a deletion is made.  The tracer file is loaded as it is, not imported as a
package module.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrumented_name_resolves():
    # Looked up as Tracer.installed() does: a function with getattr on its
    # module, a method in its class's own __dict__ (an inherited one would
    # not be found there).
    missing = []
    for module_name, attribute, _, _ in load_tracer().INSTRUMENTS:
        owner = importlib.import_module(module_name)
        class_name, _, name = attribute.rpartition(".")
        if class_name:
            cls = getattr(owner, class_name, None)
            found = cls is not None and callable(cls.__dict__.get(name))
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{module_name}:{attribute}")
    assert missing == []
