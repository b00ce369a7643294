"""The benchmark's tracer must find every swtr name it wraps.

``perfbench/tracer.py`` wraps pipeline functions by name from outside the
package; a renamed or deleted function would otherwise surface only in a
traced benchmark run.  The file is read and executed here without importing
it as a module, so nothing is written next to it.
"""

import types
from pathlib import Path

import swtr.cli  # noqa: F401  (the tracer patches only swtr modules already loaded)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_probe():
    tracer = types.ModuleType("perfbench_tracer")
    tracer.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    probes = tracer.Tracer()
    probes.install()
    try:
        assert probes.missing == []
    finally:
        probes.uninstall()
