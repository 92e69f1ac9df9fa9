"""The benchmark's tracer patches graphmann functions by module and name, so a
rename or a move in the package breaks only the traced benchmark run.  This
installs the tracer in-process to catch that here."""

from pathlib import Path

import graphmann.mann as mann

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_name_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = mann.run
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert mann.run is not original
        assert mann.run.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert mann.run is original
