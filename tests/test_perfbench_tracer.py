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


def test_tracer_wraps_each_family_batch_and_not_its_map(monkeypatch):
    # each library family writes T once, as `_apply`, and names it
    # `apply_batch` too; the tracer must time the audit's batches under the
    # second name and leave the run's loop, which binds `_apply`, untraced
    from graphmann.operators import Componentwise, Identity, MatrixAffine, NonmonotoneSwap

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    families = (Identity, MatrixAffine, Componentwise, NonmonotoneSwap)
    assert all(cls.__dict__["apply_batch"] is cls.__dict__["_apply"] for cls in families)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for cls in families:
            assert cls.__dict__["apply_batch"].__wrapped__ is cls.__dict__["_apply"], cls
            assert not hasattr(cls.__dict__["_apply"], "__wrapped__"), cls
    finally:
        tracer.uninstall()
    assert all(cls.__dict__["apply_batch"] is cls.__dict__["_apply"] for cls in families)
