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


# the functions that audit a run block by block, and the batch that gives
# them their images: each must open a span whether a run or a stored record
# feeds the pass
BLOCK_SPANS = {
    "mann.verify_trajectory",
    "diagnostics.audit_edge_propagation",
    "diagnostics.audit_fejer",
    "diagnostics.gk_inequality_check",
    "operators.apply_batch",
}


def test_tracer_sees_every_per_block_auditor(monkeypatch, tmp_path):
    # CI's traced run checks only the verdicts, so an auditor the pass bound
    # before the tracer patched it would read 0 s unnoticed
    import graphmann.experiment as experiment
    from graphmann.config import ExperimentConfig
    from graphmann.corpus import oracle_1d_config

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    config = ExperimentConfig.from_dict(oracle_1d_config())
    data = oracle_1d_config(str(tmp_path / "stride3"))
    data["run"]["record_stride"] = 3
    stored = ExperimentConfig.from_dict(data)
    experiment.run_experiment(stored)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert experiment.run_experiment(config, write=False).exit_code == 0
        ran = {span.name for span in tracer.take()}
        code, _ = experiment.audit_stored(tmp_path / "stride3" / "run.json", stored)
        assert code == 0
        audited = {span.name for span in tracer.take()}
    finally:
        tracer.uninstall()
    assert BLOCK_SPANS <= ran, BLOCK_SPANS - ran
    assert BLOCK_SPANS <= audited, BLOCK_SPANS - audited
