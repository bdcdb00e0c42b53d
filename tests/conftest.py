"""Make tests/ importable as a source of shared helpers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _ledger_in_tmpdir(tmp_path, monkeypatch):
    """Point the default run ledger at a per-test tmpdir.

    CLI invocations under test would otherwise append manifests to
    the repository's own ``.repro-runs/``; tests that care about the
    ledger pass an explicit ``--ledger-dir``.
    """
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture(autouse=True)
def _no_translator_errors():
    """A translator bug ends as an ``error:<Type>`` bail-out and the
    method stays in the interpreter, so a run still gives the right
    answer; fail the test anyway."""
    from repro.jit import template

    before = template.translation_errors()
    yield
    raised = template.translation_errors() - before
    assert not raised, f"{raised} template translation(s) raised " \
        f"(see the jit.template warnings on stderr)"
