"""Each test starts with an empty store of shared KernelRules, so that a
rule some module-scoped result keeps alive never reaches a test that
patches or counts the build."""

import weakref

import pytest

import bdfvac.dispersion


@pytest.fixture(autouse=True)
def _fresh_rule_store(monkeypatch):
    monkeypatch.setattr(bdfvac.dispersion, "_SHARED_RULES", weakref.WeakValueDictionary())
