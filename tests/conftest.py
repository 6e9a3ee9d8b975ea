"""Fixtures shared by more than one test module."""

import pytest

from qtsl import privts
from qtsl.primitives import DataError


@pytest.fixture
def record_tm_steps(monkeypatch):
    """Call it to record, from then on, what the private transferable
    verifier does, in call order: ``("mac", verdict)``, ``("decrypt", ok)``
    and ``("inner", verdict)``.  It wraps the names ``qtsl.privts`` looks up,
    so what is recorded is the production path itself."""

    def install() -> list:
        steps = []

        def wrap(attr, label, verdict):
            inner = getattr(privts, attr)

            def recorded(*args):
                try:
                    out = inner(*args)
                except DataError:
                    steps.append((label, False))
                    raise
                steps.append((label, verdict(out)))
                return out

            monkeypatch.setattr(privts, attr, recorded)

        wrap("mac_verify", "mac", bool)
        wrap("decrypt", "decrypt", lambda _: True)
        wrap("ot_verify", "inner", bool)
        wrap("ot_verify_token", "inner", bool)
        return steps

    return install
