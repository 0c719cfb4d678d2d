"""The byte pins' skip mark (``pins.py``) says why it skips."""
import numpy as np
import pytest

import pins


def test_runs_on_the_kernel_the_pins_were_taken_on(monkeypatch):
    monkeypatch.setattr(pins, "openblas_coretype", lambda: "SkylakeX")
    mark = pins.byte_pins(np.__version__, "SkylakeX")
    assert mark.args == (False,)


def test_skips_on_another_kernel_naming_both(monkeypatch):
    monkeypatch.setattr(pins, "openblas_coretype", lambda: "Haswell")
    mark = pins.byte_pins(np.__version__, "SkylakeX")
    assert mark.args == (True,)
    assert "SkylakeX kernel" in mark.kwargs["reason"]
    assert "Haswell kernel" in mark.kwargs["reason"]


def test_skips_where_the_kernel_cannot_be_read(monkeypatch):
    def unreadable():
        raise LookupError("numpy bundles no OpenBLAS matching x")

    monkeypatch.setattr(pins, "openblas_coretype", unreadable)
    mark = pins.byte_pins(np.__version__, "SkylakeX")
    assert mark.name == "skip"
    assert mark.kwargs["reason"].endswith(
        "kernel is unknown: numpy bundles no OpenBLAS matching x")


def test_reads_the_running_kernel():
    try:
        kernel = pins.openblas_coretype()
    except LookupError as exc:
        pytest.skip(str(exc))
    assert kernel and kernel.isprintable()
