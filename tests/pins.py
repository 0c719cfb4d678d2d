"""Where the byte pins hold: the numpy version and the OpenBLAS kernel
they were taken with.

numpy's wheel bundles an OpenBLAS built for many CPUs, which picks one
kernel for the CPU it loads on (``OPENBLAS_CORETYPE`` overrides the pick).
Kernels may round a product differently in the last bit, and so may numpy
versions, so a byte pin holds only on the version and kernel it was taken
with. Verdicts hold on any kernel (``test_verdict_pins.py``).
"""
import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_coretype() -> str:
    """The name of the kernel numpy's bundled OpenBLAS runs, such as
    ``"SkylakeX"``. Raises LookupError, saying why, where numpy bundles no
    OpenBLAS library or the library cannot name its kernel."""
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "libscipy_openblas64_*.so")
    paths = glob.glob(pattern)
    if not paths:
        raise LookupError(f"numpy bundles no OpenBLAS matching {pattern}")
    try:
        corename = ctypes.CDLL(paths[0]).scipy_openblas_get_corename64_
    except (OSError, AttributeError) as exc:
        raise LookupError(f"{paths[0]} does not name its kernel: {exc}")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def byte_pins(numpy_version: str, coretype: str):
    """A mark that skips byte pins taken with numpy ``numpy_version`` on the
    OpenBLAS kernel ``coretype`` wherever either differs, or wherever the
    running kernel cannot be read."""
    taken = (f"byte pins were taken with numpy {numpy_version} on the "
             f"OpenBLAS {coretype} kernel")
    try:
        running = np.__version__, openblas_coretype()
    except LookupError as exc:
        return pytest.mark.skip(
            reason=f"{taken}; this is numpy {np.__version__}, and its "
                   f"kernel is unknown: {exc}")
    return pytest.mark.skipif(
        running != (numpy_version, coretype),
        reason=f"{taken}; this is numpy {running[0]} on the {running[1]} "
               f"kernel")
