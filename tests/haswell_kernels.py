"""Run test code on OpenBLAS's Haswell (AVX2) kernels, which any x86-64
host with AVX2 and FMA has, whatever kernels the host's own OpenBLAS picks:
the byte tests of the engine's products and the pins of whole runs."""

import os
import subprocess
import sys

import pytest

from hgtnet import tensor as T


def run_on_haswell_kernels(script):
    """Run ``script`` in a child Python whose OpenBLAS uses its Haswell
    (AVX2) kernels, which ``OPENBLAS_CORETYPE`` selects only when the
    library loads, and assert that the child exits 0.  The child imports
    ``hgtnet`` from this checkout and can import this directory's modules;
    before the script it asserts the core that OpenBLAS reports.  Skips
    where the CPU lacks avx2 or fma, since a forced kernel that the CPU
    lacks faults."""
    try:
        with open("/proc/cpuinfo") as f:
            words = set(f.read().split())
    except OSError:
        words = set()
    if not {"avx2", "fma"} <= words:
        pytest.skip("the CPU lacks avx2 or fma, which OpenBLAS's Haswell kernels use")
    if T._numpy_openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(
        filter(None, [src, here, os.environ.get("PYTHONPATH")])))
    prelude = ("import ctypes\nfrom hgtnet import tensor as T\n"
               "corename = T._numpy_openblas().scipy_openblas_get_corename64_\n"
               "corename.restype = ctypes.c_char_p\n"
               "assert corename() == b'Haswell', corename()\n")
    done = subprocess.run([sys.executable, "-c", prelude + script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
