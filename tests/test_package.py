"""The package namespace and the BLAS thread default set on import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import murel
from murel import linalg, metrics, model, relations, scenario, search

SRC = str(Path(murel.__file__).resolve().parents[1])
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_every_core_module_name_is_exported_once():
    for module in (linalg, metrics, model, relations, scenario, search):
        for name in module.__all__:
            assert getattr(murel, name) is getattr(module, name)
            assert name in murel.__all__
    assert len(murel.__all__) == len(set(murel.__all__))


def blas_threads_after_import(code: str, **env: str) -> str:
    """OPENBLAS_NUM_THREADS as a fresh interpreter sees it after running code."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env={**base, "PYTHONPATH": SRC, **env}, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("code, env, expected", [
    ("import murel", {}, "1"),
    ("import murel", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ("import numpy, murel", {}, "None"),
], ids=["unset-becomes-1", "user-value-kept", "numpy-first-left-unset"])
def test_blas_thread_default(code, env, expected):
    assert blas_threads_after_import(code, **env) == expected
