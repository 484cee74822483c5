"""Setuptools shim so `pip install -e .` works without the `wheel` package.

All project metadata lives in pyproject.toml; this file exists only to let
pip fall back to the legacy editable-install path in offline environments —
and to host the optional mypyc build of the hot core.

Setting ``REPRO_COMPILE=1`` (with the ``[compiled]`` extra installed,
which provides mypyc) compiles the strict-typed hot modules —
``repro.core.bitset`` and the ``repro.cost`` model — to C extensions::

    REPRO_COMPILE=1 pip install -e .[compiled]

The compiled build is strictly optional: nothing imports mypyc at
runtime (``repro.core.bitset.__file__`` ending in ``.so`` shows it is
loaded), and a plain install runs the identical pure-python byte-code.
See docs/performance.md.
"""

import os

from setuptools import setup

#: The strict-typed hot modules mypyc compiles under REPRO_COMPILE=1.
COMPILED_MODULES = [
    "src/repro/core/bitset.py",
    "src/repro/cost/io_model.py",
    "src/repro/cost/cout_model.py",
    "src/repro/cost/lower_bounds.py",
]


def _ext_modules():
    if os.environ.get("REPRO_COMPILE", "") != "1":
        return []
    # lint: disable=accelerator-guard -- the one build-time import: mypyc
    # only runs under REPRO_COMPILE=1 with the [compiled] extra present.
    from mypyc.build import mypycify

    return mypycify(COMPILED_MODULES)


setup(ext_modules=_ext_modules())
