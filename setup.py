"""Setuptools shim so `pip install -e .` works without the `wheel` package.

All project metadata lives in pyproject.toml; this file exists only to let
pip fall back to the legacy editable-install path in offline environments.
"""

from setuptools import setup

setup()
