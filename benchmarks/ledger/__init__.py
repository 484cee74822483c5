"""The perf ledger benchmark; see ``README.md`` and ``run.py``."""
