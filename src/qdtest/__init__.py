"""Quantum testers for distribution closeness and k-wise uniformity, simulated
exactly on a dense state-vector engine with per-oracle query counting.

Each definition is named in its own module only, so import it from there
(``from qdtest.testers import closeness_plan``); the CLI is
:mod:`qdtest.cli`."""

__version__ = "0.1.0"
