"""Layered end-to-end benchmark of the repository (see run.py)."""
