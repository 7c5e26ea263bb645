"""Tetra's repository benchmark (see ``run.py``)."""
