"""Repo benchmark package: see bench/README.md and bench/run.py."""
