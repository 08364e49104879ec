"""Frozen scalar reference implementations the equivalence suites pin the package against."""
