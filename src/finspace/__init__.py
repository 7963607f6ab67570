"""Workbench for finite topological spaces and minimal models of wedges of spheres."""

from finspace.posets import Poset

__all__ = ["Poset"]
__version__ = "0.1.0"
