"""Apollonian circle packings: integer Descartes-quadruple orbits, inversive
geometry, counting statistics, congruence quotients, and sieve bookkeeping."""

from .quadruples import (
    PackingOrbit,
    apply_swap,
    descartes_form,
    enumerate_orbit,
    is_primitive,
    is_root,
    reduce_to_root,
)

__all__ = [
    "PackingOrbit",
    "apply_swap",
    "descartes_form",
    "enumerate_orbit",
    "is_primitive",
    "is_root",
    "reduce_to_root",
]

__version__ = "0.1.0"
