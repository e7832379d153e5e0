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
from .geometry import (
    Circle,
    SeedConfiguration,
    dual_circles,
    generate_packing_geometric,
    invert_circle,
    invert_point,
    seed_for_root,
    standard_seed,
    strip_seed,
    tangency_point,
)

__all__ = [
    "PackingOrbit",
    "apply_swap",
    "descartes_form",
    "enumerate_orbit",
    "is_primitive",
    "is_root",
    "reduce_to_root",
    "Circle",
    "SeedConfiguration",
    "dual_circles",
    "generate_packing_geometric",
    "invert_circle",
    "invert_point",
    "seed_for_root",
    "standard_seed",
    "strip_seed",
    "tangency_point",
]

__version__ = "0.1.0"
