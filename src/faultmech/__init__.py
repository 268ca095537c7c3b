"""Quasi-static finite-element simulation of frictional fault reactivation.

The package couples a linear poroelastic medium, discretized with trilinear
hexahedra, to zero-thickness frictional interface elements carrying
piecewise-constant traction multipliers.  Pressure changes in reservoir
compartments load the medium one-way; an active-set Coulomb algorithm with
optional slip weakening resolves stick, slip and opening on the faults.

Submodules are imported lazily so that an entry point can pin BLAS thread
counts before numpy loads.
"""

__version__ = "0.1.0"

__all__ = [
    "assembly",
    "constitutive",
    "contact",
    "mesh",
    "pressure",
    "scenario",
    "solver",
    "spring1d",
]


def __getattr__(name):
    if name in __all__:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
