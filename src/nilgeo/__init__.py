"""nilgeo: exact verification of invariant contact Calabi-Yau geometry on Lie algebras.

The layers are the submodules (`nilgeo.structures`, `nilgeo.curvature`, ...);
importing the package loads none of them.
"""

__version__ = "0.1.0"
