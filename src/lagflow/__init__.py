"""Numerical laboratory for equivariant Lagrangian mean curvature flow.

Plane curves evolve under velocity = curvature - (radial attraction),
the profile equation of equivariant Lagrangian surfaces in C^2 moving
by mean curvature.  The package integrates the flow, tracks the
conserved/drained monotone quantities, detects finite-time
singularities, and analyzes their tangent structure through Gaussian
densities, parabolic rescalings, and cone decompositions.
"""

__version__ = "0.1.0"
