"""Exact class calculus for low-degree covers of the projective line.

Five layers, bottom up:

  * ``gring``     -- truncated graded polynomial rings over Q
  * ``bundles``   -- Chern characters and pushforwards on a P^1-bundle and
                     its projective sub-bundles
  * ``hurwitz``   -- cover-class rings, the universal curve class and the
                     kappa classes for covering degrees 3, 4, 5
  * ``splitting`` -- splitting-type combinatorics and stratum codimensions
  * ``plmin``     -- exact piecewise-linear minimization over polytopes

plus a ``cecalc`` command-line tool (module ``cli``).

The package root exports nothing but ``__version__``: import the layer you
need, e.g. ``from cecalc import hurwitz`` or ``from cecalc.plmin import
solve``, so that a program loads only the layers it uses.
"""

__version__ = "1.0.0"
