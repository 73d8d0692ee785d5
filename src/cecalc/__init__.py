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

The package root holds only ``__version__``, the digit limit and the
integer reader ``integer`` that the layers and the command line share, and
imports no layer: import the layer you need, e.g. ``from cecalc import
hurwitz`` or ``from cecalc.plmin import solve``, so that a program loads
only the layers it uses.
"""

from operator import index

__version__ = "1.0.0"

# Python's limit on the digits of an integer it converts to or from text:
# every number a command prints must fit it, and so must a spec number's
# exponent (building 1e10000000 takes seconds).
MAX_DIGITS = 4300
_CAP = 10**MAX_DIGITS


def fits(*values) -> bool:
    """Whether every numerator and denominator of the ints or Fractions
    ``values`` has at most MAX_DIGITS digits, so that Python can print it."""
    return all(max(abs(q.numerator), q.denominator) < _CAP for q in values)


def check_digits(what: str, *values) -> None:
    """ValueError naming ``what`` and the limit unless ``values`` fit MAX_DIGITS."""
    if not fits(*values):
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits")


def integer(value, what: str, least=None) -> int:
    """``value`` read with ``operator.index``: ValueError naming ``what`` when
    it is not an integer (such as 6.5 or '7', which ``int`` would truncate or
    parse) or is below ``least``."""
    try:
        n = index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if least is not None and n < least:
        check_digits(what, n)
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return n
