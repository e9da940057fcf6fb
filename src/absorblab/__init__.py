"""Numerical laboratory for semilinear heat flow with logarithmic absorption.

Modules:

* :mod:`absorblab.nonlinearity` -- absorption families and integral-tail
  condition classification;
* :mod:`absorblab.flat_ode` -- space-independent decay solutions by level
  inversion, including the infinite-data envelope;
* :mod:`absorblab.profiles` -- stationary radial profiles, growth
  asymptotics, a-priori bounds;
* :mod:`absorblab.evolution` -- monotone implicit radial solver and the
  ball-exhaustion scheme drivers;
* :mod:`absorblab.threshold` -- heat-kernel threshold analytics for
  admissible initial growth;
* :mod:`absorblab.cli` -- reproducible experiment front end.
"""

__version__ = "0.1.0"
