"""Bifurcation toolkit for the one-dimensional curvature Neumann problem.

Solves, continues, and classifies positive solutions of

    -(u' / sqrt(1 + u'^2))' = lam a(x) f(u),   u'(0) = u'(1) = 0,

with a sign-changing weight a and a bump nonlinearity f.  Modules:

  model          weights, nonlinearities, residual diagnostics
  quadrature     node criterion integrals by QUADPACK
  eigen          principal eigenvalues, bifurcation directions
  shoot          arclength shooting, regular solutions by height scan
  singular       regularity dichotomy and jump-solution construction
  continuation   pseudo-arclength branches and diagrams
  varmin         discrete length-functional minimization
  asymptotics    large-parameter rate fits and small-branch scaling
  cli            command line front end (eig, solve, branch, classify,
                 singular, minimize, rates, diagram, verify)
"""

from . import asymptotics, continuation, eigen, model, quadrature, shoot, singular, varmin
from .asymptotics import *
from .continuation import *
from .eigen import *
from .model import *
from .quadrature import *
from .shoot import *
from .singular import *
from .varmin import *

# the package exports what its modules export
_MODULES = (model, quadrature, eigen, shoot, singular, continuation, varmin, asymptotics)
__all__ = [name for module in _MODULES for name in module.__all__]

__version__ = "0.1.0"
