"""Bifurcation toolkit for the one-dimensional curvature Neumann problem.

Solves, continues, and classifies positive solutions of

    -(u' / sqrt(1 + u'^2))' = lam a(x) f(u),   u'(0) = u'(1) = 0,

with a sign-changing weight a and a bump nonlinearity f.  Modules:

  model          weights, nonlinearities, residual diagnostics
  quadrature     adaptive rules and the node criterion integrals
  eigen          principal eigenvalues, bifurcation directions
  shoot          arclength shooting, regular solutions by height scan
  singular       regularity dichotomy and jump-solution construction
  continuation   pseudo-arclength branches and diagrams
  varmin         discrete length-functional minimization
  asymptotics    large-parameter rate fits and small-branch scaling
  cli            command line front end (eig, solve, branch, classify,
                 singular, minimize, rates, diagram, verify)
"""

from .model import (
    ConstantForm,
    Nonlinearity,
    PolynomialForm,
    PowerForm,
    ProblemFamily,
    ProblemInstance,
    Segment,
    TableWeight,
    Weight,
    curvature_residual,
    neumann_balance,
    power_weight,
    two_constant_weight,
)
from .quadrature import ExtendedReal, criterion_integral, criterion_pair, integrate
from .eigen import EigenPair, bif_direction, principal_dirichlet, principal_neumann
from .shoot import ArcPath, Blocked, RegularSolution, find_regular, integrate_path, shoot_residual
from .singular import Absent, RegularityVerdict, SingularSolution, classify, smallness_guard, solve_singular
from .continuation import Branch, diagram, seed_from_lambda0, singular_sweep, trace
from .varmin import DiscreteBVFunction, functional_value, minimize, minimize_multistart
from .asymptotics import build_family, grow_decay_rates, flatness_and_node, small_branch_scaling

__version__ = "0.1.0"
