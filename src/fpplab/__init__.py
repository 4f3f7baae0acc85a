"""Forward performance processes and Merton value functions in factor models
with eigenvalue-equality correlation structure.

Modules
-------
model    : market/factor specifications, Sharpe ratio, generator coefficients
eve      : projection of correlation estimates onto the r*Q manifold, p choice
affine   : Riccati ODE system and exponential-affine performance processes
spectral : atomic spectral measures, eigenfunctions, Laplace inversion
sim      : correlated path simulation, Feynman-Kac estimates, admissibility
verify   : PDE residual checks and Monte Carlo martingale diagnostics
cli      : command-line front end

scipy is imported only inside the functions that need it (the numeric
Riccati solve, the ODE and inversion routines of spectral, and GridField).
"""

__version__ = "0.1.0"
