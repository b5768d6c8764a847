"""ccmax: cardinality-constrained Max-2-CSP toolkit.

Submodules:
    gaussian  -- normal distribution functions and the bivariate orthant
                 probability gamma_rho
    curves    -- hardness and approximation ratio curves over the
                 cardinality parameter q
    instance  -- instance data model, file format, exact brute force
    sdp       -- vector relaxation builder and low-rank solver
    rounding  -- threshold hyperplane rounding with cardinality repair
    gadget    -- unique-games gadget graphs, completeness sets, density
    verify    -- invariant suites behind the `verify` subcommand
    errors    -- the exception hierarchy shared across the package
    cli       -- command line entry point
"""

__version__ = "0.1.0"
