"""Decay rates and large-time profiles for doubly damped sigma-evolution modes.

Per radial frequency r the model solves

  v'' + (r^{2 sigma1} + r^{2 sigma2}) v' + r^{2 sigma} v = 0,

and the package computes the exact mode multipliers, their Taylor series in
the (a, b) damping tags, the order-k large-time profiles, weighted L2 error
norms, and the decay-rate checks built on top of them.  Import from the
modules (`sigmadamp.experiments`, `sigmadamp.acceptance`, ...); the command
line front end is `sigmadamp.cli`.
"""
