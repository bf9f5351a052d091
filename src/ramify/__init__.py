"""Optimal ramified irrigation patterns and tree branch shapes.

The library computes branched transport structures by minimizing
mollified irrigation-cost functionals with projected gradient descent
and continuation in the smoothing radius, alongside exact tree-cost
oracles for validation. Import names from their defining module, such
as ``ramify.optimizer``; importing the package itself loads nothing
else, so the command line can configure thread pools before numpy loads.
"""

__version__ = "0.1.0"
