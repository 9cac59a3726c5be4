"""Photon-mediated excitation transport on a driven two-branch atomic chain.

Importing the package imports none of its submodules, so the command line
entry point can pin BLAS thread counts before numpy is first imported;
import each submodule by name (`from atomchain import cli`).
"""

__version__ = "0.1.0"
