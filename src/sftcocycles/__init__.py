"""Invariants of one-sided topological Markov shifts and their cocycle groupoids.

The package computes, over a 0/1 transition matrix: admissible-word
combinatorics and block recodings; integer cocycle arithmetic for
locally constant potentials; the bisection calculus of the shift
groupoid with membership splitting along a potential; saturation,
first-passage families and inclusion matrices of support algebras;
coboundary detection and potential solving; suspended (tower) matrices
with return-time decoding; and exact Smith-form K-theory with Bratteli
dimension data.  A small CLI exposes the same operations over JSON
files.
"""

from . import coboundary, groupoid, ktheory, locfun, sft, support, suspension
from .sft import *
from .locfun import *
from .groupoid import *
from .support import *
from .coboundary import *
from .suspension import *
from .ktheory import *

# The public names: those of the seven modules, each listed once there.
__all__ = (
    sft.__all__
    + locfun.__all__
    + groupoid.__all__
    + support.__all__
    + coboundary.__all__
    + suspension.__all__
    + ktheory.__all__
)

__version__ = "0.1.0"
