"""Optimal consensus weights, convergence rates, and quantized averaging
simulation for symmetric, complete-cored, and k-cored star networks.
"""

from .topology import *
from .weights import *
from .spectral import *
from .optimality import *
from .simulate import *

__version__ = "0.1.0"
