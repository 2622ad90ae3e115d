"""Optimal consensus weights, convergence rates, and quantized averaging
simulation for symmetric, complete-cored, and k-cored star networks.

STAR_CONSENSUS_THREADS, when set, is the default for the OpenMP, OpenBLAS
and MKL thread counts; it is applied here, before numpy is first imported.
"""

import os

if "STAR_CONSENSUS_THREADS" in os.environ:  # must precede the numpy import
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["STAR_CONSENSUS_THREADS"])

from .topology import *
from .weights import *
from .spectral import *
from .optimality import *
from .simulate import *

__version__ = "0.1.0"
