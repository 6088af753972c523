"""Test-suite settings.

The solver's dense kernels are small, and a second BLAS thread makes them
several times slower on a shared host, so the suite runs BLAS on one thread
unless the environment says otherwise.  This module is imported before numpy
is, so the limits take effect when the BLAS library loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
