"""One BLAS thread for the whole suite, set before numpy is first imported.

The acceptance suite's block-size clause compares decode wall times. With
OpenBLAS's default of one thread per core, the first decode after the host
has been idle can take several times longer than the rest, which shows up
as noise in that comparison; perfbench/run.py pins the same variables.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
