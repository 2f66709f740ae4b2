"""Codec benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload square --seed 1 --seconds 30 --trace 0
    python3 perfbench/smoke.py          # tiny-size check of the benchmark itself

Workloads (``workloads.py``, ``BENCHMARK.json``): ``square``, ``pan`` and
``capture``. The seed fixes every input. A pass runs the library pipeline
``encode_sequence -> to_bytes -> Bitstream.from_bytes -> decode_sequence``
and checks its outputs outside the timed region; passes repeat until
``--seconds`` have gone by. On ``capture`` the decode side runs on a stream
of the first 6 frames only, as the full capture stream would take minutes.

``--trace 0`` installs no hooks and prints the end-to-end metrics: encode
and decode ms per frame (medians over passes), ``psnr_db`` and
``bits_per_pixel`` (from the first pass, which every pass must reproduce
exactly), ``encode_peak_mib`` and ``decode_peak_mib`` (tracemalloc peaks of
that first pass) and ``setup_s`` (the median over fresh processes of the
time from process start to the end of package import and input generation).
``--trace 1`` alternates plain and hooked passes and prints the per-layer
metrics of ``tracer.py``; ``layers.json`` maps each to its layer and to the
end-to-end metrics it should move. Spans are written to ``.bench_out/``.

The second-to-last line of standard output records the environment, the
stream hash and the sample counts; the last line is the result object. A pass
that raises or fails a check counts as failed; it does not stop the run.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, pinned before numpy is first imported. It must not exceed
# nproc; on 2 cores one OpenBLAS thread decodes square no slower than two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]


def import_codec():
    """Import ubss_codec from this checkout's source tree, or exit without a result."""
    try:
        import ubss_codec
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ubss_codec from {SRC}: {exc}")
    if not os.path.abspath(ubss_codec.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: ubss_codec was imported from {ubss_codec.__file__}, not {SRC}")


if __name__ == "__main__":
    import_codec()
    from perfbench import bench
    sys.exit(bench.main(sys.argv[1:], BLAS_THREADS))
