"""Low-complexity compressive video codec.

The encoder compresses groups of frames by residual subtraction and seeded
random-Gaussian block measurements (cheap matrix multiplies, streamed so only
one residual frame is ever resident); the decoder recovers frames by
total-variation minimization over composite blocks, one group at a time.
"""

import logging

from .errors import CodecError
from .frames import (BlockGrid, Frame, Gop, ResidualFrame, load_raw_sequence,
                     mean_coded_psnr, psnr, save_frame_pgm, segment_gops)
from .mixing import (GENERATOR_SPLITMIX64_BOXMULLER, CompositeBlock,
                     MeasurementVector, MixingMatrix, StreamAccumulator,
                     assemble_composite, compute_residual,
                     disassemble_composite, gen_mixing_matrix, mix_batch)
from .tv import (SolverParams, SolverResult, divergence_adjoint, forward_diff,
                 shrink2, solve_tv)
from .codec import (Bitstream, CodecConfig, DecodeReport, RateReport,
                    decode_sequence, encode_sequence, iter_decode, rate_report)
from .synthetic import moving_square

__version__ = "0.1.0"

# silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
