"""Cross-modal embedding engine.

Text is enhanced by a dual-branch gated self-attention mechanism over a
bidirectional GRU; visual multiscale and region features are fused and
then guide the text embedding per image-text pair.  Training uses a
dual triplet-ranking objective over in-batch negatives, with Adam and a
stepped learning-rate schedule.  Everything is float64, deterministic,
and sized for desk-scale experiments on synthetic or ingested feature
banks.

Importing the package pins every BLAS and OpenMP pool to one thread
unless the caller set the variable: the encoders' chunk workers use the
cores instead (see ``model``).  The pin takes effect only when NumPy has
not been imported yet.
"""
import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"

from .autograd import Tensor, grad_check, no_grad
from .config import TrainConfig
from .model import Model

__all__ = ["Tensor", "grad_check", "no_grad", "TrainConfig", "Model",
           "__version__"]
