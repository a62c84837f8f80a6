"""gloss: text classifiers that also write their own explanations.

A model bundle encodes a review, predicts its overall label, and
generates a fine-grained explanation (five sub-field scores, or three
short polarity comments from a conditional VAE). A frozen explanation
classifier turns explanation quality into a per-example risk factor
that reweights the training loss.
"""

import os

# one BLAS thread unless the environment sets a count; must run before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .autodiff import Adam, Tensor, no_grad
from .data import CorpusSplit, PCMagExample, SkytraxExample, Vocab
from .framework import (ProbTriple, TrainConfig, evaluate, explanation_factor,
                        final_loss, mrt_loss, pretrain_classifier, train)
from .models import CvaeConfig, EncoderConfig, ModelBundle

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Tensor",
    "no_grad",
    "CorpusSplit",
    "PCMagExample",
    "SkytraxExample",
    "Vocab",
    "ProbTriple",
    "TrainConfig",
    "evaluate",
    "explanation_factor",
    "final_loss",
    "mrt_loss",
    "pretrain_classifier",
    "train",
    "CvaeConfig",
    "EncoderConfig",
    "ModelBundle",
    "__version__",
]
