"""hgtnet: hybrid graph-transformer image classifier, self-contained.

Subpackage map:

- ``tensor`` / ``gradcheck`` — float64 autodiff engine and its verifier
- ``rng``                    — counter-based deterministic random streams
- ``ppm`` / ``data``         — image I/O, augmentation, dataset handling
- ``model``                  — patch embedding, encoder, CNN branch, fusion,
                               graph attention, classification heads
- ``training`` / ``checkpoint`` — losses, Adam, train loop, binary snapshots
- ``metrics``                — confusion matrix, PRF report, ROC/AUC
- ``config`` / ``cli``       — run configuration and the command-line front end
"""

from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     DegenerateInputError, DivergenceError, FormatError,
                     HgtnetError, ShapeError)
from .rng import RngStream
from .tensor import Tensor

__all__ = [
    "CheckpointError", "ConfigError", "ContractError", "DataError",
    "DegenerateInputError", "DivergenceError", "FormatError", "HgtnetError",
    "ShapeError",
    "RngStream", "Tensor",
]
