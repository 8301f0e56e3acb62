"""Grasp-slip prediction from force/pressure time series.

Causal short-time Fourier features feed an LSTM classifier implemented in
plain numpy; the package also ships a synthetic trace generator,
evaluation metrics, and a streaming inference simulator.
"""

from graspslip.signal import (
    SensorTrace,
    NormStats,
    stft_window,
    band_magnitudes,
)
from graspslip.models import (
    ModelVariant,
    TrainConfig,
    GraspModel,
    get_variant,
    train,
    save_checkpoint,
    load_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "SensorTrace",
    "NormStats",
    "stft_window",
    "band_magnitudes",
    "ModelVariant",
    "TrainConfig",
    "GraspModel",
    "get_variant",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
