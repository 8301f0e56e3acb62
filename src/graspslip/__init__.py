"""Grasp-slip prediction from force/pressure time series.

Causal short-time Fourier features feed an LSTM classifier implemented in
plain numpy; the package also ships a synthetic trace generator,
evaluation metrics, and a streaming inference simulator.
"""

__version__ = "0.1.0"
