"""Dithered quantized sub-Gaussian random embeddings: mapping, distances,
set geometry, and the Monte Carlo verification harness.

Import the submodules (ensembles, quantizer, distances, geometry,
experiments, selftest, cli) for the API; the top level keeps sample_matrix.
"""

from .ensembles import sample_matrix

__version__ = "0.1.0"
