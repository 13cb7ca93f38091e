import numpy as np
import pytest

from bitsplit.engine import calibrate_activations
from bitsplit.graph import optimize_graph
from bitsplit.quantize import activation_distortion_table, weight_distortion_table
from bitsplit.synth import make_eval_set, make_toy_classifier


@pytest.fixture(scope="session")
def toy_graph():
    """Optimized toy classifier (batchnorm folded, relu fused)."""
    return optimize_graph(make_toy_classifier(0))


@pytest.fixture(scope="session")
def toy_eval():
    return make_eval_set(per_class=4, seed=1, noise=60)


@pytest.fixture(scope="session")
def toy_tables(toy_graph, toy_eval):
    calib = calibrate_activations(toy_graph, toy_eval.inputs, max_samples=8)
    B = (2, 4, 8)
    return weight_distortion_table(toy_graph, B), activation_distortion_table(toy_graph, calib, B)
