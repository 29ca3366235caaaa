"""Marginal blocks shared by the test modules."""

import numpy as np

from drafttree.distributions import validate_block

# Worked example: q1=(0.6,0.3,0.1), q2=(0.7,0.2,0.1).
EXAMPLE_ROWS = [[0.6, 0.3, 0.1], [0.7, 0.2, 0.1]]


def random_block(seed, block_len, vocab, concentration=1.0):
    """A validated block of gamma(concentration) rows, reproducible from ``seed``."""
    rng = np.random.default_rng(seed)
    return validate_block(rng.gamma(concentration, 1.0, size=(block_len, vocab)))
