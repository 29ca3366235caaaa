"""Marginal blocks shared by the test modules."""

import numpy as np

from drafttree.distributions import validate_block

# Worked example: q1=(0.6,0.3,0.1), q2=(0.7,0.2,0.1).
EXAMPLE_ROWS = [[0.6, 0.3, 0.1], [0.7, 0.2, 0.1]]


def random_block(seed, block_len, vocab, concentration=1.0):
    """A validated block reproducible from ``seed``.

    Rows are gamma(concentration) draws, or, for ``concentration="ties"``,
    integer weights 1-3, so that most rows hold tied probabilities.
    """
    rng = np.random.default_rng(seed)
    if concentration == "ties":
        return validate_block(rng.integers(1, 4, size=(block_len, vocab)))
    return validate_block(rng.gamma(concentration, 1.0, size=(block_len, vocab)))
