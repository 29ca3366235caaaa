"""Marginal blocks, models and a drafter probe shared by the test modules."""

import numpy as np
from hypothesis import reject

from drafttree.distributions import validate_block
import drafttree.models as models
from drafttree.models import random_model

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


def random_model_or_reject(seed, vocab_size, order, concentration):
    """``random_model``, or a hypothesis ``reject()`` of a table it refuses by design.

    At a tiny concentration every non-pad draw of a row can underflow to 0
    (at |V| = 2 a row has one such draw); random_model refuses that table, so
    a property drawn over it has nothing to check.
    """
    try:
        return random_model(seed, vocab_size, order, concentration=concentration)
    except ValueError as err:
        assert "without positive finite mass" in str(err)
        reject()


def counting_dp_steps(monkeypatch):
    """Count the marginal DP's steps; returns the list each step appends to."""
    steps = []
    real = models._marginal_steps

    def counted(*args):
        for row in real(*args):
            steps.append(1)
            yield row

    monkeypatch.setattr(models, "_marginal_steps", counted)
    return steps
