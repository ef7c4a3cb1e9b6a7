"""Training image classifiers robust to universal adversarial perturbations
and adversarial patches by playing a two-player zero-sum game.

Subpackages:
    tensor      minimal reverse-mode autodiff engine on numpy arrays
    model       conv/dense architectures, classifier pools, both players' mixtures
    data        datasets, perturbation specs, lazy perturbed views
    attack      universal / patch / per-sample attack crafting
    train       the game loop plus SGD and adversarial-training baselines
    evaluation  accuracy and adversarial accuracy with held-out attacks
    cli         the ``advgame`` command-line entry point
"""

from . import attack, data, evaluation, model, tensor, train

__all__ = ["attack", "data", "evaluation", "model", "tensor", "train"]
__version__ = "0.1.0"
