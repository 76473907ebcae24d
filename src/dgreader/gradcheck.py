"""Central finite-difference gradient checking.

The checked quantity is max over all trainable parameter entries of

    |analytic - numeric| / max(|analytic|, |numeric|, FLOOR)

with numeric = (f(x + h) - f(x - h)) / (2h), h = STEP. The FLOOR keeps
finite-difference noise on near-zero gradients from dominating the
ratio while still flagging any absolute disagreement above ~1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .autodiff import Parameter

STEP = 1e-5
TOLERANCE = 1e-4
FLOOR = 1e-5


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (
            f"gradcheck {status}: max rel error {self.max_rel_error:.3e} "
            f"(tolerance {TOLERANCE:.1e}, worst {self.worst_param})"
        )


def numeric_gradient(loss_fn: Callable[[], float], param: Parameter) -> np.ndarray:
    """Central differences of loss_fn with respect to every entry of param.

    loss_fn must re-run the forward pass from the parameter's current
    data on each call; the parameter is restored exactly afterwards.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        up = loss_fn()
        flat[i] = orig - STEP
        down = loss_fn()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * STEP)
    return grad.reshape(param.data.shape)


def check_gradients(
    loss_fn: Callable[[], float],
    params: Iterable[Parameter],
    grads: dict[str, np.ndarray],
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    grads maps parameter id to the analytic gradient (as produced by
    backward); frozen parameters are skipped.
    """
    worst = 0.0
    worst_name = "<none>"
    for p in params:
        if not p.trainable:
            continue
        analytic = grads[p.id]
        numeric = numeric_gradient(loss_fn, p)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FLOOR)
        err = float((np.abs(analytic - numeric) / denom).max()) if analytic.size else 0.0
        if err > worst:
            worst = err
            worst_name = p.id
    return GradCheckReport(worst, worst_name)
