"""Random target response matrices with orthogonal columns.

The synthesis goal is channel-agnostic: a random ``output_size x input_size``
matrix whose columns are pairwise orthogonal with the squared norm required
for the stack to radiate without amplification,

    column_norm_sq = 1 / (beta^2 * ||feed_matrix||_F^2).

Construction: draw a complex Gaussian matrix R (input_size x output_size) and
whiten it, G = scale * R^H (R R^H)^(-1/2). When input_size exceeds
output_size, R R^H is singular and full column orthogonality is impossible;
the pseudo-inverse square root is used instead, which yields a scaled partial
isometry with orthogonal, equal-norm rows and total squared norm
``output_size * column_norm_sq``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TargetMatrix", "generate_target"]

_EIGENVALUE_FLOOR = 1e-12
_MAX_REDRAWS = 3


@dataclass(frozen=True)
class TargetMatrix:
    """Target response (``output_size x input_size``) and its per-column power."""

    entries: np.ndarray
    column_norm_sq: float

    @property
    def output_size(self) -> int:
        return self.entries.shape[0]

    @property
    def input_size(self) -> int:
        return self.entries.shape[1]

    @property
    def norm_sq(self) -> float:
        """Squared Frobenius norm of the target."""
        return float(np.sum(np.abs(self.entries) ** 2))


def generate_target(
    input_size: int,
    output_size: int,
    beta: float,
    w1_frobenius: float,
    seed: int,
) -> TargetMatrix:
    """Draw the random orthogonal-column target, deterministically from ``seed``.

    A draw whose Gram matrix is numerically rank-deficient (below
    ``min(input_size, output_size)`` eigenvalues above the relative floor) is
    redrawn with an incremented seed, at most three times.

    The BLAS thread count enters here, through the eigenvectors of ``eigh``;
    the Gram matrix and its eigenvalues do not depend on it. On numpy 2.4
    with OpenBLAS 0.3.31 (2 cores), the target's last bits (relative
    difference up to 6e-16) differed between ``OPENBLAS_NUM_THREADS=1`` and 2
    for 8 of 8 seeds at the fig5 size (input_size 100, output_size 9) and for
    none at input_size 9. Given one target, 60 ``run_pgd`` iterations on the
    fig5 stack were bit-identical on one and two threads, so this draw is
    where fig5's columns pick up their thread sensitivity.
    """
    if input_size < 1 or output_size < 1:
        raise ValueError("input_size and output_size must be at least 1")
    if not beta > 0 or not w1_frobenius > 0:
        raise ValueError("beta and w1_frobenius must be positive")

    expected_rank = min(input_size, output_size)
    for attempt in range(_MAX_REDRAWS + 1):
        rng = np.random.default_rng(seed + attempt)
        raw = (
            rng.standard_normal((input_size, output_size))
            + 1j * rng.standard_normal((input_size, output_size))
        ) / np.sqrt(2.0)
        gram = raw @ raw.conj().T
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        keep = eigenvalues > _EIGENVALUE_FLOOR * eigenvalues[-1]
        if int(np.count_nonzero(keep)) >= expected_rank:
            break
    else:
        raise ArithmeticError(
            f"rank-deficient Gaussian draw persisted over {_MAX_REDRAWS + 1} attempts (seed {seed})"
        )

    basis = eigenvectors[:, keep]
    inv_sqrt = (basis / np.sqrt(eigenvalues[keep])) @ basis.conj().T
    scale = 1.0 / (beta * w1_frobenius)
    entries = scale * (raw.conj().T @ inv_sqrt)
    entries.flags.writeable = False
    return TargetMatrix(entries=entries, column_norm_sq=scale**2)
