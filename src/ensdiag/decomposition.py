"""Pointwise splits of ensemble scores into member average and diversity.

Four families are supported, each an exact algebraic identity per point:

    quadratic   U(ens)      = variance_diversity + mean_m U(f_m)
    entropy     H(ens)      = jsd_diversity      + mean_m H(f_m)
    brier_gap   mean Brier  = ensemble Brier     + variance_diversity
    nll_gap     mean NLL    = ensemble NLL       + KL(uniform || member likelihoods)

Every constructor re-verifies its identity at runtime and raises
NumericalError when the residual exceeds 1e-10 on any point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import NLL_EPS, brier, entropy, quad_uncertainty
from .store import stack_members

FAMILIES = ("quadratic", "entropy", "brier_gap", "nll_gap")
IDENTITY_TOL = 1e-10


def _stack_members(members: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    stack = stack_members(members)
    if stack.shape[0] < 2:
        raise ValidationError("diversity needs at least two members")
    return stack


@dataclass
class DecompositionRecord:
    """Per-point decomposition: total, diversity, and member-average columns.

    For the uncertainty families (quadratic, entropy) the identity is
    total = diversity + avg_member. For the score-gap families (brier_gap,
    nll_gap) total is the ensemble score and avg_member = total + diversity.
    """

    family: str
    total: np.ndarray
    diversity: np.ndarray
    avg_member: np.ndarray

    def residual(self) -> np.ndarray:
        if self.family in ("quadratic", "entropy"):
            return self.total - (self.diversity + self.avg_member)
        return self.avg_member - (self.total + self.diversity)

    @property
    def n(self) -> int:
        return int(self.total.shape[0])


def _check_identity(record: DecompositionRecord, mask: np.ndarray | None = None) -> DecompositionRecord:
    res = np.abs(record.residual())
    if mask is not None:
        res = res[mask]
    if res.size and res.max() > IDENTITY_TOL:
        raise NumericalError(
            f"{record.family} identity residual {res.max():.3e} exceeds {IDENTITY_TOL:g}"
        )
    return record


def variance_diversity(members: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Sum over classes of the population variance across members, per point."""
    stack = _stack_members(members)
    return stack.var(axis=0, ddof=0).sum(axis=1)


def jsd_diversity(members: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence: entropy of the mean minus mean entropy."""
    stack = _stack_members(members)
    ens = stack.mean(axis=0)
    member_h = np.stack([entropy(stack[m]) for m in range(stack.shape[0])])
    return entropy(ens) - member_h.mean(axis=0)


def decompose_quadratic(members: Sequence[np.ndarray] | np.ndarray) -> DecompositionRecord:
    stack = _stack_members(members)
    ens = stack.mean(axis=0)
    total = quad_uncertainty(ens)
    diversity = variance_diversity(stack)
    avg = np.stack([quad_uncertainty(stack[m]) for m in range(stack.shape[0])]).mean(axis=0)
    return _check_identity(DecompositionRecord("quadratic", total, diversity, avg))


def _mean_kl_to_ensemble(stack: np.ndarray, ens: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0; the ensemble mean is positive wherever any member is.
    safe_ens = np.where(ens > 0.0, ens, 1.0)
    out = np.zeros(stack.shape[1])
    for m in range(stack.shape[0]):
        p = stack[m]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(safe_ens)), 0.0)
        out += terms.sum(axis=1)
    return out / stack.shape[0]


def decompose_entropy(members: Sequence[np.ndarray] | np.ndarray) -> DecompositionRecord:
    """Entropy split. Also cross-checks the two equivalent diversity formulas,
    JSD as entropy gap and JSD as mean KL to the ensemble."""
    stack = _stack_members(members)
    ens = stack.mean(axis=0)
    total = entropy(ens)
    member_h = np.stack([entropy(stack[m]) for m in range(stack.shape[0])])
    avg = member_h.mean(axis=0)
    diversity = total - avg
    kl_form = _mean_kl_to_ensemble(stack, ens)
    gap = np.abs(diversity - kl_form)
    if gap.size and gap.max() > IDENTITY_TOL:
        raise NumericalError(
            f"entropy diversity formulas disagree by {gap.max():.3e} (tol {IDENTITY_TOL:g})"
        )
    return _check_identity(DecompositionRecord("entropy", total, diversity, avg))


def brier_jensen_gap(members: Sequence[np.ndarray] | np.ndarray, labels: np.ndarray) -> DecompositionRecord:
    """Mean member Brier minus ensemble Brier, which equals variance_diversity."""
    stack = _stack_members(members)
    ens = stack.mean(axis=0)
    total = brier(ens, labels)
    avg = np.stack([brier(stack[m], labels) for m in range(stack.shape[0])]).mean(axis=0)
    diversity = variance_diversity(stack)
    return _check_identity(DecompositionRecord("brier_gap", total, diversity, avg))


def nll_jensen_gap(
    members: Sequence[np.ndarray] | np.ndarray,
    labels: np.ndarray,
    *,
    eps: float = NLL_EPS,
) -> DecompositionRecord:
    """Mean member NLL minus ensemble NLL.

    The gap equals KL(Uniform(M) || Q) where Q normalizes the member
    true-class likelihoods. The identity is exact when no likelihood hits
    the clamp floor; clamped points are skipped by the runtime check.
    """
    stack = _stack_members(members)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(stack.shape[1])
    like = stack[:, rows, labels]
    like_c = np.maximum(like, eps)

    avg = -np.log(like_c).mean(axis=0)
    ens_like = like.mean(axis=0)
    total = -np.log(np.maximum(ens_like, eps))
    m = stack.shape[0]
    # KL(U || Q) = -ln M + ln sum_i L_i - mean_i ln L_i, over clamped likelihoods.
    diversity = -np.log(float(m)) + np.log(like_c.sum(axis=0)) - np.log(like_c).mean(axis=0)

    unclamped = (like > eps).all(axis=0) & (ens_like > eps)
    record = DecompositionRecord("nll_gap", total, diversity, avg)
    return _check_identity(record, mask=unclamped)

