"""Pointwise splits of ensemble scores into member average and diversity.

Four families are supported, each an exact algebraic identity per point:

    quadratic   U(ens)      = variance_diversity + mean_m U(f_m)
    entropy     H(ens)      = JSD                + mean_m H(f_m)
    brier_gap   mean Brier  = ensemble Brier     + variance_diversity
    nll_gap     mean NLL    = ensemble NLL       + KL(uniform || member likelihoods)

Every constructor re-verifies its identity at runtime and raises
NumericalError when the residual exceeds 1e-10 on any point. Members are
any sequence of (N, C) matrices; every mean over members walks that
sequence one matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import IDENTITY_TOL, NLL_EPS, brier, entropy, quad_uncertainty
from .store import check_members, form_ensemble

FAMILIES = ("quadratic", "entropy", "brier_gap", "nll_gap")


def _check_members(members: Sequence[np.ndarray]) -> list[np.ndarray]:
    arrays = check_members(members)
    if len(arrays) < 2:
        raise ValidationError("diversity needs at least two members")
    return arrays


def _member_mean(score: Callable[[np.ndarray], np.ndarray], members: list[np.ndarray]) -> np.ndarray:
    """Per-point mean of one score over members, summed in member order."""
    return sum(score(p) for p in members) / len(members)


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


def _variance_diversity(members: list[np.ndarray], ens: np.ndarray) -> np.ndarray:
    """Sum over classes of the population variance across members, per point,
    about an ensemble mean already formed from `members`."""
    acc = np.zeros_like(ens)
    sq = np.empty_like(ens)
    for p in members:
        np.subtract(p, ens, out=sq)
        sq *= sq
        acc += sq
    acc /= len(members)
    return acc.sum(axis=1)


def decompose_quadratic(members: Sequence[np.ndarray]) -> DecompositionRecord:
    members = _check_members(members)
    ens = form_ensemble(members)
    total = quad_uncertainty(ens)
    diversity = _variance_diversity(members, ens)
    avg = _member_mean(quad_uncertainty, members)
    return _check_identity(DecompositionRecord("quadratic", total, diversity, avg))


def _mean_kl_to_ensemble(members: list[np.ndarray], ens: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0; the ensemble mean is positive wherever any member is.
    log_ens = np.log(np.where(ens > 0.0, ens, 1.0))
    out = np.zeros(ens.shape[0])
    for p in members:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - log_ens), 0.0)
        out += terms.sum(axis=1)
    return out / len(members)


def decompose_entropy(members: Sequence[np.ndarray]) -> DecompositionRecord:
    """Entropy split. Also cross-checks the two equivalent diversity formulas,
    JSD as entropy gap and JSD as mean KL to the ensemble."""
    members = _check_members(members)
    ens = form_ensemble(members)
    total = entropy(ens)
    avg = _member_mean(entropy, members)
    diversity = total - avg
    kl_form = _mean_kl_to_ensemble(members, ens)
    gap = np.abs(diversity - kl_form)
    if gap.size and gap.max() > IDENTITY_TOL:
        raise NumericalError(
            f"entropy diversity formulas disagree by {gap.max():.3e} (tol {IDENTITY_TOL:g})"
        )
    return _check_identity(DecompositionRecord("entropy", total, diversity, avg))


def brier_jensen_gap(members: Sequence[np.ndarray], labels: np.ndarray) -> DecompositionRecord:
    """Mean member Brier minus ensemble Brier, which equals variance_diversity."""
    members = _check_members(members)
    ens = form_ensemble(members)
    total = brier(ens, labels)
    avg = _member_mean(lambda p: brier(p, labels), members)
    diversity = _variance_diversity(members, ens)
    return _check_identity(DecompositionRecord("brier_gap", total, diversity, avg))


def nll_jensen_gap(members: Sequence[np.ndarray], labels: np.ndarray) -> DecompositionRecord:
    """Mean member NLL minus ensemble NLL.

    The gap equals KL(Uniform(M) || Q) where Q normalizes the member
    true-class likelihoods. The identity is exact when no likelihood hits
    the clamp floor; clamped points are skipped by the runtime check.
    """
    members = _check_members(members)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(members[0].shape[0])
    # (M, N) in column-major order, the layout a gather from an (M, N, C)
    # stack has, so the reductions over members below round the same way.
    like = np.column_stack([p[rows, labels] for p in members]).T
    like_c = np.maximum(like, NLL_EPS)

    avg = -np.log(like_c).mean(axis=0)
    ens_like = like.mean(axis=0)
    total = -np.log(np.maximum(ens_like, NLL_EPS))
    m = len(members)
    # KL(U || Q) = -ln M + ln sum_i L_i - mean_i ln L_i, over clamped likelihoods.
    diversity = -np.log(float(m)) + np.log(like_c.sum(axis=0)) - np.log(like_c).mean(axis=0)

    unclamped = (like > NLL_EPS).all(axis=0) & (ens_like > NLL_EPS)
    record = DecompositionRecord("nll_gap", total, diversity, avg)
    return _check_identity(record, mask=unclamped)

