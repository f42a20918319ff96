"""Pointwise splits of ensemble scores into member average and diversity.

Four families, each an exact algebraic identity per point:

    quadratic   U(ens)      = variance_diversity + mean_m U(f_m)
    entropy     H(ens)      = JSD                + mean_m H(f_m)
    brier_gap   mean Brier  = ensemble Brier     + variance_diversity
    nll_gap     mean NLL    = ensemble NLL       + KL(uniform || member likelihoods)

`decompose` computes all four in one walk and re-verifies every identity
at runtime, raising NumericalError when the residual exceeds 1e-10 on a
point it checks: each record's `checked` mask holds every point but, for
nll_gap, those whose likelihoods hit NLL_EPS. `conditional` takes its
(avg, diversity) sample from one family's record, so its input passes the
same checks. Members are store.StoredMembers of one (N, C) shape, read only
by store.member_blocks: `decompose` walks its row blocks, which read every
member once per block into an (M + 5, rows, C) stack. Two passes run over
the block's rows: one for the ensemble sum and the member means, one for
the spread about the ensemble mean and, from one log per entry, each
member's entropy and KL to the ensemble; nll_gap gathers the true-class
likelihoods from the stack. Every reduction is per point, so the block
size changes no bit of the result. Beyond the per-point output columns,
memory is the walk buffer of one block, which the next block's read
overwrites, whose five spare slots hold every block-sized temporary, and
an (M, rows) gather of true-class likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import IDENTITY_TOL, NLL_EPS, brier, check_labels, quad_uncertainty
from .store import StoredMember, form_ensemble, member_blocks

FAMILIES = ("quadratic", "entropy", "brier_gap", "nll_gap")
# Spare slots of a walk block that _decompose_block works in.
_WORK_SLOTS = 5


@dataclass
class DecompositionRecord:
    """Per-point decomposition: total, diversity, and member-average columns.

    For the uncertainty families (quadratic, entropy) the identity is
    total = diversity + avg_member. For the score-gap families (brier_gap,
    nll_gap) total is the ensemble score and avg_member = total + diversity.
    `checked` masks the points whose identity `decompose` checks.
    """

    family: str
    total: np.ndarray
    diversity: np.ndarray
    avg_member: np.ndarray
    checked: np.ndarray

    def residual(self) -> np.ndarray:
        if self.family in ("quadratic", "entropy"):
            return self.total - (self.diversity + self.avg_member)
        return self.avg_member - (self.total + self.diversity)

    @property
    def max_abs_residual(self) -> float:
        """Largest absolute residual over the checked points; 0.0 if none is checked."""
        res = np.abs(self.residual()[self.checked])
        return float(res.max()) if res.size else 0.0

    @property
    def unchecked_points(self) -> int:
        return self.n - int(np.count_nonzero(self.checked))

    @property
    def n(self) -> int:
        return int(self.total.shape[0])


def decompose(members: Sequence[StoredMember], labels: np.ndarray) -> dict[str, DecompositionRecord]:
    """The records of all four families, in FAMILIES order, from one blocked walk.

    Each identity is checked after the walk over its record's `checked`
    points; entropy's JSD is also checked against the mean KL to the
    ensemble. nll_gap's KL(Uniform(M) || Q), Q the normalized member
    true-class likelihoods, is exact only where no likelihood hits the clamp
    floor, so its mask leaves clamped points out.
    """
    if len(members) < 2:
        raise ValidationError("diversity needs at least two members")
    n, c = members[0].shape
    labels = check_labels(labels, n, c)
    # Each family's (total, diversity, avg_member) rows, its own array so that a
    # record kept alone keeps no other family's.
    columns = [np.empty((3, n)) for _ in FAMILIES]
    kl, unclamped = np.empty(n), np.empty(n, dtype=bool)
    for rows, stack in member_blocks(members, spare=_WORK_SLOTS):
        triples, kl[rows], unclamped[rows] = _decompose_block(stack, labels[rows])
        for column, triple in zip(columns, triples):
            column[:, rows] = triple

    # Every point is checked, but for nll_gap the unclamped ones.
    masks = [np.ones(n, dtype=bool) for _ in FAMILIES[:3]] + [unclamped]
    records = {f: DecompositionRecord(f, *column, mask) for f, column, mask in zip(FAMILIES, columns, masks)}
    for f, rec in records.items():
        if f == "entropy":
            gap = np.abs(rec.diversity - kl)
            if gap.size and gap.max() > IDENTITY_TOL:
                raise NumericalError(
                    f"entropy diversity formulas disagree by {gap.max():.3e} (tol {IDENTITY_TOL:g})"
                )
        worst = rec.max_abs_residual
        if worst > IDENTITY_TOL:
            raise NumericalError(f"{f} identity residual {worst:.3e} exceeds {IDENTITY_TOL:g}")
    return records


def _decompose_block(stack: np.ndarray, labels: np.ndarray) -> tuple:
    """(total, diversity, avg_member) of each family, in FAMILIES order, on one
    (M + 5, rows, C) block of store.member_blocks, then the mean KL to the
    ensemble and the nll_gap mask of unclamped points. The five spare slots
    are overwritten: the ensemble, its log, the spread sum and two scratch arrays."""
    m = len(stack) - _WORK_SLOTS
    held, (ens, log_ens, acc, scratch, log_p) = stack[:m], stack[m:]

    # Pass 1: ensemble sum and member score sums.
    form_ensemble(held, out=ens)
    quad_sum = brier_sum = 0
    for p in held:
        quad_sum = quad_sum + quad_uncertainty(p)
        brier_sum = brier_sum + brier(p, labels, scratch)

    # Pass 2: variance about the ensemble mean, and each member's entropy and
    # KL to it from one log per entry.
    acc.fill(0.0)
    # 0 log 0 = 0; where the mean underflowed to 0 under a subnormal p, p's KL term is p log p.
    log_ens.fill(0.0)
    np.log(ens, out=log_ens, where=ens > 0.0)
    kl = np.zeros(ens.shape[0])
    member_entropy = np.zeros(ens.shape[0])
    for p in held:
        np.subtract(p, ens, out=scratch)
        scratch *= scratch
        acc += scratch
        # 5e-324 is the least positive float64: the floor keeps every p > 0 and makes
        # 0 log 0 a zero, whose sign no row sum that holds a p > 0 can show.
        np.maximum(p, 5e-324, out=log_p)
        np.log(log_p, out=log_p)
        np.multiply(p, log_p, out=scratch)
        member_entropy -= scratch.sum(axis=1)
        log_p -= log_ens
        log_p *= p
        kl += log_p.sum(axis=1)
    acc /= m
    variance = acc.sum(axis=1)

    quadratic = quad_uncertainty(ens), variance, quad_sum / m
    np.multiply(ens, log_ens, out=scratch)
    total_h = -scratch.sum(axis=1)
    avg_h = member_entropy / m
    entropy = total_h, total_h - avg_h, avg_h
    brier_gap = brier(ens, labels, scratch), variance, brier_sum / m

    like = held[:, np.arange(len(labels)), labels]
    like_c = np.maximum(like, NLL_EPS)
    mean_log = np.log(like_c).mean(axis=0)
    ens_like = like.mean(axis=0)
    # KL(U || Q) = -ln M + ln sum_i L_i - mean_i ln L_i, over clamped likelihoods.
    nll_gap = (-np.log(np.maximum(ens_like, NLL_EPS)),
               -np.log(float(m)) + np.log(like_c.sum(axis=0)) - mean_log, -mean_log)
    # The identity is exact only where no likelihood hits the clamp floor.
    unclamped = (like > NLL_EPS).all(axis=0) & (ens_like > NLL_EPS)
    return (quadratic, entropy, brier_gap, nll_gap), kl / m, unclamped
