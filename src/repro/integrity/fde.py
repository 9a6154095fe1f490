"""Vectorized fault detection and exclusion over DLG batches.

:class:`BatchFde` is the batch counterpart of
:class:`~repro.integrity.raim.RaimMonitor`: the same residual
chi-square test and leave-one-out exclusion, restructured so a whole
padded flush — mixed satellite counts and constellation patterns — is
screened in a handful of stacked numpy operations.

Two structural facts make this cheap enough to run on every epoch of
a high-rate stream:

* **Detection is free.**  The whitened (Mahalanobis) residual norm the
  batched DLG solve already computes — ``sqrt(r^T W r)`` of its
  centered weighted least squares, equal to the eq. 4-26 GLS norm — *is*
  the RAIM test quantity: ``(norm / sigma)^2`` is chi-square with
  ``m - 4`` degrees of freedom under no fault.  The gate is one
  vectorized comparison against per-row thresholds (each row's own
  ``m``).
* **Exclusion is closed form.**  The batched solve keeps every
  satellite as its own undifferenced, diagonally weighted row
  (:class:`~repro.solvers.batch.RangeSystem`), so deleting satellite
  ``j`` is the same as giving that one row a mean-shift unknown.  No
  satellite is a base, so no candidate spans a constellation.  Every
  leave-one-out candidate is priced from the parent solve's own
  system (:func:`leave_one_out`): per-row leverages and one small
  normal-equation solve per flagged row, instead of the scalar
  monitor's m full re-solves per flagged epoch.

Candidate subsets are ranked by normalized margin ``statistic /
threshold`` with a keep-first tie-break, matching the scalar
monitor's selection exactly; the two implementations are
differentially tested for identical verdicts and excluded PRNs.

Per-epoch outcomes come back as a compact :class:`FdeRecord` (int8
status codes plus flat arrays) so the fault-free fast path stays
allocation-light; individual :class:`EpochVerdict` objects are
materialized lazily on access.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocks import EpochBlock
from repro.errors import ConfigurationError
from repro.integrity.raim import chi_square_quantile
from repro.observations import ObservationEpoch
from repro.solvers.batch import (
    BatchDLGSolver,
    BatchMultiResult,
    RangeSystem,
    as_block,
)
from repro.telemetry import get_registry

#: Compact per-epoch status codes (int8 in :class:`FdeRecord`).
STATUS_PASSED = 0
STATUS_REPAIRED = 1
STATUS_UNUSABLE = 2
STATUS_UNCHECKED = 3

#: Code -> name, indexable by the int8 status.
STATUS_NAMES: Tuple[str, ...] = ("passed", "repaired", "unusable", "unchecked")

#: Sentinel for "no satellite excluded" in :attr:`FdeRecord.excluded_prns`
#: and :attr:`FdeRecord.excluded_systems`.
NO_EXCLUSION = -1

#: A candidate whose residual-maker norm ``c^T Q c`` is below this
#: fraction of ``c^T Psi^-1 c`` (leverage 1) leaves a rank-deficient
#: subset: the satellite alone observes some direction of the fix.
_DEGENERATE_LEVERAGE = 1e-9

#: Exclusion-latency histogram bounds (seconds per flagged batch).
_EXCLUSION_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2,
)


@dataclass(frozen=True)
class FdeConfig:
    """Tuning for the batch FDE gate.

    Attributes
    ----------
    sigma_meters:
        Expected 1-sigma of the pseudorange residuals under no fault.
    p_false_alarm:
        Probability of flagging a fault-free epoch.
    exclude:
        Whether detection is followed by leave-one-out exclusion
        (``False`` gives a detect-only gate: flagged epochs go
        straight to ``unusable``).
    """

    sigma_meters: float = 3.0
    p_false_alarm: float = 1e-3
    exclude: bool = True

    def __post_init__(self) -> None:
        if self.sigma_meters <= 0:
            raise ConfigurationError("sigma_meters must be positive")
        if not 0.0 < self.p_false_alarm < 1.0:
            raise ConfigurationError("p_false_alarm must be in (0, 1)")

    def to_dict(self) -> Dict:
        return {
            "sigma_meters": self.sigma_meters,
            "p_false_alarm": self.p_false_alarm,
            "exclude": self.exclude,
        }


@dataclass(frozen=True)
class EpochVerdict:
    """Integrity outcome for one epoch, materialized from an FdeRecord.

    Attributes
    ----------
    status:
        ``"passed"`` (test satisfied), ``"repaired"`` (fault detected,
        one satellite excluded, subset passes), ``"unusable"`` (fault
        detected, no passing exclusion — position is the full-set
        solution and should not be trusted), or ``"unchecked"`` (no
        redundancy: fewer than 5 satellites, no test possible).
    test_statistic, threshold:
        The chi-square quantity and gate that produced the verdict —
        the *subset* pair for repaired epochs, the full-set pair
        otherwise, NaN when unchecked.
    excluded_prn:
        PRN removed by exclusion, or ``None``.
    """

    status: str
    test_statistic: float
    threshold: float
    excluded_prn: Optional[int] = None

    @property
    def usable(self) -> bool:
        """Whether the accompanying position should be trusted."""
        return self.status in ("passed", "repaired")

    def to_dict(self) -> Dict:
        return {
            "status": self.status,
            "test_statistic": self.test_statistic,
            "threshold": self.threshold,
            "excluded_prn": self.excluded_prn,
        }


@dataclass(frozen=True)
class FdeRecord:
    """Compact per-epoch FDE outcomes for one stream or block.

    Array-of-structs would cost a python object per epoch on the
    fault-free fast path; this struct-of-arrays form keeps the common
    case (everything ``passed``) at five numpy arrays regardless of
    stream length.

    Attributes
    ----------
    statuses:
        ``(N,)`` int8 status codes (see ``STATUS_*``).
    statistics, thresholds:
        ``(N,)`` chi-square test quantities and gates (NaN when
        unchecked).
    excluded_prns:
        ``(N,)`` int32 excluded PRNs, ``NO_EXCLUSION`` (-1) where no
        exclusion happened.
    excluded_systems:
        ``(N,)`` int8 system ids (``SYSTEM_CODES`` index) of the
        excluded satellites, ``NO_EXCLUSION`` where none: a PRN alone
        does not name a satellite once constellations mix.
    """

    statuses: np.ndarray
    statistics: np.ndarray
    thresholds: np.ndarray
    excluded_prns: np.ndarray
    excluded_systems: np.ndarray

    def __len__(self) -> int:
        return int(self.statuses.shape[0])

    # ------------------------------------------------------------------
    def verdict(self, index: int) -> EpochVerdict:
        """Materialize the verdict for one epoch."""
        code = int(self.statuses[index])
        prn = int(self.excluded_prns[index])
        return EpochVerdict(
            status=STATUS_NAMES[code],
            test_statistic=float(self.statistics[index]),
            threshold=float(self.thresholds[index]),
            excluded_prn=None if prn == NO_EXCLUSION else prn,
        )

    def verdicts(self) -> Tuple[EpochVerdict, ...]:
        """All verdicts, materialized (prefer :meth:`verdict` on hot paths)."""
        return tuple(self.verdict(i) for i in range(len(self)))

    def counts(self) -> Dict[str, int]:
        """``{status_name: epochs}`` over the record."""
        tallies = np.bincount(self.statuses, minlength=len(STATUS_NAMES))
        return {name: int(tallies[code]) for code, name in enumerate(STATUS_NAMES)}

    @property
    def usable(self) -> np.ndarray:
        """``(N,)`` boolean mask of trustworthy rows."""
        return (self.statuses == STATUS_PASSED) | (self.statuses == STATUS_REPAIRED)

    def to_dict(self) -> Dict:
        """JSON-ready summary (counts plus an excluded-PRN tally)."""
        excluded = self.excluded_prns[self.excluded_prns != NO_EXCLUSION]
        prns, tallies = np.unique(excluded, return_counts=True)
        return {
            "counts": self.counts(),
            "excluded_prn_counts": {
                str(int(prn)): int(count) for prn, count in zip(prns, tallies)
            },
        }

    # ------------------------------------------------------------------
    @classmethod
    def unchecked(cls, count: int) -> "FdeRecord":
        """An all-``unchecked`` record (no redundancy anywhere)."""
        return cls(
            statuses=np.full(count, STATUS_UNCHECKED, dtype=np.int8),
            statistics=np.full(count, np.nan),
            thresholds=np.full(count, np.nan),
            excluded_prns=np.full(count, NO_EXCLUSION, dtype=np.int32),
            excluded_systems=np.full(count, NO_EXCLUSION, dtype=np.int8),
        )

    @classmethod
    def scatter(
        cls,
        pieces: Sequence["tuple[Sequence[int], FdeRecord]"],
        total: int,
    ) -> "FdeRecord":
        """Assemble per-block records back into stream order.

        ``pieces`` pairs each block's stream indices with its record;
        rows no piece claims (dropped/invalid epochs) stay
        ``unchecked`` with NaN statistics.
        """
        merged = cls.unchecked(total)
        for indices, record in pieces:
            idx = np.asarray(indices, dtype=int)
            merged.statuses[idx] = record.statuses
            merged.statistics[idx] = record.statistics
            merged.thresholds[idx] = record.thresholds
            merged.excluded_prns[idx] = record.excluded_prns
            merged.excluded_systems[idx] = record.excluded_systems
        return merged


def leave_one_out(
    system: RangeSystem, solution: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every leave-one-out candidate of N solved rows, in closed form.

    ``system`` holds the rows' centered range equations (one row per
    satellite slot, padded slots of zero weight), the stack their solve
    read, and ``solution`` their ``(N, p)`` weighted least-squares
    solution, NaN on unknowns a row does not observe.

    Deleting satellite ``j`` is the parent model plus one mean-shift
    column.  After the segment centering that removes each
    constellation's nuisance constant, that column is
    ``c_j = e_j - (w_j / W_c) 1_c`` (``W_c`` the weight sum of ``j``'s
    constellation ``c``), and because the centered design ``A`` and
    residual ``r`` have zero weighted sum inside every segment,

        c^T W c = w_j - w_j^2 / W_c,  A^T W c = w_j A_j,  c^T W r = w_j r_j.

    With ``G = A^T W A`` and the leverage ``h_j = A_j G^-1 A_j^T``:

        c^T Q c = c^T W c - w_j^2 h_j,
        delta_j = w_j r_j / c^T Q c,
        x_(j)   = x - delta_j w_j G^-1 A_j^T,
        r'_j    = r + delta_j (w_j A G^-1 A_j^T - c_j).

    The statistic is the candidate's own ``r'^T W r'``, not the
    downdate ``r^T W r - delta^2 c^T Q c``, which loses the relative
    precision a re-solve keeps.

    Returns ``(statistics (N, m), solutions (N, m, p))``: slot ``j``'s
    subset quantities.  A slot is no candidate (statistic ``+inf``)
    when it is padding, when its constellation has only two
    satellites (the survivor's bias would be unobservable), or when
    its subset is degenerate (``c^T Q c`` vanishes).  A constellation
    a row does not observe keeps a unit Gram diagonal and NaN
    solutions.
    """
    weights, columns = system.weights, system.columns
    centered, totals = system.centered, system.totals
    p = centered.shape[2] - 1
    decoupled = system.decoupled
    if decoupled is not None:
        solution = np.where(decoupled, 0.0, solution)
    design = centered[..., :p]
    residuals = centered[..., p] - np.einsum("nki,ni->nk", design, solution)
    design_t = design.transpose(0, 2, 1)
    gram = np.matmul(design_t, design * weights[..., None])  # (N, p, p)
    if decoupled is not None:
        rows, unknowns = np.nonzero(decoupled)
        gram[rows, unknowns, unknowns] = 1.0
    gain = np.linalg.solve(gram, design_t)  # G^-1 A_j^T, (N, p, m)
    hat = np.matmul(design, gain)  # A G^-1 A^T, (N, m, m)
    leverage = np.diagonal(hat, axis1=1, axis2=2)
    share = weights / np.where(totals > 0, totals, 1.0)  # w_j / W_c
    c_w_c = weights * (1.0 - share)
    c_q_c = c_w_c - weights**2 * leverage
    same = columns[:, :, None] == columns[:, None, :]  # (N, m rows, m candidates)
    priced = (columns >= 0) & (same.sum(axis=2) > 2)  # symmetric: row sums
    priced &= c_q_c > _DEGENERATE_LEVERAGE * c_w_c
    shift = weights * residuals / np.where(priced, c_q_c, 1.0)  # delta_j
    pull = shift * weights  # delta_j w_j
    solutions = solution[:, None, :] - (gain * pull[:, None, :]).transpose(0, 2, 1)
    # r'_(i, j) = r_i + delta_j (w_j hat_ij - [i == j] + share_j [i in c_j])
    moved = hat * pull[:, None, :] + same * (share * shift)[:, None, :]
    m = moved.shape[1]
    moved.reshape(-1, m * m)[:, :: m + 1] -= shift  # the diagonal, as a view
    subset = residuals[:, :, None] + moved
    statistics = np.einsum("nk,nkj->nj", weights, subset * subset)
    statistics[~priced] = np.inf
    if decoupled is not None:
        solutions[np.broadcast_to(decoupled[:, None, :], solutions.shape)] = np.nan
    return statistics, solutions


class BatchFde:
    """Chi-square detection + closed-form leave-one-out exclusion for DLG.

    The gate is DLG-specific by design: only the GLS whitened residual
    norm is chi-square scaled (OLS residuals from DLO are not
    normalized by the measurement covariance, and batched NR solves its
    own bias so its redundancy bookkeeping differs).  The engine
    enforces this at configuration time.

    Parameters
    ----------
    config:
        :class:`FdeConfig`; defaults match
        :class:`~repro.integrity.raim.RaimMonitor`.
    """

    name = "BatchFDE"

    def __init__(
        self,
        config: Optional[FdeConfig] = None,
        solver: Optional[BatchDLGSolver] = None,
    ) -> None:
        self._config = config if config is not None else FdeConfig()
        # Base solver for the standalone solve_batch/solve_block entry
        # points; the engine bypasses it and calls screen() with the
        # solve it already ran.
        self._solver = solver if solver is not None else BatchDLGSolver()
        # chi2(1 - p_fa, dof) by dof, NaN at dof 0; grown on demand.
        self._threshold_table = np.array([np.nan])

    @property
    def config(self) -> FdeConfig:
        return self._config

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        epochs: "Union[Sequence[ObservationEpoch], EpochBlock]",
        biases: Sequence[float],
    ) -> "tuple[np.ndarray, FdeRecord]":
        """Solve N epochs with FDE; ``((N, 3), FdeRecord)``.

        The fault-free path costs one stacked DLG solve (the whitened
        norms it produces are the test statistics) plus one vectorized
        comparison; only flagged epochs pay for exclusion, priced in
        closed form from the same solve.  ``repaired`` rows hold the
        post-exclusion position; ``unusable`` rows keep the full-set
        solution so callers can apply their own trust policy.  Accepts
        an :class:`~repro.blocks.EpochBlock` directly.
        """
        block = as_block(epochs, "direct linearization")
        return self.solve_block(block, np.asarray(biases, dtype=float))

    def solve_block(
        self, block: EpochBlock, biases: np.ndarray
    ) -> "tuple[np.ndarray, FdeRecord]":
        """Base DLG solve plus :meth:`screen` for a columnar block."""
        solutions, norms, system = self._solver.solve_block_full(block, biases)
        record = self.screen(block, system, solutions, norms)
        return solutions, record

    def screen(
        self,
        block: EpochBlock,
        system: RangeSystem,
        solutions: np.ndarray,
        norms: np.ndarray,
    ) -> FdeRecord:
        """Chi-square detection + exclusion over an already-solved block.

        This is the zero-copy entry point: the engine has already run
        the base DLG solve whose whitened ``norms`` double as the test
        statistics, so detection is one vectorized comparison against
        per-row thresholds (each row's dof is its own ``count - 4``).
        Only flagged rows with ``count >= 6`` pay for exclusion: every
        candidate is priced by :func:`leave_one_out` from their rows of
        the solve's own centered ``system`` against the parent
        ``solutions``, which are updated **in place** for the rows the
        exclusion repairs.
        """
        counts = block.counts
        record = self._detect(norms, counts - 4)
        flagged = record.statuses == STATUS_UNUSABLE
        if self._config.exclude:
            flagged &= counts >= 6
            if flagged.any():
                rows = np.flatnonzero(flagged)
                repaired, fixes = self._exclude(
                    system.take(rows),
                    solutions[rows],
                    rows,
                    counts[rows] - 5,
                    block,
                    record,
                )
                solutions[repaired] = fixes
        self._count(record)
        return record

    def _detect(self, norms: np.ndarray, dof: np.ndarray) -> FdeRecord:
        """Per-row chi-square gate; rows with ``dof < 1`` are unchecked."""
        checked = dof >= 1
        statistics = (norms / self._config.sigma_meters) ** 2
        thresholds = self._thresholds(dof)
        flagged = checked & (statistics > thresholds)
        statuses = np.where(flagged, STATUS_UNUSABLE, STATUS_PASSED).astype(np.int8)
        statuses[~checked] = STATUS_UNCHECKED
        statistics = np.where(checked, statistics, np.nan)
        return FdeRecord(
            statuses=statuses,
            statistics=statistics,
            thresholds=thresholds,
            excluded_prns=np.full(dof.shape, NO_EXCLUSION, dtype=np.int32),
            excluded_systems=np.full(dof.shape, NO_EXCLUSION, dtype=np.int8),
        )

    def _thresholds(self, dof: np.ndarray) -> np.ndarray:
        """``chi2(1 - p_fa, dof)`` per row, NaN where ``dof < 1``.

        Each dof's quantile is computed once per gate and then looked
        up.
        """
        table = self._threshold_table
        top = int(dof.max()) if dof.size else 0
        if top >= table.shape[0]:
            probability = 1.0 - self._config.p_false_alarm
            grown = np.arange(table.shape[0], max(top + 1, 2 * table.shape[0]))
            table = self._threshold_table = np.concatenate(
                [table, [chi_square_quantile(probability, int(d)) for d in grown]]
            )
        return table[np.maximum(dof, 0)]

    def _exclude(
        self,
        system: RangeSystem,
        solution: np.ndarray,
        rows: np.ndarray,
        sub_dof: np.ndarray,
        block: EpochBlock,
        record: FdeRecord,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Price and pick the exclusion of the flagged ``rows`` (whose
        systems and solutions are given); returns the repaired stream
        rows and their subset solutions."""
        registry = get_registry()
        started = time.perf_counter() if registry.enabled else 0.0
        statistics, solutions = leave_one_out(system, solution)
        repaired, chosen = self._pick(rows, statistics, sub_dof, block, record)
        if registry.enabled:
            registry.histogram(
                "repro_integrity_exclusion_seconds",
                "Leave-one-out exclusion latency per flagged batch.",
                buckets=_EXCLUSION_LATENCY_BUCKETS,
            ).observe(time.perf_counter() - started)
        return rows[repaired], solutions[repaired, chosen]

    # ------------------------------------------------------------------
    def solve_block_multi(
        self, block: EpochBlock
    ) -> "tuple[BatchMultiResult, FdeRecord]":
        """Per-constellation DLG solve plus :meth:`screen_multi`.

        The solver must be configured with
        ``constellations="per_constellation"``; repaired rows have
        their positions and biases updated in place in the returned
        :class:`~repro.solvers.batch.BatchMultiResult`.
        """
        result = self._solver.solve_block_multi(block)
        record = self.screen_multi(block, result)
        return result, record

    def screen_multi(
        self, block: EpochBlock, result: BatchMultiResult
    ) -> FdeRecord:
        """Chi-square detection + exclusion for a per-constellation solve.

        The multi-constellation counterpart of :meth:`screen`: the
        whitened norms of the per-constellation solve are chi-square
        with ``m - 3 - 2K`` degrees of freedom (each constellation's
        nuisance constant and clock are two extra unknowns), so the
        detection floor rises from 5 satellites to ``4 + 2K`` — per
        row, with that row's own ``m`` and ``K``.  Exclusion prices its
        candidates from the range system the solve already built
        (``result.system``): no second system, no kernel call.  A satellite whose constellation has only two
        satellites is no candidate — its survivor's bias would be
        unobservable — and a row's exclusion pass needs
        ``m >= 5 + 2K``.  The result's ``positions`` and
        ``constellation_biases`` are updated in place for repaired
        rows.
        """
        system = result.system
        dof = block.counts - 3 - 2 * system.present.sum(axis=1)
        record = self._detect(result.norms, dof)
        flagged = record.statuses == STATUS_UNUSABLE
        if self._config.exclude:
            flagged &= dof >= 2
            if flagged.any():
                rows = np.flatnonzero(flagged)
                repaired, fixes = self._exclude(
                    system.take(rows),
                    np.concatenate(
                        [result.positions[rows], result.constellation_biases[rows]],
                        axis=1,
                    ),
                    rows,
                    dof[rows] - 1,
                    block,
                    record,
                )
                result.positions[repaired] = fixes[:, :3]
                result.constellation_biases[repaired] = fixes[:, 3:]
        self._count(record)
        return record

    def _pick(
        self,
        rows: np.ndarray,
        statistics: np.ndarray,
        sub_dof: np.ndarray,
        block: EpochBlock,
        record: FdeRecord,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best passing candidate per flagged row; records the repairs.

        ``statistics`` holds each flagged row's ``(F, m)`` whitened
        subset residuals (``+inf`` where a slot is no candidate).
        Candidates are ranked by normalized margin ``statistic /
        threshold`` with a keep-first tie-break (argmin's first
        minimum), matching the scalar monitor's selection exactly.
        Returns the indices (into ``rows``) of the repaired rows and,
        for each, the slot of its chosen candidate.
        """
        statistics = statistics / self._config.sigma_meters**2
        thresholds = self._thresholds(sub_dof)
        margins = statistics / thresholds[:, None]
        margins = np.where(margins <= 1.0, margins, np.inf)
        best = np.argmin(margins, axis=1)
        repaired = np.flatnonzero(np.isfinite(margins.min(axis=1)))
        chosen = best[repaired]
        stream_rows = rows[repaired]
        record.statuses[stream_rows] = STATUS_REPAIRED
        record.statistics[stream_rows] = statistics[repaired, chosen]
        record.thresholds[stream_rows] = thresholds[repaired]
        record.excluded_prns[stream_rows] = block.prns[stream_rows, chosen]
        record.excluded_systems[stream_rows] = block.systems[stream_rows, chosen]
        return repaired, chosen

    # ------------------------------------------------------------------
    def _count(self, record: FdeRecord) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        counter = registry.counter(
            "repro_integrity_fde_epochs_total",
            "Epochs screened by batch FDE, by verdict.",
            labels=("status",),
        )
        for name, count in record.counts().items():
            if count:
                counter.labels(status=name).inc(count)

