"""Vectorized fault detection and exclusion over DLG batches.

:class:`BatchFde` is the batch counterpart of
:class:`~repro.integrity.raim.RaimMonitor`: the same residual
chi-square test and leave-one-out exclusion, restructured so a whole
padded flush — mixed satellite counts and constellation patterns — is
screened in a handful of stacked numpy operations.

Two structural facts make this cheap enough to run on every epoch of
a high-rate stream:

* **Detection is free.**  The whitened (Mahalanobis) residual norm the
  Sherman-Morrison GLS path already computes — and
  :class:`~repro.solvers.batch.BatchDLGSolver` discards — *is* the
  RAIM test quantity: ``(norm / sigma)^2`` is chi-square with ``m - 4``
  degrees of freedom under no fault.  The gate is one vectorized
  comparison against per-row thresholds (each row's own ``m``).
* **Exclusion stays structured.**  Deleting one satellite from the
  eq. 4-26 difference system preserves the diagonal-plus-rank-one
  covariance shape (drop one diagonal entry for a non-base satellite;
  promote satellite 1 to base when the base itself is dropped), so
  every leave-one-out candidate solves through the same O(m)
  Sherman-Morrison whitening — the candidates of all flagged epochs
  (never their padded slots) stack into *one* padded
  :func:`~repro.estimation.batched_gls_solve_diag_rank1` call instead
  of the scalar monitor's m full re-solves per flagged epoch.

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
from repro.constellation.systems import SYSTEM_CODES
from repro.errors import ConfigurationError, EstimationError, GeometryError
from repro.estimation import batched_gls_solve_grouped_rank1
from repro.integrity.raim import chi_square_quantile
from repro.observations import ObservationEpoch
from repro.solvers.batch import (
    BatchDLGSolver,
    BatchMultiResult,
    as_block,
    build_multi_difference_systems,
    solve_dlg_stack,
    system_columns,
)
from repro.telemetry import get_registry

#: Compact per-epoch status codes (int8 in :class:`FdeRecord`).
STATUS_PASSED = 0
STATUS_REPAIRED = 1
STATUS_UNUSABLE = 2
STATUS_UNCHECKED = 3

#: Code -> name, indexable by the int8 status.
STATUS_NAMES: Tuple[str, ...] = ("passed", "repaired", "unusable", "unchecked")

#: Sentinel for "no satellite excluded" in :attr:`FdeRecord.excluded_prns`.
NO_EXCLUSION = -1

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
    case (everything ``passed``) at four numpy arrays regardless of
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
    """

    statuses: np.ndarray
    statistics: np.ndarray
    thresholds: np.ndarray
    excluded_prns: np.ndarray

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
        return merged


class BatchFde:
    """Chi-square detection + stacked leave-one-out exclusion for DLG.

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
        comparison; only flagged epochs pay for exclusion, and all
        their candidates solve in one additional stacked GLS call.
        ``repaired`` rows hold the post-exclusion position;
        ``unusable`` rows keep the full-set solution so callers can
        apply their own trust policy.  Accepts an
        :class:`~repro.blocks.EpochBlock` directly.
        """
        block = as_block(epochs, "direct linearization")
        return self.solve_block(block, np.asarray(biases, dtype=float))

    def solve_block(
        self, block: EpochBlock, biases: np.ndarray
    ) -> "tuple[np.ndarray, FdeRecord]":
        """Base DLG solve plus :meth:`screen` for a columnar block."""
        solutions, norms, corrected = self._solver.solve_block_full(
            block, biases
        )
        record = self.screen(block, corrected, solutions, norms)
        return solutions, record

    def screen(
        self,
        block: EpochBlock,
        corrected: np.ndarray,
        solutions: np.ndarray,
        norms: np.ndarray,
    ) -> FdeRecord:
        """Chi-square detection + exclusion over an already-solved block.

        This is the zero-copy entry point: the engine has already built
        the clock-corrected pseudoranges and run the base DLG solve
        whose whitened ``norms`` double as the test statistics, so the
        gate re-derives *nothing* — detection is one vectorized
        comparison against per-row thresholds (each row's dof is its
        own ``count - 4``), and only flagged epochs pay for the stacked
        leave-one-out exclusion.  ``solutions`` is updated **in place**
        for rows the exclusion repairs.
        """
        counts = block.counts
        record = self._detect(norms, counts - 4)
        flagged = record.statuses == STATUS_UNUSABLE
        if self._config.exclude:
            flagged &= counts >= 6
            if flagged.any():
                self._timed_exclusion(
                    self._exclude_flagged,
                    np.flatnonzero(flagged),
                    block,
                    corrected,
                    solutions,
                    record,
                )
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
        )

    def _thresholds(self, dof: np.ndarray) -> np.ndarray:
        """``chi2(1 - p_fa, dof)`` per row, NaN where ``dof < 1``."""
        thresholds = np.full(dof.shape, np.nan)
        probability = 1.0 - self._config.p_false_alarm
        for value in np.unique(dof[dof >= 1]):
            thresholds[dof == value] = chi_square_quantile(probability, int(value))
        return thresholds

    def _timed_exclusion(self, exclude, *args) -> None:
        registry = get_registry()
        started = time.perf_counter() if registry.enabled else 0.0
        exclude(*args)
        if registry.enabled:
            registry.histogram(
                "repro_integrity_exclusion_seconds",
                "Leave-one-out exclusion latency per flagged batch.",
                buckets=_EXCLUSION_LATENCY_BUCKETS,
            ).observe(time.perf_counter() - started)

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
        whitened norms of the grouped GLS solve are chi-square with
        ``m - 3 - 2K`` degrees of freedom (differencing consumes one
        equation per constellation and each constellation clock is an
        extra unknown), so the detection floor rises from 5 satellites
        to ``4 + 2K`` — per row, with that row's own ``m`` and ``K``.
        Exclusion candidates that would leave a constellation with a
        single satellite are skipped — their bias would be unobservable
        — and a row's exclusion pass needs ``m >= 5 + 2K``.  The
        result's ``positions`` and ``constellation_biases`` are updated
        in place for repaired rows.
        """
        codes = np.array(
            [SYSTEM_CODES.index(code) for code in result.systems], dtype=np.int64
        )
        columns, _codes = system_columns(block.systems, block.occupied, codes)
        onehot = columns[:, :, None] == np.arange(codes.shape[0])
        row_groups = onehot.any(axis=1).sum(axis=1)
        dof = block.counts - 3 - 2 * row_groups
        record = self._detect(result.norms, dof)
        flagged = record.statuses == STATUS_UNUSABLE
        if self._config.exclude:
            flagged &= dof >= 2
            if flagged.any():
                self._timed_exclusion(
                    self._exclude_flagged_multi,
                    np.flatnonzero(flagged),
                    block,
                    codes,
                    onehot.sum(axis=1),
                    columns,
                    dof,
                    result,
                    record,
                )
        self._count(record)
        return record

    @staticmethod
    def _candidates(block: EpochBlock, flagged_idx: np.ndarray):
        """Leave-one-out subsets of the flagged rows.

        ``keep[k]`` lists every slot but ``k``, so dropping a row's
        slot shifts its remaining satellites (and padding) left by one:
        the subsets are again rows of a padded block, one satellite
        narrower.  Rebuilding each subset's difference system from its
        surviving satellites handles both drop cases uniformly:
        dropping a non-base satellite deletes one row (base
        unchanged), dropping the base promotes the next satellite —
        exactly the subsets the scalar monitor's first-satellite base
        selection produces.  Padded slots are never candidates.
        """
        m = block.width
        keep = np.array(
            [[j for j in range(m) if j != k] for k in range(m)], dtype=int
        )  # (m, m-1)
        valid = np.arange(m) < block.counts[flagged_idx, None]  # (F, m)
        rows, drops = np.nonzero(valid)
        parents = flagged_idx[rows]
        slots = keep[drops]  # (C, m-1)
        return valid, parents, slots

    def _pick(
        self,
        flagged_idx: np.ndarray,
        valid: np.ndarray,
        candidate_stats: np.ndarray,
        sub_thresholds: np.ndarray,
        block: EpochBlock,
        record: FdeRecord,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best passing candidate per flagged row; records the repairs.

        Candidates are ranked by normalized margin ``statistic /
        threshold`` with a keep-first tie-break (argmin's first
        minimum), matching the scalar monitor's selection exactly.
        Returns the repaired stream rows and, for each, the index of
        its chosen candidate (``candidate_stats`` order).
        """
        f, m = valid.shape
        sub_stats = np.full((f, m), np.inf)
        sub_stats[valid] = candidate_stats
        margins = sub_stats / sub_thresholds[:, None]
        margins = np.where(margins <= 1.0, margins, np.inf)
        best_k = np.argmin(margins, axis=1)
        rows = np.arange(f)
        repaired_rows = rows[np.isfinite(margins[rows, best_k])]
        stream_rows = flagged_idx[repaired_rows]
        chosen = best_k[repaired_rows]
        record.statuses[stream_rows] = STATUS_REPAIRED
        record.statistics[stream_rows] = sub_stats[repaired_rows, chosen]
        record.thresholds[stream_rows] = sub_thresholds[repaired_rows]
        record.excluded_prns[stream_rows] = block.prns[stream_rows, chosen]
        candidate_index = np.cumsum(valid.ravel()).reshape(valid.shape) - 1
        return stream_rows, candidate_index[repaired_rows, chosen]

    def _exclude_flagged_multi(
        self,
        flagged_idx: np.ndarray,
        block: EpochBlock,
        codes: np.ndarray,
        group_counts: np.ndarray,
        columns: np.ndarray,
        dof: np.ndarray,
        result: BatchMultiResult,
        record: FdeRecord,
    ) -> None:
        """Leave-one-out exclusion under the grouped covariance.

        Every candidate subset of every flagged row stacks into *one*
        grouped solve: each candidate row carries its own group layout
        (re-derived from its surviving slots, so a dropped base is
        promoted automatically), with the parent batch's bias columns.
        Dropping a slot whose constellation has only two satellites is
        not a candidate at all: the survivor would be a singleton with
        an unobservable bias.
        """
        valid, parents, slots = self._candidates(block, flagged_idx)
        dropped = valid.nonzero()[1]
        drop_groups = columns[parents, dropped]
        keep_candidate = group_counts[parents, drop_groups] > 2
        valid[valid] = keep_candidate
        parents, slots = parents[keep_candidate], slots[keep_candidate]
        if not parents.size:
            return  # every drop would leave a singleton constellation
        rows = parents[:, None]
        occupied = np.arange(slots.shape[1]) < (block.counts[parents] - 1)[:, None]
        positions = block.positions[rows, slots]
        pseudoranges = block.pseudoranges[rows, slots]
        systems = block.systems[rows, slots]

        def solve(pick):
            system = build_multi_difference_systems(
                positions[pick], pseudoranges[pick], systems[pick], occupied[pick], codes
            )
            solutions, norms = batched_gls_solve_grouped_rank1(
                system.design,
                system.rhs,
                system.diag,
                system.scales,
                system.groups,
                decoupled=system.decoupled,
            )
            return norms, solutions

        norms, solutions = self._solve_candidates(solve, parents.size)
        stream_rows, picked = self._pick(
            flagged_idx,
            valid,
            (norms / self._config.sigma_meters) ** 2,
            self._thresholds(dof[flagged_idx] - 1),
            block,
            record,
        )
        result.positions[stream_rows] = solutions[picked, :3]
        result.constellation_biases[stream_rows] = solutions[picked, 3:]

    @staticmethod
    def _solve_candidates(solve, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``solve`` over all candidates at once, or one at a time.

        One degenerate candidate poisons the stacked solve; the
        fallback re-solves per candidate, pricing degenerate subsets
        out of the selection (infinite statistic), which mirrors the
        scalar monitor skipping subsets its solver rejects.
        """
        try:
            return solve(np.arange(count))
        except (EstimationError, GeometryError):
            pass
        norms = np.full(count, np.inf)
        solutions = None
        for i in range(count):
            try:
                norm, solution = solve(np.array([i]))
            except (EstimationError, GeometryError):
                continue
            if solutions is None:
                solutions = np.full((count, solution.shape[1]), np.nan)
            norms[i], solutions[i] = norm[0], solution[0]
        if solutions is None:
            solutions = np.full((count, 3), np.nan)
        return norms, solutions

    # ------------------------------------------------------------------
    def _exclude_flagged(
        self,
        flagged_idx: np.ndarray,
        block: EpochBlock,
        corrected: np.ndarray,
        solutions: np.ndarray,
        record: FdeRecord,
    ) -> None:
        """Stacked leave-one-out exclusion; mutates ``solutions`` and
        ``record``.

        All candidate subsets of all F flagged epochs become one
        padded stack of one-satellite-narrower rows, solved in a
        single DLG kernel call.
        """
        valid, parents, slots = self._candidates(block, flagged_idx)
        rows = parents[:, None]
        occupied = np.arange(slots.shape[1]) < (block.counts[parents] - 1)[:, None]
        cand_positions = block.positions[rows, slots]
        cand_corrected = corrected[rows, slots]

        def solve(pick):
            cand_solutions, cand_norms = solve_dlg_stack(
                cand_positions[pick],
                cand_corrected[pick],
                None if occupied[pick].all() else occupied[pick],
            )
            return cand_norms, cand_solutions

        norms, cand_solutions = self._solve_candidates(solve, parents.size)
        stream_rows, picked = self._pick(
            flagged_idx,
            valid,
            (norms / self._config.sigma_meters) ** 2,
            self._thresholds(block.counts[flagged_idx] - 5),
            block,
            record,
        )
        solutions[stream_rows] = cand_solutions[picked]

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
