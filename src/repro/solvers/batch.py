"""Batched direct-linearization solvers (paper Section 6, extension 3).

The paper's third future-work item: "optimize the matrix operations in
the context of our problem so the computation time may be further
reduced".  The closed-form structure of DLO/DLG makes them unusually
batchable: N epochs can be built and solved as one stacked tensor
operation, amortizing the per-call dispatch overhead that dominates
small solves.  DLO stacks the paper's differenced ``(N, m-1, 3)``
systems; DLG, whose GLS fix does not depend on the base, stacks the
undifferenced range equations of :class:`RangeSystem` and solves them
as one centered weighted least squares.

Epochs need not share a satellite count.  A padded
:class:`~repro.blocks.EpochBlock` keeps row ``i``'s satellites in
slots ``[0, counts[i])``, and every solver gives the padded slots zero
weight: DLG a zero weight with zero design and right-hand-side rows,
DLO and NR zero rows in their normal equations.  A row then solves
exactly like its own narrower system, up to float reassociation, so
one kernel call answers a whole mixed flush.

This is exactly the optimization a high-rate tracking server (the
paper's motivating "object moving at high speed" positioned many times
per second, or a post-processing service replaying a day of data)
would deploy.  Iterative NR converges along a per-epoch trajectory, so
it batches differently: :class:`BatchNewtonRaphsonSolver` stacks the
per-iteration linear algebra and masks converged epochs out of the
active set, so the baseline can be timed at scale too.

Usage::

    solver = BatchDLGSolver()
    positions = solver.solve_batch(epochs, predicted_biases)  # (N, 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocks import EpochBlock
from repro.constellation.systems import SYSTEM_CODES, system_code
from repro.errors import ConfigurationError, ConvergenceError, EstimationError, GeometryError
from repro.estimation import center_segments
from repro.estimation.structured import solve_centered_wls, solve_normal_equations
from repro.observations import ObservationEpoch
from repro.solvers.direct_linear import CONSTELLATION_MODES, check_multi_admissibility

#: What the batch solvers accept: the epoch-object form or the
#: already-columnar block the engine's zero-copy path hands over.
Batchable = Union[Sequence[ObservationEpoch], EpochBlock]

_DEGENERATE = (
    "a batch epoch has degenerate geometry; solve epochs individually "
    "to identify it"
)


def as_block(epochs: Batchable, kind: str) -> EpochBlock:
    """Coerce solver input to an :class:`EpochBlock`, validating size.

    ``kind`` names the algorithm family for the under-4-satellites
    message ("direct linearization" / "Newton-Raphson").
    """
    if isinstance(epochs, EpochBlock):
        block = epochs
    else:
        if not epochs:
            raise GeometryError("solve_batch needs at least one epoch")
        block = EpochBlock.from_epochs(epochs)
    if len(block) == 0:
        raise GeometryError("solve_batch needs at least one epoch")
    small = block.counts < 4
    if small.any():
        raise GeometryError(
            f"batched {kind} needs at least 4 satellites, "
            f"got {int(block.counts[small][0])}"
        )
    return block


def _corrected_pseudoranges(block: EpochBlock, biases: np.ndarray) -> np.ndarray:
    """Clock-corrected ``(N, m)`` pseudoranges, with bias validation."""
    biases = np.asarray(biases, dtype=float)
    if biases.shape != (len(block),):
        raise GeometryError(
            f"biases must be one per epoch: expected shape ({len(block)},), "
            f"got {biases.shape}"
        )
    corrected = block.pseudoranges - biases[:, None]
    non_positive = corrected <= 0
    if block.padded:
        non_positive &= block.occupied
    if non_positive.any():
        raise GeometryError(
            "clock-corrected pseudoranges are non-positive for some epoch; "
            "check the bias predictions"
        )
    return corrected


def build_difference_systems(
    positions: np.ndarray,
    corrected: np.ndarray,
    occupied: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized eq. 4-8 construction for a whole batch.

    Parameters are the stacked ``(N, m, 3)`` satellite positions and
    ``(N, m)`` clock-corrected pseudoranges; the base satellite is
    slot 0 of each epoch.  ``occupied`` (the block's slot mask) zeroes
    the rows of padded slots.  Returns ``(N, m-1, 3)`` designs and
    ``(N, m-1)`` right-hand sides.
    """
    design = positions[:, 1:, :] - positions[:, :1, :]
    squared_norms = np.einsum("nmi,nmi->nm", positions, positions)
    rhs = 0.5 * (
        (squared_norms[:, 1:] - squared_norms[:, :1])
        - (corrected[:, 1:] ** 2 - corrected[:, :1] ** 2)
    )
    if occupied is not None:
        live = occupied[:, 1:]
        design = np.where(live[:, :, None], design, 0.0)
        rhs = np.where(live, rhs, 0.0)
    return design, rhs


def _occupancy(block: EpochBlock) -> Optional[np.ndarray]:
    """The slot mask when the block has padding, else ``None``."""
    return block.occupied if block.padded else None


def system_columns(
    systems: np.ndarray, occupied: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bias column of every slot, and the system ids the columns hold.

    Columns follow the first appearance of each system in the batch
    (rows in order, slots in order), so relabeling the systems never
    changes the arithmetic.  Padded slots get column ``-1``.
    """
    tags = systems[occupied]
    present = np.flatnonzero(np.bincount(tags, minlength=len(SYSTEM_CODES)))
    first = (tags == present[:, None]).argmax(axis=1)  # each code's first slot
    codes = present[np.argsort(first)]
    lookup = np.full(len(SYSTEM_CODES), -1, dtype=np.int64)
    lookup[codes] = np.arange(codes.shape[0])
    columns = np.where(occupied, lookup.take(systems, mode="clip"), -1)
    return columns, codes


def _decoupled(present: np.ndarray) -> Optional[np.ndarray]:
    """``(N, 3+K)`` unknowns a row does not observe, or ``None``."""
    absent = ~present
    if not absent.any():
        return None
    return np.concatenate(
        [np.zeros((absent.shape[0], 3), dtype=bool), absent], axis=1
    )


def _constellation_layout(
    systems: np.ndarray, occupied: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, codes, present)`` of a batch solved per constellation.

    ``columns`` and ``codes`` are :func:`system_columns`' and
    ``present`` ``(N, K)`` marks the constellations each row observes.
    Raises :class:`~repro.errors.GeometryError` for the first row the
    per-constellation system cannot solve: every constellation needs
    two satellites and a row ``3 + 2K`` in all.
    """
    columns, codes = system_columns(systems, occupied)
    # (N, K) satellites of each constellation per row (padding is -1)
    in_group = columns[:, None, :] == np.arange(codes.shape[0])[:, None]
    group_counts = in_group.sum(axis=2)
    present = group_counts > 0
    row_groups = present.sum(axis=1)
    bad = (present & (group_counts < 2)).any(axis=1) | (
        occupied.sum(axis=1) - row_groups < 3 + row_groups
    )
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        live = columns[row][occupied[row]]
        layout = np.unique(live, return_inverse=True)
        check_multi_admissibility(layout[1], codes[layout[0]])
    return columns, codes, present


@dataclass(frozen=True)
class MultiDifferenceSystem:
    """Per-constellation difference systems of a padded batch (DLO).

    One equation row per slot: each constellation is differenced
    against its own base (its first slot in that row); base and padded
    slots keep zero rows.

    Attributes
    ----------
    design, rhs:
        ``(N, m, 3+K)`` designs and ``(N, m)`` right-hand sides.
    codes:
        ``(K,)`` system ids of the bias columns.
    present:
        ``(N, K)`` which constellations each row observes.
    columns:
        ``(N, m)`` bias column of every slot, base slots included;
        ``-1`` on padded slots.
    """

    design: np.ndarray
    rhs: np.ndarray
    codes: np.ndarray
    present: np.ndarray
    columns: np.ndarray

    @property
    def decoupled(self) -> Optional[np.ndarray]:
        """``(N, 3+K)`` unknowns a row does not observe, or ``None``."""
        return _decoupled(self.present)


def build_multi_difference_systems(
    positions: np.ndarray,
    pseudoranges: np.ndarray,
    systems: np.ndarray,
    occupied: np.ndarray,
) -> MultiDifferenceSystem:
    """Vectorized per-constellation difference construction for a batch.

    The batched counterpart of :func:`~repro.solvers.direct_linear.
    build_multi_difference_system`, with a per-row layout: every row
    differences each of its constellations against that
    constellation's first slot, so rows with different system
    patterns share one stacked system.  Raises
    :class:`~repro.errors.GeometryError` for the first row whose layout
    the per-constellation system cannot solve.

    ``pseudoranges`` are *raw*: the per-constellation biases are
    unknowns of this system, nothing is removed up front.
    """
    n, m = pseudoranges.shape
    columns, codes, present = _constellation_layout(systems, occupied)
    k_groups = int(codes.shape[0])
    in_group = [columns == g for g in range(k_groups)]  # K x (N, m)
    # (N, K) first slot of each group
    bases = np.stack([mask.argmax(axis=1) for mask in in_group], axis=1)
    rows = np.arange(n)[:, None]
    is_base = np.zeros((n, m), dtype=bool)
    base_rows, base_groups = np.nonzero(present)
    is_base[base_rows, bases[base_rows, base_groups]] = True
    member = occupied & ~is_base
    base_slot = bases[rows, np.maximum(columns, 0)]  # (N, m)
    base_rho = pseudoranges[rows, base_slot]
    squared_norms = np.einsum("nmi,nmi->nm", positions, positions)
    design = np.zeros((n, m, 3 + k_groups))
    design[:, :, :3] = np.where(
        member[:, :, None], positions - positions[rows, base_slot], 0.0
    )
    bias_term = np.where(member, base_rho - pseudoranges, 0.0)
    for g, mask in enumerate(in_group):
        design[:, :, 3 + g] = np.where(mask, bias_term, 0.0)
    rhs = np.where(
        member,
        0.5
        * (
            (squared_norms - squared_norms[rows, base_slot])
            - (pseudoranges**2 - base_rho**2)
        ),
        0.0,
    )
    return MultiDifferenceSystem(
        design=design, rhs=rhs, codes=codes, present=present, columns=columns
    )


#: The segment ids of a single-clock system: every row is one segment.
_ONE_CLOCK = np.zeros(1, dtype=np.int64)
_ONE_CLOCK.setflags(write=False)


@dataclass(frozen=True)
class RangeSystem:
    """The undifferenced DLG range equations of a padded batch, centered.

    One equation row per satellite slot ``i`` of constellation ``c``:

        s_i^T x - rho_i b_c - w_c = (|s_i|^2 - rho_i^2) / 2,
        weight 1 / rho_i^2,

    where ``w_c = (|x|^2 - b_c^2) / 2`` is a nuisance constant of the
    row's segment ``c``.  Differencing against a base is an invertible
    row transform, so this weighted least squares is the paper's
    eq. 4-26 GLS: same fix, same whitened residual norm, for any base.
    On the single-clock path ``rho`` is the clock-corrected range and
    the unknowns are ``x`` alone; per constellation ``rho`` is raw and
    the unknowns are ``[x, b_1..b_K]``.  Padded slots are zero rows of
    zero weight.

    The system is stored already centered
    (:func:`~repro.estimation.center_segments` projects ``w_c`` out),
    and it is centered once: the solve and the FDE gate's exclusion
    candidates read the same stack.  Centering is row-local, so
    :meth:`take` of some rows holds the bits centering those rows alone
    would give.

    Attributes
    ----------
    centered:
        ``(N, m, p+1)`` weighted-centered ``[design | rhs]`` stack.
    totals:
        ``(N, m)`` weight sum of each slot's segment.
    weights:
        ``(N, m)`` weights, zero on padded slots.
    codes, present:
        ``(K,)`` system ids of the segments and ``(N, K)`` which of
        them each row observes; on the single-clock path one segment
        and ``None`` (every row observes it).
    segments:
        ``(N, m)`` constellation column of every slot, ``-1`` on padded
        slots; ``None`` on the single-clock path (see :attr:`columns`).
    """

    centered: np.ndarray
    totals: np.ndarray
    weights: np.ndarray
    codes: np.ndarray
    segments: Optional[np.ndarray] = None
    present: Optional[np.ndarray] = None

    def take(self, rows: np.ndarray) -> "RangeSystem":
        """The systems of ``rows`` only (same segments)."""
        return RangeSystem(
            centered=self.centered[rows],
            totals=self.totals[rows],
            weights=self.weights[rows],
            codes=self.codes,
            segments=None if self.segments is None else self.segments[rows],
            present=None if self.present is None else self.present[rows],
        )

    @property
    def columns(self) -> np.ndarray:
        """``(N, m)`` segment of every slot, ``-1`` on padded slots
        (built on demand on the single-clock path: only the FDE gate
        reads it)."""
        if self.segments is not None:
            return self.segments
        return np.where(self.weights > 0, 0, -1)

    @property
    def decoupled(self) -> Optional[np.ndarray]:
        """``(N, p)`` unknowns a row does not observe, or ``None``."""
        return None if self.present is None else _decoupled(self.present)

    def solve(self, norms: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(solutions (N, p), whitened norms (N,))`` of every row;
        ``norms=False`` skips the residual pass (norms ``None``)."""
        try:
            return solve_centered_wls(
                self.centered, self.weights, self.decoupled, norms
            )
        except EstimationError as exc:
            raise EstimationError(_DEGENERATE) from exc


def build_range_systems(
    positions: np.ndarray,
    ranges: np.ndarray,
    occupied: Optional[np.ndarray] = None,
    systems: Optional[np.ndarray] = None,
) -> RangeSystem:
    """Vectorized :class:`RangeSystem` construction for a batch.

    Without ``systems`` the ``(N, m)`` ``ranges`` are clock-corrected
    and every row is one segment with unknowns ``x``.  With the
    ``(N, m)`` system ids the ranges are raw pseudoranges, each
    constellation is its own segment and gets a bias column, and
    rows the per-constellation system cannot solve raise
    :class:`~repro.errors.GeometryError` (see
    :func:`_constellation_layout`).  ``occupied`` marks the live slots
    of a padded batch (``None``: all).
    """
    n, m = ranges.shape
    segments = present = None
    codes = _ONE_CLOCK
    if systems is not None:
        segments, codes, present = _constellation_layout(systems, occupied)
    p = 3 + (0 if systems is None else codes.shape[0])
    stack = np.empty((n, m, p + 1))
    if systems is not None:
        # Slot i's bias coefficient -rho_i sits in its constellation's
        # column (one (N, m) pass per column: cheaper than a stacked one).
        for group in range(codes.shape[0]):
            stack[:, :, 3 + group] = np.where(segments == group, -ranges, 0.0)
    # [design | rhs] written into one buffer, then centered in place.
    stack[:, :, :3] = positions
    squared = ranges**2
    stack[:, :, p] = 0.5 * (np.einsum("nmi,nmi->nm", positions, positions) - squared)
    if occupied is None:
        weights = 1.0 / squared
    else:
        stack[~occupied] = 0.0
        weights = np.divide(1.0, squared, out=np.zeros((n, m)), where=occupied)
    centered, totals = center_segments(
        stack, weights, None if codes.shape[0] == 1 else np.maximum(segments, 0)
    )
    return RangeSystem(
        centered=centered,
        totals=totals,
        weights=weights,
        codes=codes,
        segments=segments,
        present=present,
    )


@dataclass(frozen=True)
class BatchMultiResult:
    """Per-epoch output of a multi-constellation batch solve.

    Attributes
    ----------
    positions:
        ``(N, 3)`` estimated receiver positions.
    constellation_biases:
        ``(N, K)`` solved clock biases (meters), one column per
        constellation in ``systems`` order; NaN where a row does not
        observe that constellation.
    systems:
        ``(K,)`` constellation codes in first-appearance order over
        the batch.
    norms:
        ``(N,)`` residual norms — whitened (Mahalanobis) for DLG, raw
        differenced-domain for DLO.
    system:
        The system the batch was solved from: a :class:`RangeSystem`
        for DLG (the FDE gate prices its exclusion candidates from it),
        a :class:`MultiDifferenceSystem` for DLO.
    """

    positions: np.ndarray
    constellation_biases: np.ndarray
    systems: Tuple[str, ...]
    norms: np.ndarray
    system: Union[RangeSystem, MultiDifferenceSystem]

    @property
    def first_columns(self) -> np.ndarray:
        """``(N,)`` bias column of each row's first constellation (the
        system of its slot 0)."""
        return self.system.columns[:, 0]

    @property
    def primary_biases(self) -> np.ndarray:
        """``(N,)`` each row's first constellation's bias."""
        rows = np.arange(self.constellation_biases.shape[0])
        return self.constellation_biases[rows, self.first_columns]


def _check_constellations(constellations: str) -> str:
    if constellations not in CONSTELLATION_MODES:
        raise ConfigurationError(
            f"constellations must be one of {CONSTELLATION_MODES}, "
            f"got {constellations!r}"
        )
    return constellations


def _finish_multi_batch(
    solutions: np.ndarray,
    system: Union[RangeSystem, MultiDifferenceSystem],
    norms: np.ndarray,
) -> BatchMultiResult:
    return BatchMultiResult(
        positions=solutions[:, :3].copy(),
        constellation_biases=solutions[:, 3:].copy(),
        systems=tuple(system_code(int(code)) for code in system.codes),
        norms=norms,
        system=system,
    )


def _normal_equations(
    design: np.ndarray, rhs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched ``(A^T A, A^T b)``: ``(N, p, p)`` and ``(N, p)``."""
    return (
        np.einsum("nij,nik->njk", design, design),
        np.einsum("nij,ni->nj", design, rhs),
    )


def _solve_normal(gram: np.ndarray, moment: np.ndarray, decoupled=None) -> np.ndarray:
    try:
        return solve_normal_equations(gram, moment, decoupled)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(_DEGENERATE) from exc


class _BatchDirectSolver:
    """What batched DLO and DLG share: the constellation policy and the
    epoch-object entry point over their ``solve_block`` (single clock)
    and ``solve_block_multi`` (per constellation)."""

    name = "Batch"

    def __init__(self, constellations: str = "single") -> None:
        self.constellations = _check_constellations(constellations)

    def solve_batch(
        self,
        epochs: Batchable,
        biases: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Positions for N epochs of any satellite counts, ``(N, 3)``.

        ``biases`` are the predicted receiver clock biases (meters),
        one per epoch — the batched equivalent of the clock predictor
        hook on the scalar solvers.  Required in ``"single"`` mode; in
        ``"per_constellation"`` mode the biases are *estimated* (one
        per constellation, see ``solve_block_multi``), so none may be
        passed.  Accepts an :class:`~repro.blocks.EpochBlock` directly.
        """
        block = as_block(epochs, "direct linearization")
        if self.constellations == "per_constellation":
            if biases is not None:
                raise ConfigurationError(
                    "per-constellation mode estimates the clock biases; "
                    "predicted biases cannot be passed"
                )
            return self.solve_block_multi(block).positions
        if biases is None:
            raise ConfigurationError(
                f"single-constellation batch {self.name[len('Batch'):]} needs "
                "one predicted clock bias per epoch"
            )
        return self.solve_block(block, np.asarray(biases, dtype=float))


class BatchDLOSolver(_BatchDirectSolver):
    """Vectorized DLO: one stacked OLS solve for N epochs."""

    name = "BatchDLO"

    def solve_block_multi(self, block: EpochBlock) -> BatchMultiResult:
        """Per-constellation solve of an already-columnar block.

        One stacked OLS solve of the ``(N, m, 3+K)`` per-constellation
        difference systems; rows may mix satellite counts and system
        patterns freely.
        """
        system = build_multi_difference_systems(
            block.positions, block.pseudoranges, block.systems, block.occupied
        )
        design, rhs = system.design, system.rhs
        gram, moment = _normal_equations(design, rhs)
        decoupled = system.decoupled
        solutions = _solve_normal(gram, moment, decoupled)
        residuals = rhs - np.einsum("nki,ni->nk", design, solutions)
        if decoupled is not None:
            solutions[decoupled] = np.nan
        return _finish_multi_batch(
            solutions, system, np.linalg.norm(residuals, axis=1)
        )

    def solve_block(self, block: EpochBlock, biases: np.ndarray) -> np.ndarray:
        """Positions for an already-columnar block; zero repacking."""
        corrected = _corrected_pseudoranges(block, biases)
        design, rhs = build_difference_systems(
            block.positions, corrected, _occupancy(block)
        )
        return _solve_normal(*_normal_equations(design, rhs))


class BatchDLGSolver(_BatchDirectSolver):
    """Vectorized DLG: the eq. 4-26 GLS of N epochs in one stacked solve.

    GLS on base-differenced rows does not depend on the base, so the
    stack is solved undifferenced: every satellite keeps its own range
    equation with weight ``1/rho^2``, and weighted centering per
    constellation removes the nuisance term differencing would cancel
    (:class:`RangeSystem`, :func:`~repro.estimation.batched_centered_wls`).
    The scalar :class:`~repro.solvers.direct_linear.DLGSolver` stays
    the differenced, paper-faithful reference.

    ``constellations="per_constellation"`` estimates one clock bias
    per constellation (see :meth:`solve_block_multi`).
    """

    name = "BatchDLG"

    def solve_block_multi(self, block: EpochBlock) -> BatchMultiResult:
        """Per-constellation solve of an already-columnar block.

        Unknowns ``[x, b_1..b_K]``; each row centers within its own
        constellations, so rows of any width and system pattern share
        one stacked solve with no bucketing.
        """
        system = build_range_systems(
            block.positions, block.pseudoranges, block.occupied, block.systems
        )
        solutions, norms = system.solve()
        return _finish_multi_batch(solutions, system, norms)

    def solve_block(self, block: EpochBlock, biases: np.ndarray) -> np.ndarray:
        """Positions for an already-columnar block; zero repacking (and
        no residual norms: nothing without an integrity gate reads
        them)."""
        system = build_range_systems(
            block.positions, _corrected_pseudoranges(block, biases), _occupancy(block)
        )
        return system.solve(norms=False)[0]

    def solve_block_full(
        self, block: EpochBlock, biases: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, RangeSystem]:
        """Solve a block, returning ``(solutions, norms, system)``.

        ``norms`` are the whitened (Mahalanobis) residual norms — the
        RAIM/FDE test quantities — and ``system`` the centered
        :class:`RangeSystem` the solve read, so the integrity gate
        screens the batch and prices exclusions without centering again.
        """
        system = build_range_systems(
            block.positions, _corrected_pseudoranges(block, biases), _occupancy(block)
        )
        solutions, norms = system.solve()
        return solutions, norms, system


@dataclass(frozen=True)
class BatchNrResult:
    """Full per-epoch record of a batched Newton-Raphson solve.

    Attributes
    ----------
    positions:
        ``(N, 3)`` estimated receiver positions.
    clock_biases:
        ``(N,)`` solved receiver clock biases (meters); in
        per-constellation mode each row's first constellation's.
    iterations:
        ``(N,)`` iterations each epoch actually ran before converging
        (or hitting the budget).
    converged:
        ``(N,)`` whether each epoch met the update tolerance.
    constellation_biases:
        ``(N, K)`` per-constellation solved clock biases (NaN where a
        row lacks the constellation), or ``None`` for
        single-constellation solves (where ``clock_biases`` is the
        whole story).
    systems:
        ``(K,)`` constellation codes matching the bias columns, or
        ``None`` for single-constellation solves.
    """

    positions: np.ndarray
    clock_biases: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    constellation_biases: Optional[np.ndarray] = None
    systems: Optional[Tuple[str, ...]] = None


class BatchNewtonRaphsonSolver:
    """Vectorized NR over N epochs, with active-set masking.

    Each iteration linearizes all still-unconverged epochs at once
    (stacked Jacobians, one batched normal-equations solve; padded
    slots are zero rows) and drops epochs whose update norm falls below
    the tolerance out of the active set — so the batch cost tracks the
    *slowest* epochs without re-iterating the finished ones.  This
    gives the paper's baseline a throughput-comparable implementation:
    NR cannot be made closed-form, but its per-iteration linear algebra
    batches exactly like DLO/DLG's single solve does.

    Uses the ``"update"`` convergence criterion of
    :class:`~repro.solvers.newton_raphson.NewtonRaphsonSolver` (state
    update norm below ``tolerance_meters``) and the same cold start.
    """

    name = "BatchNR"

    def __init__(
        self,
        max_iterations: int = 20,
        tolerance_meters: float = 1e-4,
        initial_state: Optional[np.ndarray] = None,
        constellations: str = "single",
    ) -> None:
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if tolerance_meters <= 0:
            raise ConfigurationError("tolerance_meters must be positive")
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance_meters)
        self.constellations = _check_constellations(constellations)
        if self.constellations == "per_constellation" and initial_state is not None:
            raise ConfigurationError(
                "per-constellation mode sizes its state to the epoch's "
                "constellation count; a fixed initial_state cannot be "
                "combined with it"
            )
        if initial_state is None:
            self._initial_state = np.zeros(4)
        else:
            state = np.asarray(initial_state, dtype=float)
            if state.shape != (4,) or not np.all(np.isfinite(state)):
                raise ConfigurationError("initial_state must be a finite 4-vector")
            self._initial_state = state.copy()

    def solve_batch(self, epochs: Batchable) -> np.ndarray:
        """Positions for N epochs, as an ``(N, 3)`` array.

        Raises :class:`~repro.errors.ConvergenceError` if any epoch
        fails to converge; use :meth:`solve_batch_full` to get partial
        results with per-epoch convergence flags instead.
        """
        result = self.solve_batch_full(epochs)
        if not np.all(result.converged):
            stuck = int(np.count_nonzero(~result.converged))
            raise ConvergenceError(
                f"{stuck} of {len(epochs)} epochs did not converge within "
                f"{self._max_iterations} iterations",
                iterations=self._max_iterations,
            )
        return result.positions

    def solve_batch_full(self, epochs: Batchable) -> BatchNrResult:
        """Solve N epochs, reporting per-epoch convergence.

        Accepts an :class:`~repro.blocks.EpochBlock` directly (alias
        :meth:`solve_block_full`); epoch sequences are packed once.
        """
        block = as_block(epochs, "Newton-Raphson")
        if self.constellations == "single":
            columns = np.zeros(block.prns.shape, dtype=np.int64)
            states, iterations, converged = self._iterate(
                block, columns, 1, self._initial_state
            )
            return BatchNrResult(
                positions=states[:, :3].copy(),
                clock_biases=states[:, 3].copy(),
                iterations=iterations,
                converged=converged,
            )
        return self._solve_multi(block)

    def solve_block_full(self, block: EpochBlock) -> BatchNrResult:
        """Solve an already-columnar block; zero repacking."""
        return self.solve_batch_full(block)

    def _solve_multi(self, block: EpochBlock) -> BatchNrResult:
        """Batched NR with one clock-bias column per constellation.

        The batched counterpart of :meth:`~repro.solvers.
        newton_raphson.NewtonRaphsonSolver._solve_multi`: state
        ``(N, 3+K)``, residual ``P_i = R_i - rho_i + b_c(i)`` and
        one-hot bias columns in the Jacobian.  NR tolerates singleton
        constellations (the shared position couples their equation to
        the rest), so only ``m >= 3 + K`` is required per row.
        """
        occupied = block.occupied
        columns, codes = system_columns(block.systems, occupied)
        k_groups = int(codes.shape[0])
        present = (columns[:, :, None] == np.arange(k_groups)).any(axis=1)
        row_groups = present.sum(axis=1)
        short = block.counts < 3 + row_groups
        if short.any():
            row = int(np.flatnonzero(short)[0])
            raise GeometryError(
                f"{int(block.counts[row])} satellites cannot determine "
                f"{3 + int(row_groups[row])} unknowns "
                f"({int(row_groups[row])} constellation clock biases)"
            )
        states, iterations, converged = self._iterate(
            block, columns, k_groups, np.zeros(3 + k_groups), present
        )
        biases = states[:, 3:].copy()
        biases[~present] = np.nan
        rows = np.arange(len(block))
        return BatchNrResult(
            positions=states[:, :3].copy(),
            clock_biases=biases[rows, columns[:, 0]],
            iterations=iterations,
            converged=converged,
            constellation_biases=biases,
            systems=tuple(system_code(int(code)) for code in codes),
        )

    def _iterate(
        self,
        block: EpochBlock,
        columns: np.ndarray,
        k_groups: int,
        initial_state: np.ndarray,
        present: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        positions = block.positions
        pseudoranges = block.pseudoranges
        occupied = _occupancy(block)
        n, m = pseudoranges.shape
        states = np.tile(initial_state, (n, 1))  # (N, 3+K)
        iterations = np.zeros(n, dtype=int)
        converged = np.zeros(n, dtype=bool)
        active = np.arange(n)
        bias_columns = 3 + np.maximum(columns, 0)  # (N, m)
        membership = (columns[:, :, None] == np.arange(k_groups)).astype(float)
        decoupled = None
        if present is not None and not present.all():
            decoupled = np.concatenate(
                [np.zeros((n, 3), dtype=bool), ~present], axis=1
            )

        for iteration in range(1, self._max_iterations + 1):
            state_a = states[active]
            deltas = positions[active] - state_a[:, None, :3]  # (Na, m, 3)
            ranges = np.sqrt(np.einsum("nmi,nmi->nm", deltas, deltas))
            collided = ranges < 1.0
            if occupied is not None:
                collided &= occupied[active]
            if np.any(collided):
                raise GeometryError(
                    "NR state collided with a satellite position; "
                    "a batch epoch is degenerate"
                )

            # Residuals P_i and Jacobian rows (eq. 3-20..3-24), stacked.
            residuals = (
                ranges
                - pseudoranges[active]
                + np.take_along_axis(state_a, bias_columns[active], axis=1)
            )
            jacobian = np.empty((active.size, m, 3 + k_groups))
            jacobian[..., :3] = -deltas / ranges[..., None]
            jacobian[..., 3:] = membership[active]
            if occupied is not None:
                live = occupied[active]
                residuals = np.where(live, residuals, 0.0)
                jacobian = np.where(live[:, :, None], jacobian, 0.0)

            gram, moment = _normal_equations(jacobian, -residuals)
            try:
                updates = solve_normal_equations(
                    gram,
                    moment,
                    None if decoupled is None else decoupled[active],
                )
            except np.linalg.LinAlgError as exc:
                raise GeometryError(
                    f"NR normal equations are singular at iteration {iteration}; "
                    "a batch epoch has degenerate geometry"
                ) from exc

            states[active] += updates
            iterations[active] = iteration
            if not np.all(np.isfinite(states[active])):
                raise ConvergenceError(
                    "NR state diverged to non-finite values for a batch epoch",
                    iterations=iteration,
                )

            # Active-set masking: converged epochs drop out of the batch.
            done = np.linalg.norm(updates, axis=1) < self._tolerance
            converged[active[done]] = True
            active = active[~done]
            if active.size == 0:
                break
        return states, iterations, converged
