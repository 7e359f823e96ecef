"""Binomial models of the Brownian filtration.

A lattice couples a uniform time grid with a tree of nodes per step: either
the recombining random walk (step k carries k+1 nodes) or the full binary
tree of paths (step k carries 2**k nodes).  Adapted fields attach one value
per node and step, predictable controls one value per node for each
transition, and stopping times are absorbing families of per-step node sets.
The sweep kernel (`child_values`, `push`, `sweep`, `hitting_time`) works on
the last axis, so per-step arrays with a leading row axis run many trials
through one sweep, each row bitwise the sweep of that row alone.

Everything here is read-only after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

FULL_BINARY_MAX_STEPS = 20
# nodes (rows times grid nodes) one block of a stacked trial sweep may hold
BATCH_NODES = 2**20


class TreeTopology(enum.Enum):
    RECOMBINING = "recombining"
    FULL_BINARY = "full_binary"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    def time(self, step: int) -> float:
        return step * self.dt


@dataclass(frozen=True)
class NodeId:
    """Address of one node: (step, index within the step)."""

    step: int
    index: int

    def __str__(self):
        return f"node(step={self.step}, index={self.index})"


class Lattice:
    """Time grid plus node enumeration for one of the two topologies."""

    def __init__(self, grid: TimeGrid, topology: TreeTopology):
        if topology is TreeTopology.FULL_BINARY and grid.steps > FULL_BINARY_MAX_STEPS:
            raise ValueError(
                f"full binary tree limited to {FULL_BINARY_MAX_STEPS} steps "
                f"(2**{grid.steps} nodes would not fit), got {grid.steps}"
            )
        self.grid = grid
        self.topology = topology
        # every level is (2 * ups - k) * sqrt(dt) with 2 * ups - k in [-N, N]
        self._walk = np.arange(-grid.steps, grid.steps + 1) * grid.sqrt_dt
        self._walk.flags.writeable = False
        self._two_sqrt_dt = 2.0 * grid.sqrt_dt

    # -- sizes -----------------------------------------------------------

    @property
    def steps(self) -> int:
        return self.grid.steps

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    @property
    def dt(self) -> float:
        return self.grid.dt

    @property
    def sqrt_dt(self) -> float:
        return self.grid.sqrt_dt

    def node_count(self, step: int) -> int:
        if not 0 <= step <= self.steps:
            raise ValueError(f"step {step} outside [0, {self.steps}]")
        if self.topology is TreeTopology.RECOMBINING:
            return step + 1
        return 2**step

    def per_step(self, values: Sequence, first: int, last: int | None = None,
                 dtype=float) -> list[np.ndarray]:
        """`values` as one array per step first..last, step k holding `node_count(k)` entries.

        `last` defaults to the step the given arrays reach (at least `first`).
        This is the one shape check of per-step node data; every fault names
        its step, a step outside the grid through `node_count`.  A `_LazySteps`
        is taken as built: its builder checks each step.
        """
        if isinstance(values, _LazySteps):
            return values
        return self._checked_steps(values, first, last, dtype, stacked=False)

    def _checked_steps(self, values: Sequence, first: int, last: int | None, dtype,
                       stacked: bool) -> list[np.ndarray]:
        """`per_step`; when `stacked`, every step shares the first array's leading (row) axes."""
        arrays = [np.asarray(v, dtype=dtype) for v in values]
        last = first + max(len(arrays), 1) - 1 if last is None else last
        if len(arrays) != last + 1 - first:
            raise ValueError(f"step {first + min(len(arrays), last + 1 - first)}: need one "
                             f"array per step {first}..{last}, got {len(arrays)}")
        rows = arrays[0].shape[:-1] if stacked and arrays else ()
        for k, vec in enumerate(arrays, start=first):
            if vec.shape != (*rows, self.node_count(k)):
                raise ValueError(f"step {k}: expected {self.node_count(k)} node values"
                                 f"{f' per row of {rows}' if rows else ''}, "
                                 f"got shape {vec.shape}")
        return arrays

    def validate_node(self, node: NodeId) -> None:
        if not 0 <= node.step <= self.steps:
            raise ValueError(f"{node}: step outside [0, {self.steps}]")
        if not 0 <= node.index < self.node_count(node.step):
            raise ValueError(
                f"{node}: index outside [0, {self.node_count(node.step)})"
            )

    # -- geometry --------------------------------------------------------

    def level_values(self, step: int) -> np.ndarray:
        """Random-walk approximation of the Brownian level, one read-only value per node."""
        if not 0 <= step <= self.steps:
            raise ValueError(f"step {step} outside [0, {self.steps}]")
        lowest = self.steps - step
        if self.topology is TreeTopology.RECOMBINING:
            return self._walk[lowest:lowest + 2 * step + 1:2]
        index = np.arange(2**step)
        ups = np.zeros(index.size, dtype=np.int64)
        for bit in range(step):
            ups += (index >> bit) & 1
        levels = self._walk[lowest + 2 * ups]
        levels.flags.writeable = False
        return levels

    def child_values(self, values_at_next_step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split step-(k+1) values (nodes on the last axis) into (down, up) children of step k."""
        v = values_at_next_step
        if self.topology is TreeTopology.RECOMBINING:
            return v[..., :-1], v[..., 1:]
        return v[..., 0::2], v[..., 1::2]

    def increment(self, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        """The increment z = (up - down) / (2 sqrt(dt)) of a step, from its (down, up) children."""
        return (up - down) / self._two_sqrt_dt

    def push(self, values: np.ndarray, down, up) -> np.ndarray:
        """Forward map, the transpose of `child_values`: a step-k vector to step k+1.

        Each node sends `down * v` to its down child and `up * v` to its up
        child; where recombining children merge the two contributions add
        (an OR for boolean masks).  Nodes run along the last axis.
        """
        to_down = values * down
        to_up = values * up
        *rows, nodes = to_down.shape
        dtype = np.result_type(to_down, to_up)
        if self.topology is TreeTopology.RECOMBINING:
            out = np.zeros((*rows, nodes + 1), dtype=dtype)
            out[..., :-1] += to_down
            out[..., 1:] += to_up
            return out
        out = np.empty((*rows, 2 * nodes), dtype=dtype)
        out[..., 0::2] = to_down
        out[..., 1::2] = to_up
        return out

    def sweep(self, start: int, values: np.ndarray,
              step: Callable[[int, np.ndarray, np.ndarray], np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
        """Backward dynamic program v_k = step(k, down, up) over the children of v_{k+1}.

        Lazily yields (start, values), then (k, v_k) for k = start-1 .. 0: collect
        it for a whole field or stop at the step needed.  `values` may stack
        rows on a leading axis, one trial each.  A NaN from a step is an error
        reported at its row and node; +inf passes through.
        """
        yield start, values
        for k in reversed(range(start)):
            values = step(k, *self.child_values(values))
            lowest = values.min()
            if lowest != lowest:  # min propagates NaN, so this is the whole-array test
                *row, index = np.unravel_index(int(np.argmax(np.isnan(values))), values.shape)
                where = f"in row {int(row[0])} " if row else ""
                raise ValueError(f"backward step produced NaN {where}at {NodeId(k, int(index))}")
            yield k, values

    def terminal_ancestors(self, step: int) -> np.ndarray:
        """For each terminal node, the index of its step-k ancestor (full binary only)."""
        if self.topology is not TreeTopology.FULL_BINARY:
            raise ValueError("path ancestry needs the full binary topology")
        return np.arange(2**self.steps) >> (self.steps - step)


class _LazySteps(Sequence):
    """A per-step list of `steps` arrays that computes step k as `compute(k)` when it is read.

    Only the latest step read is kept, so a sweep that reads a step twice
    computes it once; the cache is swapped as one tuple, so threads sharing
    it at worst compute a step again.  `compute` must be deterministic.
    """

    __slots__ = ("_steps", "_compute", "_latest")

    def __init__(self, steps: int, compute: Callable[[int], np.ndarray]):
        self._steps = steps
        self._compute = compute
        self._latest = (None, None)

    def __len__(self) -> int:
        return self._steps

    def __getitem__(self, step):
        cached, values = self._latest
        if step != cached:
            k = range(self._steps)[step]  # a negative step counts from the end, a slice is a range
            if isinstance(k, range):
                return [self[j] for j in k]
            values = self._compute(k)
            self._latest = (k, values)
        return values


def _trial_blocks(trials: int, nodes_per_trial: int) -> Iterator[range]:
    """Consecutive ranges of trial indices, each at most BATCH_NODES nodes, one trial at least."""
    size = max(1, BATCH_NODES // max(1, nodes_per_trial))
    return (range(lo, min(lo + size, trials)) for lo in range(0, trials, size))


def node_total(topology: TreeTopology, steps: int) -> int:
    """Nodes of steps 0..N together, the sum of `Lattice.node_count`, in closed form."""
    if topology is TreeTopology.RECOMBINING:
        return (steps + 1) * (steps + 2) // 2
    return 2 ** (steps + 1) - 1


def field_max(combine: Callable[..., np.ndarray], *fields) -> float:
    """Largest value of `combine` applied nodewise to the fields' aligned steps.

    The fields (adapted fields or controls) are aligned at their first step;
    the shortest one sets how many steps are reduced.
    """
    return max(float(np.max(combine(*step))) for step in zip(*(f.values for f in fields)))


def build_grid(horizon: float, steps: int, topology: TreeTopology = TreeTopology.RECOMBINING) -> Lattice:
    """Build the lattice for a uniform grid; errors on empty grids and oversized trees."""
    return Lattice(TimeGrid(horizon, steps), topology)


def brownian_level(lattice: Lattice, node: NodeId) -> float:
    """Value of the random walk at one node; zero at the root by construction."""
    lattice.validate_node(node)
    return float(lattice.level_values(node.step)[node.index])


class AdaptedField:
    """One value per node for a contiguous range of steps.

    A field over steps `start .. start + len(values) - 1`; measurability at
    each step holds by construction because entries are indexed by nodes.
    """

    __slots__ = ("lattice", "start", "values")

    def __init__(self, lattice: Lattice, values: Sequence[np.ndarray], start: int = 0):
        self.lattice = lattice
        self.start = start
        self.values = lattice.per_step(values, start)

    @property
    def stop(self) -> int:
        """Last step carried by the field (inclusive)."""
        return self.start + len(self.values) - 1

    def __getitem__(self, step: int) -> np.ndarray:
        if not self.start <= step <= self.stop:
            raise KeyError(f"field holds steps {self.start}..{self.stop}, not {step}")
        return self.values[step - self.start]

    def bounded_values(self) -> np.ndarray:
        """The values of a single-step claim, refused unless all finite (essentially bounded)."""
        if self.start != self.stop:
            raise ValueError("terminal claim must live at a single step")
        finite = np.isfinite(self.values[0])
        if not finite.all():
            raise ValueError(f"terminal claim not essentially bounded: non-finite value at "
                             f"{NodeId(self.start, int(np.argmin(finite)))}")
        return self.values[0]

    def sup_norm(self) -> float:
        """Boundedness certificate: the largest absolute node value."""
        return field_max(np.abs, self)

    def single(self, step: int) -> "AdaptedField":
        """The one-step field holding this field's values at `step`."""
        return AdaptedField(self.lattice, [self[step].copy()], start=step)

    @classmethod
    def constant(cls, lattice: Lattice, value: float, step: int) -> "AdaptedField":
        return cls(lattice, [np.full(lattice.node_count(step), float(value))], start=step)


def terminal_field(lattice: Lattice, payoff: Callable[[np.ndarray], np.ndarray] | Sequence[float]) -> AdaptedField:
    """Terminal claim at the last step: a payoff's value at each terminal level, or an explicit vector.

    The claim must be essentially bounded: any non-finite entry is rejected.
    """
    n = lattice.node_count(lattice.steps)
    if callable(payoff):
        vec = np.asarray(payoff(lattice.level_values(lattice.steps)), dtype=float)
    else:
        vec = np.asarray(payoff, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"terminal claim needs {n} values, got shape {vec.shape}")
    claim = AdaptedField(lattice, [vec], start=lattice.steps)
    claim.bounded_values()
    return claim


class PredictableControl:
    """One value per step-k node for k = 0..N-1, governing the k -> k+1 transition."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values: Sequence[np.ndarray]):
        self.lattice = lattice
        self.values = lattice.per_step(values, 0, lattice.steps - 1)

    def __getitem__(self, step: int) -> np.ndarray:
        return self.values[step]

    def max_abs(self) -> float:
        return field_max(np.abs, self)

    def is_deterministic(self) -> bool:
        """True when every step carries a single value across nodes."""
        return all(v.size == 1 or float(np.ptp(v)) == 0.0 for v in self.values)

    def map(self, fn: Callable[[int, np.ndarray], np.ndarray]) -> "PredictableControl":
        return PredictableControl(self.lattice, [fn(k, v) for k, v in enumerate(self.values)])

    @classmethod
    def constant(cls, lattice: Lattice, value: float) -> "PredictableControl":
        value = float(value)
        return cls(lattice, _LazySteps(lattice.steps,
                                       lambda k: np.full(lattice.node_count(k), value)))

    @classmethod
    def from_state_function(cls, lattice: Lattice, fn: Callable[[float, np.ndarray], np.ndarray]) -> "PredictableControl":
        """Markov feedback control q_k = fn(t_k, level_k), evaluated nodewise.

        Each step is evaluated here once, to check that it broadcasts to the
        step's nodes, and again each time it is read: `fn` must be deterministic.
        """
        def compute(k: int) -> np.ndarray:
            q = np.asarray(fn(lattice.grid.time(k), lattice.level_values(k)), dtype=float)
            nodes = lattice.node_count(k)
            return q.copy() if q.shape == (nodes,) else np.array(np.broadcast_to(q, (nodes,)))

        for k in range(lattice.steps):
            compute(k)
        return cls(lattice, _LazySteps(lattice.steps, compute))


class StoppingTime:
    """Stopping time with values in {0, .., N} as absorbing per-step node sets.

    `reached[k]` flags the step-k nodes where the time is <= k, so {tau <= k}
    is a union of step-k atoms by construction (the adaptedness test).  The
    flags must be absorbing (children of a reached node are reached) and the
    horizon is always reached.  The constructor checks both; the combinators
    and `hitting_time` build absorbing flags by construction and skip the check.
    `hitting_time` of stacked events gives stacked flags, one stopping time per
    row; the combinators work on them row by row, and `is_before` holds when
    it holds on every row.
    """

    __slots__ = ("lattice", "reached")

    def __init__(self, lattice: Lattice, reached: Sequence[np.ndarray]):
        reached = lattice.per_step(reached, 0, lattice.steps, dtype=bool)
        if not np.all(reached[lattice.steps]):
            raise ValueError("stopping time must reach the horizon on every path")
        for k in range(lattice.steps):
            down, up = lattice.child_values(reached[k + 1])
            if np.any(reached[k] & ~down) or np.any(reached[k] & ~up):
                raise ValueError(f"non-absorbing stop flags between steps {k} and {k + 1}")
        self.lattice = lattice
        self.reached = reached

    @classmethod
    def _trusted(cls, lattice: Lattice, reached: list[np.ndarray]) -> "StoppingTime":
        """Wrap boolean step masks that are absorbing and reach the horizon by construction."""
        stop = cls.__new__(cls)
        stop.lattice = lattice
        stop.reached = reached
        return stop

    @classmethod
    def deterministic(cls, lattice: Lattice, step: int) -> "StoppingTime":
        if not 0 <= step <= lattice.steps:
            raise ValueError(f"step {step} outside [0, {lattice.steps}]")
        return cls._trusted(lattice, [np.full(lattice.node_count(k), k >= step)
                                      for k in range(lattice.steps + 1)])

    def is_before(self, other: "StoppingTime") -> bool:
        """Pointwise self <= other: wherever other has stopped, self has too."""
        return all(np.all(mine | ~theirs)
                   for mine, theirs in zip(self.reached, other.reached))

    def _same_grid(self, other: "StoppingTime") -> None:
        if (len(other.reached) != len(self.reached)
                or other.lattice.topology is not self.lattice.topology):
            raise ValueError("stopping times live on different lattices")

    def minimum(self, other: "StoppingTime") -> "StoppingTime":
        self._same_grid(other)
        return StoppingTime._trusted(self.lattice, [a | b for a, b in zip(self.reached, other.reached)])

    def maximum(self, other: "StoppingTime") -> "StoppingTime":
        self._same_grid(other)
        return StoppingTime._trusted(self.lattice, [a & b for a, b in zip(self.reached, other.reached)])

    def step_on_paths(self) -> np.ndarray:
        """First reached step along each terminal path (full binary only)."""
        lat = self.lattice
        if lat.topology is not TreeTopology.FULL_BINARY:
            raise ValueError("pathwise stop steps need the full binary topology")
        n_paths = 2**lat.steps
        out = np.full(n_paths, lat.steps, dtype=int)
        done = np.zeros(n_paths, dtype=bool)
        for k in range(lat.steps + 1):
            hit = self.reached[k][lat.terminal_ancestors(k)]
            fresh = hit & ~done
            out[fresh] = k
            done |= hit
        return out


def hitting_time(lattice: Lattice, event: Sequence[np.ndarray]) -> StoppingTime:
    """First step whose ancestry enters the adapted event; the horizon if never.

    The event is a per-step node indicator, hence adapted by construction.
    On the full binary tree the result is the exact pathwise hitting time; on
    the recombining tree merged paths share flags, so the result is the entry
    time into the absorbing closure of the event (the smallest family of
    per-node stop sets containing it).  The event may stack rows on a leading
    axis (the same rows at every step): one stopping time per row, stacked.
    """
    reached: list[np.ndarray] = []
    for k, mask in enumerate(lattice._checked_steps(event, 0, lattice.steps, bool, stacked=True)):
        reached.append(mask | (lattice.push(reached[k - 1], True, True) if k else False))
    reached[lattice.steps] = np.ones(reached[lattice.steps].shape, dtype=bool)
    return StoppingTime._trusted(lattice, reached)
