"""Equivalent measures on the lattice built from predictable drift controls.

A control q turns the fair coin into per-node up probabilities; the
multiplicative density (1 + q dB) makes the conditional drift of the
increments exactly q*dt and keeps the density a P-martingale node by node.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .lattice import (
    AdaptedField,
    Lattice,
    NodeId,
    PredictableControl,
    StoppingTime,
    TreeTopology,
    _LazySteps,
)


class AdmissibilityError(ValueError):
    """A control's up-probability leaves (0, 1), so the implied measure is not equivalent."""

    def __init__(self, node: NodeId, value: float, bound: float, up_prob: float):
        self.node = node
        self.value = value
        self.bound = bound
        super().__init__(
            f"inadmissible control at {node}: its up-probability {up_prob} is not in (0, 1) "
            f"(control {value})"
        )


def _inside(p: np.ndarray) -> bool:
    """0 < p < 1 at every node: the least and greatest p pass (a NaN fails both)."""
    return p.min() > 0.0 and p.max() < 1.0


class MeasureChange:
    """A measure equivalent to the fair coin, given by per-node up probabilities.

    `up_prob` is one array per step, or a `lattice._LazySteps` that computes
    p_k each time the step is read.  Each step is checked here for its shape
    and for 0 < p < 1: a step passes when its least and greatest p do (a NaN
    fails both), and only a step that fails is scanned for its first bad node.
    `density_from_control` admits a control clipped by construction by its bound.
    """

    __slots__ = ("lattice", "control", "up_prob")

    def __init__(self, control: PredictableControl, up_prob: Sequence[np.ndarray]):
        self.lattice = control.lattice
        self.control = control
        self.up_prob = self.lattice.per_step(up_prob, 0, self.lattice.steps - 1)
        for k, p in enumerate(self.up_prob):
            if not _inside(p):
                bad = int(np.flatnonzero(~((p > 0.0) & (p < 1.0)))[0])
                raise AdmissibilityError(NodeId(k, bad), float(control[k][bad]),
                                         1.0 / self.lattice.sqrt_dt, float(p[bad]))

    @classmethod
    def _trusted(cls, control: PredictableControl, up_prob: Sequence[np.ndarray]) -> "MeasureChange":
        """Wrap up-probabilities that lie in (0, 1) by construction, unchecked."""
        measure = cls.__new__(cls)
        measure.lattice, measure.control, measure.up_prob = control.lattice, control, up_prob
        return measure

    def one_step_expectation(self, step: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Conditional expectation given the step-k node, from its (down, up) child values."""
        p = self.up_prob[step]
        return p * up + (1.0 - p) * down

    def density(self) -> AdaptedField:
        """The density martingale M with M_0 = 1, one value per node.

        The density is a path functional, so it is a node field only on the
        full binary tree; on the recombining tree merged nodes carry distinct
        path products and no adapted-field representation exists.  There M_k is
        the node's probability times 2**k, and a power of two scales exactly.
        """
        lat = self.lattice
        if lat.topology is not TreeTopology.FULL_BINARY:
            raise ValueError("density is path-dependent; build the measure on a "
                             "full binary tree to materialise it")
        return AdaptedField(lat, [p * 2.0**k for k, p in enumerate(self.node_probabilities())],
                            start=0)

    def node_probabilities(self) -> list[np.ndarray]:
        """Forward measure: probability of sitting at each node, step by step."""
        probs = [np.ones(1)]
        for k, p in enumerate(self.up_prob):
            probs.append(self.lattice.push(probs[k], 1.0 - p, p))
        return probs


def density_from_control(control: PredictableControl) -> MeasureChange:
    """Measure change with the multiplicative density M_{k+1} = M_k (1 + q dB).

    Exact on the lattice: E_Q[dB | F_k] = q*dt and M is a P-martingale with
    no discretisation bias.  Requires |q|*sqrt(dt) < 1 strictly, which is
    0 < p < 1 for p = (1 + q sqrt(dt))/2; `MeasureChange` raises at the first
    node where p leaves (0, 1) instead of clamping, since clamping would
    silently change the measure.  A control clipped to |q| <= b (the dual's) is
    admitted unscanned when p at q = -b and q = b is: rounding is monotone.
    """
    sdt = control.lattice.sqrt_dt

    def up(q):
        return (1.0 + q * sdt) * 0.5

    up_prob = _LazySteps(control.lattice.steps, lambda k: up(control[k]))
    if control._clip is None or not _inside(up(np.array([-control._clip, control._clip]))):
        return MeasureChange(control, up_prob)
    return MeasureChange._trusted(control, up_prob)


def expectation_under(measure: MeasureChange, field: AdaptedField, from_step: int) -> AdaptedField:
    """Iterated one-step conditional expectations of a single-step field.

    The tower property holds exactly (bitwise) because a two-stage evaluation
    performs the identical sequence of one-step averages.
    """
    if field.start != field.stop:
        raise ValueError("expectation_under expects a single-step field")
    t = field.start
    if not 0 <= from_step <= t:
        raise ValueError(f"conditioning step {from_step} outside [0, {t}]")
    sweep = measure.lattice.sweep(t, field[t].copy(), measure.one_step_expectation)
    return AdaptedField(measure.lattice, [next(v for k, v in sweep if k == from_step)],
                        start=from_step)


def between_masks(sigma: StoppingTime, tau: StoppingTime) -> Sequence[np.ndarray]:
    """Per-step indicators of the stochastic interval ]]sigma, tau]], each computed when read.

    The transition over (t_k, t_{k+1}] lies in the interval iff sigma <= k < tau;
    both events are readable off the step-k node, so the masks are predictable.
    """
    if not sigma.is_before(tau):
        raise ValueError("stochastic interval needs sigma <= tau pointwise")
    return _LazySteps(sigma.lattice.steps, lambda k: sigma.reached[k] & ~tau.reached[k])


def paste_controls(first: PredictableControl, second: PredictableControl,
                   sigma: StoppingTime, tau: StoppingTime) -> PredictableControl:
    """Control equal to `first` outside ]]sigma, tau]] and `second` inside."""
    masks = between_masks(sigma, tau)
    return first.map(lambda k, q: np.where(masks[k], second[k], q))


def truncate_control(control: PredictableControl, level: float) -> PredictableControl:
    """Gate the control at |q| <= level, zeroing it elsewhere."""
    if level < 0:
        raise ValueError("truncation level must be nonnegative")
    return control.map(lambda k, q: np.where(np.abs(q) <= level, q, 0.0))


def stop_control(control: PredictableControl, tau: StoppingTime) -> PredictableControl:
    """Keep the control on ]]0, tau]] and zero it afterwards."""
    return control.map(lambda k, q: np.where(tau.reached[k], 0.0, q))


def restrict_control(control: PredictableControl, masks: Sequence[np.ndarray]) -> PredictableControl:
    """Zero the control outside the predictable set given by per-step node masks."""
    masks = control.lattice.per_step(masks, 0, control.lattice.steps - 1, dtype=bool)
    return control.map(lambda k, q: np.where(masks[k], q, 0.0))
