"""Gym-style design-space exploration over the declared knob registry.

:class:`TuningEnv` is the single evaluation surface: an *action* is a
flat knob assignment (a subset of the declared names), ``step()`` builds
the configured stack through :func:`~repro.tuning.build_pipeline`,
prices the chosen workload on the analytic GPU simulator, and returns a
scalar reward.  Everything is deterministic — the simulator is analytic
and recordings are cached — so the same episode replays bit-identically,
and every evaluation lands in a per-env cache keyed by the canonical
assignment (searchers revisit points for free).

Rewards (maximized):

* ``latency`` — negative simulated wall-clock microseconds.
* ``throughput_per_gb`` — priced operations per second per GB of the
  recording's peak live ciphertext pool (the serving layer's admission
  currency), i.e. throughput normalized by HBM working-set.

Workloads:

* ``boot`` — the recorded slim bootstrap on the Table XIII Boot chain
  (the co-design point ``benchmarks/bench_gym.py`` searches against the
  hand-picked :data:`~repro.workloads.recorded.RECORDED_BOOT_CONFIG`).
* ``helr`` / ``resnet`` — recorded HELR iteration / ResNet block.
* ``op:<name>`` — one homomorphic operation (``op:hmult``, ...) priced
  straight from the scheduler; cheap enough for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..tuning.config import Pipeline, TuningConfig, build_pipeline
from ..tuning.knobs import all_knobs, knob

__all__ = ["TuningEnv", "Trajectory", "TrajectoryPoint",
           "DEFAULT_SEARCH_KNOBS"]

#: The semantics-preserving co-design knobs searched by default: they
#: change *how* the bootstrap is computed and priced, never the message
#: precision it delivers (searching ``boot.sine_degree`` down would
#: "win" by doing less numerical work — not a legal trade).
DEFAULT_SEARCH_KNOBS: Tuple[str, ...] = (
    "recorded.fuse",
    "ntt.variant",
    "geometry.threads_per_block",
    "dagopt.optimize",
)

#: Bytes per residue word at lowering (matches repro.core.kernels).
_WORD_BYTES = 4

#: Canonical Table XIII parameter set per recorded workload — the chain
#: must carry enough levels for the workload's own bootstrap, which the
#: registry's SET-C default does not.
_WORKLOAD_SETS = {"boot": "Boot", "helr": "HELR", "resnet": "ResNet"}


@dataclass(frozen=True)
class TrajectoryPoint:
    """One priced evaluation inside an episode."""

    step: int
    assignment: Dict[str, Any]
    reward: float
    latency_us: float
    hbm_gb: float
    cached: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step, "assignment": dict(self.assignment),
            "reward": self.reward, "latency_us": self.latency_us,
            "hbm_gb": self.hbm_gb, "cached": self.cached,
        }


@dataclass
class Trajectory:
    """Full episode log: every evaluation plus the running best.

    ``base`` snapshots the effective unsearched-knob assignment the
    episode ran under (parameter set, machine model, ...), so
    a logged trajectory is replayable without guessing defaults.
    """

    workload: str
    objective: str
    seed: Optional[int] = None
    base: Dict[str, Any] = field(default_factory=dict)
    points: List[TrajectoryPoint] = field(default_factory=list)

    @property
    def best(self) -> Optional[TrajectoryPoint]:
        return max(self.points, key=lambda p: p.reward, default=None)

    def best_curve(self) -> List[float]:
        """Best-so-far reward after each step (the plotted fitness)."""
        curve, best = [], float("-inf")
        for p in self.points:
            best = max(best, p.reward)
            curve.append(best)
        return curve

    def to_dict(self) -> Dict[str, Any]:
        best = self.best
        return {
            "workload": self.workload, "objective": self.objective,
            "seed": self.seed, "base": dict(self.base),
            "points": [p.to_dict() for p in self.points],
            "best": best.to_dict() if best else None,
        }


class TuningEnv:
    """Deterministic pricing environment over the knob registry.

    Parameters
    ----------
    workload:
        ``boot`` | ``helr`` | ``resnet`` | ``op:<name>``.
    objective:
        ``latency`` | ``throughput_per_gb``.
    knobs:
        Names the environment exposes as its action space (default:
        :data:`DEFAULT_SEARCH_KNOBS`).  Actions may assign any subset.
    base:
        Config every action is overlaid on (default: all-defaults, which
        for ``boot`` is exactly the hand-picked recording).
    """

    def __init__(self, workload: str = "boot", *,
                 objective: str = "latency",
                 knobs: Optional[Tuple[str, ...]] = None,
                 base: Optional[TuningConfig] = None):
        if objective not in ("latency", "throughput_per_gb"):
            raise ValueError(
                f"unknown objective {objective!r}; "
                "one of ('latency', 'throughput_per_gb')"
            )
        if not (workload in ("boot", "helr", "resnet")
                or workload.startswith("op:")):
            raise ValueError(
                f"unknown workload {workload!r}; "
                "'boot' | 'helr' | 'resnet' | 'op:<name>'"
            )
        self.workload = workload
        self.objective = objective
        self.knob_names: Tuple[str, ...] = tuple(
            knobs if knobs is not None else DEFAULT_SEARCH_KNOBS
        )
        for name in self.knob_names:
            knob(name)  # raise UnknownKnob early
        if base is not None:
            self.base = base
        else:
            params_set = _WORKLOAD_SETS.get(workload)
            self.base = (TuningConfig({"params.set": params_set})
                         if params_set else TuningConfig())
        self._cache: Dict[Tuple[Tuple[str, Any], ...],
                          Tuple[float, float]] = {}
        self.trajectory = Trajectory(workload, objective,
                                     base=self._base_snapshot())
        self._step = 0

    def _base_snapshot(self) -> Dict[str, Any]:
        """Effective value of every *unsearched* knob, so logs show what
        the episode ran under."""
        return {name: value
                for name, value in self.base.effective().items()
                if name not in self.knob_names}

    # -- gym surface -------------------------------------------------------

    def space(self) -> Dict[str, Tuple[Any, ...]]:
        """Action space: searched knob name -> finite candidate grid."""
        specs = all_knobs()
        return {name: specs[name].domain.points()
                for name in self.knob_names}

    def default_assignment(self) -> Dict[str, Any]:
        """The baseline action: every searched knob at its registry
        default (for ``boot`` this *is* the hand-picked recording)."""
        specs = all_knobs()
        return {name: specs[name].resolve_default()
                for name in self.knob_names}

    def reset(self, seed: Optional[int] = None) -> Dict[str, Any]:
        """Start a fresh episode (the evaluation cache survives — the
        simulator is deterministic, so cached points stay valid)."""
        self.trajectory = Trajectory(self.workload, self.objective,
                                     seed=seed,
                                     base=self._base_snapshot())
        self._step = 0
        return self.default_assignment()

    def step(self, assignment: Dict[str, Any]
             ) -> Tuple[Dict[str, Any], float, Dict[str, Any]]:
        """Price one knob assignment.

        Returns ``(assignment, reward, info)`` gym-style; ``info``
        carries ``latency_us``, ``hbm_gb`` and ``cached``.  The episode
        never terminates — budget is the searcher's concern.
        """
        cfg = self.base.replace(**assignment)
        key = cfg.key()
        cached = key in self._cache
        if cached:
            latency_us, hbm_gb = self._cache[key]
        else:
            latency_us, hbm_gb = self._evaluate(cfg)
            self._cache[key] = (latency_us, hbm_gb)
        reward = self._reward(cfg, latency_us, hbm_gb)
        point = TrajectoryPoint(
            step=self._step, assignment=dict(assignment), reward=reward,
            latency_us=latency_us, hbm_gb=hbm_gb, cached=cached,
        )
        self.trajectory.points.append(point)
        self._step += 1
        info = {"latency_us": latency_us, "hbm_gb": hbm_gb,
                "cached": cached}
        return dict(assignment), reward, info

    # -- pricing -----------------------------------------------------------

    def _reward(self, cfg: TuningConfig, latency_us: float,
                hbm_gb: float) -> float:
        if self.objective == "latency":
            return -latency_us
        ops_per_s = cfg["serving.batch"] / (latency_us * 1e-6)
        return ops_per_s / max(hbm_gb, 1e-9)

    def _evaluate(self, cfg: TuningConfig) -> Tuple[float, float]:
        pipe = build_pipeline(cfg)
        if self.workload.startswith("op:"):
            return self._evaluate_op(pipe)
        return self._evaluate_recorded(pipe)

    def _evaluate_op(self, pipe: Pipeline) -> Tuple[float, float]:
        op = self.workload[len("op:"):]
        result = pipe.scheduler.simulate(op, batch=pipe.batch)
        # Working set of one op: batch (c0, c1) ciphertexts at top level.
        hbm_gb = (pipe.batch
                  * pipe.params.ciphertext_bytes()) / 1e9
        return result.elapsed_us, hbm_gb

    def _evaluate_recorded(self, pipe: Pipeline) -> Tuple[float, float]:
        from ..trace.opt import trace_pool_peak_rows
        from ..workloads import recorded

        cfg = pipe.config
        if self.workload == "boot":
            trace = recorded.record_bootstrap_trace(
                pipe.params,
                proxy_log2n=cfg["recorded.proxy_log2n"],
                fuse=cfg["recorded.fuse"],
                sine_degree=cfg["boot.sine_degree"],
            )
        elif self.workload == "helr":
            trace = recorded.record_helr_iteration_trace(pipe.params)
        else:
            trace = recorded.record_resnet_block_trace(pipe.params)
        dag = recorded._lower_for(
            trace, pipe.scheduler, style=pipe.style, batch=pipe.batch,
            optimize=pipe.optimize, search=pipe.search,
        )
        latency_us = dag.run(pipe.device).elapsed_us
        hbm_gb = (trace_pool_peak_rows(trace) * pipe.params.n
                  * pipe.batch * _WORD_BYTES) / 1e9
        return latency_us, hbm_gb
