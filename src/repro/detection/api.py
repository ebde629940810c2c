"""The unified detector protocol: one API over all seven variants.

Seven detector variants have grown in this library — :class:`GBFDetector`
and :class:`TBFDetector` (count-based), their time-based twins,
:class:`TBFJumpingDetector`, the in-process sharded detectors, and the
multi-process parallel engines — and each grew its call surface
organically.  This module pins the blessed surface down as two
runtime-checkable Protocols so pipelines, servers, and supervisors can
depend on *shape* instead of concrete classes:

:class:`Detector`
    Count-based windows: ``process`` / ``process_batch`` plus the
    operational trio ``checkpoint_state`` / ``telemetry_snapshot`` /
    ``memory_bits``.
:class:`TimedDetector`
    Time-based windows: ``process_at`` / ``process_batch_at`` plus the
    same operational trio (the caller's clock travels with each click).

Because half the variants take a timestamp and half do not, one more
layer makes them interchangeable: :func:`wrap_timed` adapts *any*
detector — either protocol, or legacy objects exposing only
``process``/``process_at`` — into a :class:`TimedAdapter` driven through
a single ``observe(identifier, timestamp)`` surface.  Count-based
detectors ignore the timestamp; time-based detectors require it.  The
:class:`~repro.detection.pipeline.DetectionPipeline` and the network
server (:mod:`repro.serve`) both depend only on this adapter.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Detector",
    "TimedDetector",
    "TimedAdapter",
    "wrap_timed",
    "is_timed",
    "fleet_timed",
    "bind_time_model",
    "batch_arrays",
    "DetectorLifecycle",
    "LifecycleAdapter",
    "as_lifecycle",
]


@runtime_checkable
class Detector(Protocol):
    """Count-based duplicate detector: the window advances per arrival.

    The scalar/batch pairs are bit-identical by construction: a
    ``process_batch`` call leaves the detector in exactly the state a
    scalar ``process`` loop over the same identifiers would, and
    returns the same verdicts (property-tested in
    ``tests/test_batch_equivalence.py``).
    """

    def process(self, identifier: int) -> bool:
        """Observe one element; ``True`` means duplicate (do not bill)."""
        ...

    def process_batch(self, identifiers: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`process` over a 1-D uint64 array."""
        ...

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (``repro.core.load_detector`` inverts)."""
        ...

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Health gauges/counters for :mod:`repro.telemetry.instruments`."""
        ...

    @property
    def memory_bits(self) -> int:
        """Total bits of summary-structure state."""
        ...


@runtime_checkable
class TimedDetector(Protocol):
    """Time-based duplicate detector: the caller's clock drives expiry.

    Timestamps must be non-decreasing; the same scalar/batch
    bit-identity contract as :class:`Detector` applies.
    """

    def process_at(self, identifier: int, timestamp: float) -> bool:
        """Observe one element at ``timestamp``; ``True`` means duplicate."""
        ...

    def process_batch_at(
        self, identifiers: "np.ndarray", timestamps: "np.ndarray"
    ) -> "np.ndarray":
        """Vectorized :meth:`process_at` over parallel 1-D arrays."""
        ...

    def checkpoint_state(self) -> bytes:
        """Serialized sketch state (``repro.core.load_detector`` inverts)."""
        ...

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Health gauges/counters for :mod:`repro.telemetry.instruments`."""
        ...

    @property
    def memory_bits(self) -> int:
        """Total bits of summary-structure state."""
        ...


def is_timed(detector: Any) -> bool:
    """Does ``detector`` consume explicit timestamps (``process_at``)?

    Count-based surfaces win when both are present (none of the library
    variants expose both, but a custom object could).
    """
    if hasattr(detector, "process"):
        return False
    return hasattr(detector, "process_at")


def fleet_timed(detectors: Any) -> bool:
    """The one time model a group of wrapped detectors shares.

    Wrappers (sharded fleets, cluster slices) take their time model from
    the detectors they hold, so mixing count-based and time-based
    detectors in one wrapper is a configuration error.
    """
    models = {is_timed(detector) for detector in detectors}
    if len(models) > 1:
        raise ConfigurationError(
            "cannot mix count-based and time-based detectors in one wrapper"
        )
    return models == {True}


#: The names a wrapper's paths are bound under, per time model.
_SURFACES = {
    False: ("process", "process_batch", "query"),
    True: ("process_at", "process_batch_at", "query_at"),
}


def bind_time_model(
    wrapper: Any, timed: bool, scalar: Any, batch: Any, query: Any
) -> None:
    """Expose a wrapper's paths under the names of its time model.

    A wrapper writes one scalar path ``scalar(identifier,
    timestamp=None)``, one batch path ``batch(identifiers,
    timestamps=None)`` and one ``query(identifier, timestamp=None)``,
    and binds them on the *instance* as ``process`` / ``process_batch``
    / ``query`` (count-based) or ``process_at`` / ``process_batch_at`` /
    ``query_at`` (time-based).  Nothing is bound on the class, so
    :func:`is_timed`, the :class:`Detector` / :class:`TimedDetector`
    protocols and every ``hasattr`` probe see the same surface the
    wrapped detectors expose.  A ``None`` path leaves its name unbound.
    """
    for name, method in zip(_SURFACES[timed], (scalar, batch, query)):
        if method is not None:
            setattr(wrapper, name, method)


def batch_arrays(
    identifiers: Any, timestamps: Any, timed: bool
) -> "tuple[np.ndarray, Optional[np.ndarray]]":
    """Validated ``(uint64 ids, float64 timestamps or None)`` for a batch.

    Count-based batches drop ``timestamps``; time-based batches need one
    timestamp per identifier.
    """
    identifiers = np.asarray(identifiers, dtype=np.uint64)
    if identifiers.ndim != 1:
        raise ValueError(f"identifiers must be 1-D, got {identifiers.ndim}-D")
    if not timed:
        return identifiers, None
    if timestamps is None:
        raise ConfigurationError("a time-based batch needs timestamps")
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if timestamps.shape != identifiers.shape:
        raise ValueError(
            f"timestamps shape {timestamps.shape} != identifiers "
            f"shape {identifiers.shape}"
        )
    return identifiers, timestamps


class TimedAdapter:
    """Drive any detector through ``observe(identifier, timestamp)``.

    The adapter normalizes the count-based/time-based split: callers
    always pass the click's timestamp, and the adapter forwards it to
    time-based detectors or drops it for count-based ones.  Verdicts are
    exactly the wrapped detector's — the adapter holds no state beyond
    the bound methods, so ``observe``/``observe_batch`` interleave
    freely with native calls.

    Detectors without a vectorized batch method (some baselines) get a
    scalar fallback loop in :meth:`observe_batch`; verdicts are
    identical either way.
    """

    __slots__ = ("base", "timed", "_scalar", "_batch")

    def __init__(self, base: Any) -> None:
        self.base = base
        self.timed = is_timed(base)
        if self.timed:
            self._scalar = base.process_at
            self._batch = getattr(base, "process_batch_at", None)
        else:
            self._scalar = getattr(base, "process", None)
            self._batch = getattr(base, "process_batch", None)
        if self._scalar is None:
            raise ConfigurationError(
                f"{type(base).__name__} exposes neither process() nor "
                "process_at(); nothing to adapt"
            )

    def observe(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        """Observe one element; ``True`` means duplicate.

        ``timestamp`` is required when the wrapped detector is
        time-based and ignored when it is count-based.
        """
        if not self.timed:
            return self._scalar(identifier)
        if timestamp is None:
            raise ConfigurationError(
                f"{type(self.base).__name__} is time-based; observe() "
                "needs a timestamp"
            )
        return self._scalar(identifier, timestamp)

    def observe_batch(
        self,
        identifiers: "np.ndarray",
        timestamps: Optional["np.ndarray"] = None,
    ) -> "np.ndarray":
        """Vectorized :meth:`observe` over parallel arrays."""
        identifiers = np.asarray(identifiers, dtype=np.uint64)
        if not self.timed:
            if self._batch is not None:
                return self._batch(identifiers)
            scalar = self._scalar
            return np.fromiter(
                (scalar(int(identifier)) for identifier in identifiers),
                dtype=bool,
                count=identifiers.shape[0],
            )
        if timestamps is None:
            raise ConfigurationError(
                f"{type(self.base).__name__} is time-based; observe_batch() "
                "needs timestamps"
            )
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if self._batch is not None:
            return self._batch(identifiers, timestamps)
        scalar = self._scalar
        return np.fromiter(
            (
                scalar(int(identifier), float(timestamp))
                for identifier, timestamp in zip(identifiers, timestamps)
            ),
            dtype=bool,
            count=identifiers.shape[0],
        )

    def checkpoint_state(self) -> bytes:
        """The wrapped detector's serialized state."""
        method = getattr(self.base, "checkpoint_state", None)
        if method is not None:
            return method()
        from ..core.checkpoint import save_detector

        return save_detector(self.base)

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """The wrapped detector's snapshot (``{}`` when it has none)."""
        method = getattr(self.base, "telemetry_snapshot", None)
        return method() if method is not None else {}

    @property
    def memory_bits(self) -> int:
        return self.base.memory_bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "timed" if self.timed else "counted"
        return f"TimedAdapter({type(self.base).__name__}, {kind})"


def wrap_timed(detector: Any) -> TimedAdapter:
    """Adapt ``detector`` to the unified ``observe`` surface.

    Idempotent: an adapter passes through unchanged, so pipelines can
    wrap unconditionally.
    """
    if isinstance(detector, TimedAdapter):
        return detector
    return TimedAdapter(detector)


@runtime_checkable
class DetectorLifecycle(Protocol):
    """The one lifecycle every operational flow drives.

    Three flows grew their own ad-hoc variants of the same dance —
    supervised restore (:mod:`repro.resilience.supervisor`), parallel
    fleet checkpointing (:mod:`repro.parallel.engine`), and cluster
    rebalancing (:mod:`repro.cluster.local`).  This protocol names the
    four steps they share so controllers (notably
    :class:`repro.adaptive.controller.AdaptiveController`) can run
    *quiesce → checkpoint → migrate(new_spec) → resume* against any of
    them without knowing which tier they are talking to.
    """

    def quiesce(self) -> None:
        """Drain in-flight work; afterwards state is stable to read."""
        ...

    def checkpoint(self) -> bytes:
        """Serialized state (``repro.core.load_detector`` inverts)."""
        ...

    def migrate(self, new_spec: Any) -> None:
        """Reconfigure in place to ``new_spec``, carrying state over."""
        ...

    def resume(self) -> None:
        """Leave the quiesced state and accept traffic again."""
        ...


class LifecycleAdapter:
    """Give a plain detector the :class:`DetectorLifecycle` surface.

    Plain detectors are synchronous — every call returns with state
    settled — so ``quiesce``/``resume`` delegate when the detector has
    them (sharded/parallel tiers) and are no-ops otherwise, and
    ``checkpoint`` rides the registry.  ``migrate`` delegates too;
    a detector with no native migrate cannot carry state across a
    reconfiguration by itself — wrap it in
    :class:`repro.adaptive.lifecycle.AdaptiveDetector`, which replays a
    bounded retained window, to get one.
    """

    __slots__ = ("base",)

    def __init__(self, base: Any) -> None:
        self.base = base

    def quiesce(self) -> None:
        method = getattr(self.base, "quiesce", None)
        if method is not None:
            method()

    def checkpoint(self) -> bytes:
        method = getattr(self.base, "checkpoint_state", None)
        if method is not None:
            return method()
        from ..core.checkpoint import save_detector

        return save_detector(self.base)

    def migrate(self, new_spec: Any) -> None:
        method = getattr(self.base, "migrate", None)
        if method is None:
            raise ConfigurationError(
                f"{type(self.base).__name__} has no native migrate; wrap it "
                "in repro.adaptive.lifecycle.AdaptiveDetector to migrate "
                "with bounded replay"
            )
        method(new_spec)

    def resume(self) -> None:
        method = getattr(self.base, "resume", None)
        if method is not None:
            method()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LifecycleAdapter({type(self.base).__name__})"


def as_lifecycle(detector: Any) -> DetectorLifecycle:
    """The :class:`DetectorLifecycle` view of any detector.

    Objects already exposing the full surface (sharded tiers, parallel
    engines, clusters, adaptive wrappers) pass through unchanged;
    everything else is wrapped in a :class:`LifecycleAdapter`.
    """
    if isinstance(detector, DetectorLifecycle):
        return detector
    return LifecycleAdapter(detector)
