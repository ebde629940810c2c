"""Adaptive detector wrappers: live resize via checkpoint-migrate.

The sketches in :mod:`repro.core` and :mod:`repro.adaptive.filters` are
sized once, at construction.  When live traffic drifts away from the
sizing assumptions — the estimated FP rate creeps past the paper's
bound, or a shrunken stream leaves most of the memory idle — the only
remedy is a *resize*: build a filter of the new size and warm it with
the recent past.

:class:`AdaptiveDetector` makes that remedy a method call.  It wraps
an inner detector built from a :class:`~repro.detection.DetectorSpec`
— count-based or time-based, taking the spec's time model — and
retains a bounded window of the most recent arrivals.
``migrate(new_spec)`` builds a fresh inner detector from ``new_spec``,
replays the retained window through it, and swaps it in — the wrapper
object (and therefore every reference held by pipelines, routers, and
instruments) survives the resize.  The wrapper natively implements the
full
:class:`~repro.detection.DetectorLifecycle` protocol
(``quiesce / checkpoint / migrate / resume``), so the supervised
pipeline, the parallel fleet, and the cluster router drive it through
the same four verbs they use for everything else.

Replay semantics are deliberately simple and testable: after
``migrate(new_spec)``, the wrapper's verdicts match a *fresh* detector
of ``new_spec`` that processed exactly the retained window (property-
tested).  Clicks older than the retained window are forgotten — the
same guarantee decay already gives them.

Checkpoints round-trip the whole assembly — wrapper bookkeeping,
retained window, spec, and the inner detector's bit-exact state — under
the ``"adaptive"`` (count-based) / ``"adaptive-timed"`` frame kinds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from functools import partial
from typing import Deque, Iterable, Optional

import numpy as np

from ..core.checkpoint import (
    CheckpointError,
    load_detector,
    pack_frame,
    register_checkpoint_kind,
    save_detector,
)
from ..detection.detector import (
    PARAMS_TYPES,
    TIME_BASED_ALGORITHMS,
    DetectorSpec,
    WindowSpec,
    create_detector,
)
from ..detection.api import bind_time_model, wrap_timed
from ..errors import ConfigurationError

__all__ = [
    "AdaptiveDetector",
    "spec_to_dict",
    "spec_from_dict",
]


def spec_to_dict(spec: DetectorSpec) -> dict:
    """Serialize a :class:`DetectorSpec` to a JSON-safe dict."""
    window = spec.window
    return {
        "algorithm": spec.algorithm,
        "window": {
            "kind": window.kind,
            "size": window.size,
            "num_subwindows": window.num_subwindows,
        },
        "memory_bits": spec.memory_bits,
        "target_fp": spec.target_fp,
        "num_hashes": spec.num_hashes,
        "seed": spec.seed,
        "duration": spec.duration,
        "resolution": spec.resolution,
        "shards": spec.shards,
        "engine": spec.engine,
        "params": None if spec.params is None else asdict(spec.params),
    }


def spec_from_dict(data: dict) -> DetectorSpec:
    """Rebuild the :class:`DetectorSpec` :func:`spec_to_dict` emitted."""
    window = data["window"]
    params = data.get("params")
    if params is not None:
        params_type = PARAMS_TYPES.get(data["algorithm"])
        if params_type is None:
            raise CheckpointError(
                f"checkpoint carries params for {data['algorithm']!r}, "
                "which takes none"
            )
        params = params_type(**params)
    return DetectorSpec(
        algorithm=data["algorithm"],
        window=WindowSpec(
            window["kind"], window["size"], window["num_subwindows"]
        ),
        memory_bits=data["memory_bits"],
        target_fp=data["target_fp"],
        num_hashes=data["num_hashes"],
        seed=data["seed"],
        duration=data["duration"],
        resolution=data["resolution"],
        shards=data["shards"],
        engine=data["engine"],
        params=params,
    )


def _timed(spec: DetectorSpec) -> bool:
    return spec.algorithm in TIME_BASED_ALGORITHMS


class AdaptiveDetector:
    """Resizable detector (see module docstring).

    The time model is the spec's: count-based specs give the
    ``process`` / ``process_batch`` / ``query`` surface, time-based
    specs ``process_at`` / ``process_batch_at`` / ``query_at`` and a
    retained window of ``(identifier, timestamp)`` pairs.

    Parameters
    ----------
    spec:
        The :class:`DetectorSpec` of the initial inner detector.
    retain:
        Replay-window length in clicks; defaults to ``spec.window.size``
        (the window the sketch guarantees anyway).
    """

    def __init__(
        self,
        spec: DetectorSpec,
        *,
        retain: Optional[int] = None,
        _inner=None,
        _buffer: Optional[Iterable[int]] = None,
        _times: Optional[Iterable[float]] = None,
    ) -> None:
        if retain is None:
            retain = spec.window.size
        if retain < 1:
            raise ConfigurationError(f"retain must be >= 1, got {retain}")
        self._spec = spec
        self.retain = retain
        self.inner = _inner if _inner is not None else create_detector(spec)
        self.timed = _timed(spec)
        self.migrations = 0
        self._quiesced = False
        #: Retained identifiers, and their timestamps when timed; both
        #: deques share ``retain`` so they stay aligned.
        self._buffer: Deque[int] = deque(
            (int(x) for x in (() if _buffer is None else _buffer)), maxlen=retain
        )
        self._times: Optional[Deque[float]] = (
            deque(
                (float(t) for t in (() if _times is None else _times)), maxlen=retain
            )
            if self.timed
            else None
        )
        bind_time_model(
            self, self.timed, self._process, self._process_batch, self._query
        )

    def _process(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        verdict = wrap_timed(self.inner).observe(identifier, timestamp)
        self._buffer.append(int(identifier))
        if self._times is not None:
            self._times.append(float(timestamp))
        return verdict

    def _process_batch(
        self, identifiers: np.ndarray, timestamps: Optional[np.ndarray] = None
    ) -> np.ndarray:
        verdicts = wrap_timed(self.inner).observe_batch(identifiers, timestamps)
        self._buffer.extend(int(x) for x in np.asarray(identifiers)[-self.retain :])
        if self._times is not None:
            self._times.extend(
                float(t) for t in np.asarray(timestamps)[-self.retain :]
            )
        return verdicts

    def _query(self, identifier: int, timestamp: Optional[float] = None) -> bool:
        if self.timed:
            return self.inner.query_at(identifier, timestamp)
        return self.inner.query(identifier)

    def _replay(self, fresh) -> None:
        if not self._buffer:
            return
        wrap_timed(fresh).observe_batch(
            np.fromiter(self._buffer, dtype=np.uint64),
            None if self._times is None else np.fromiter(self._times, dtype=np.float64),
        )

    def _check_spec(self, new_spec: DetectorSpec) -> None:
        if _timed(new_spec) is not self.timed:
            models = ("count-based", "time-based")
            raise ConfigurationError(
                f"cannot migrate a {models[self.timed]} adaptive detector to "
                f"the {models[not self.timed]} algorithm {new_spec.algorithm!r}"
            )

    # -- lifecycle ---------------------------------------------------

    def quiesce(self) -> None:
        """Stop background work so state is stable for checkpoint/migrate."""
        hook = getattr(self.inner, "quiesce", None)
        if hook is not None:
            hook()
        self._quiesced = True

    def resume(self) -> None:
        """Undo :meth:`quiesce`; the detector accepts traffic again."""
        hook = getattr(self.inner, "resume", None)
        if hook is not None:
            hook()
        self._quiesced = False

    def checkpoint(self) -> bytes:
        """Serialize wrapper + retained window + inner state to bytes."""
        return save_detector(self)

    # Supervised-pipeline compatibility: it snapshots via
    # ``checkpoint_state()`` when a detector offers one.
    def checkpoint_state(self) -> bytes:
        return save_detector(self)

    def migrate(self, new_spec: DetectorSpec) -> None:
        """Swap in a fresh detector of ``new_spec`` warmed by replay.

        After this returns, verdicts match a fresh ``new_spec`` detector
        that processed exactly the retained window.  The wrapper object
        itself is unchanged — references held elsewhere stay valid.
        """
        self._check_spec(new_spec)
        fresh = create_detector(new_spec)
        self._replay(fresh)
        self.inner = fresh
        self._spec = new_spec
        self.migrations += 1

    # -- shared surface ----------------------------------------------

    def spec(self) -> DetectorSpec:
        """The spec of the *current* inner detector."""
        inner_spec = getattr(self.inner, "spec", None)
        if inner_spec is not None:
            return inner_spec()
        return self._spec

    @property
    def memory_bits(self) -> int:
        return self.inner.memory_bits

    def theoretical_fp_bound(self) -> Optional[float]:
        from ..telemetry.instruments import theoretical_fp_bound

        return theoretical_fp_bound(self.inner)

    def estimated_fp_rate(self) -> Optional[float]:
        estimate = getattr(self.inner, "estimated_fp_rate", None)
        if estimate is not None:
            return estimate()
        gauges = self.inner.telemetry_snapshot().get("gauges", {})
        return gauges.get("estimated_fp_rate")

    def telemetry_snapshot(self) -> dict:
        snapshot_fn = getattr(self.inner, "telemetry_snapshot", None)
        snapshot = snapshot_fn() if snapshot_fn is not None else {}
        gauges = dict(snapshot.get("gauges", {}))
        gauges["retained_window"] = float(len(self._buffer))
        gauges["retain_limit"] = float(self.retain)
        counters = dict(snapshot.get("counters", {}))
        counters["migrations"] = self.migrations
        out = dict(snapshot)
        out["gauges"] = gauges
        out["counters"] = counters
        return out

    def __getattr__(self, name: str):
        # Fallback delegation for read-only surface (duplicates, query
        # helpers, counters).  Only called when normal lookup fails.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(inner={self.inner!r}, "
            f"retain={self.retain}, migrations={self.migrations})"
        )


# -- checkpointing ---------------------------------------------------


def _save_adaptive(detector: AdaptiveDetector) -> bytes:
    inner_blob = save_detector(detector.inner)
    ids = np.fromiter(detector._buffer, dtype=np.uint64)
    payload = ids.tobytes()
    if detector._times is not None:
        payload += np.fromiter(detector._times, dtype=np.float64).tobytes()
    header = {
        "kind": "adaptive-timed" if detector.timed else "adaptive",
        "spec": spec_to_dict(detector._spec),
        "retain": detector.retain,
        "migrations": detector.migrations,
        "buffer_len": int(ids.size),
    }
    return pack_frame(header, payload + inner_blob)


def _load_adaptive(header: dict, payload: bytes, timed: bool) -> AdaptiveDetector:
    buffer_len = int(header["buffer_len"])
    end = buffer_len * (16 if timed else 8)
    ids = np.frombuffer(payload[: buffer_len * 8], dtype=np.uint64)
    times = (
        np.frombuffer(payload[buffer_len * 8 : end], dtype=np.float64)
        if timed
        else None
    )
    if ids.size != buffer_len or (timed and times.size != buffer_len):
        raise CheckpointError(f"{header['kind']} checkpoint buffer truncated")
    spec = spec_from_dict(header["spec"])
    if _timed(spec) is not timed:
        raise CheckpointError(
            f"{header['kind']} checkpoint carries a spec of the other time model"
        )
    detector = AdaptiveDetector(
        spec,
        retain=int(header["retain"]),
        _inner=load_detector(payload[end:]),
        _buffer=ids,
        _times=times,
    )
    detector.migrations = int(header["migrations"])
    return detector


register_checkpoint_kind(
    "adaptive", AdaptiveDetector, _save_adaptive, partial(_load_adaptive, timed=False)
)
register_checkpoint_kind(
    "adaptive-timed",
    AdaptiveDetector,
    _save_adaptive,
    partial(_load_adaptive, timed=True),
)
