"""One field-driven JSON codec for every experiment spec and result.

The sweep runner (:mod:`repro.experiments.runner`) keys its cache by a
content hash of each spec and persists every finished run (see
``ResultCache``), so every spec and result type must round-trip
losslessly through JSON.  Instead of a hand-written codec per type,
:func:`encode` and :func:`decode` derive one from the dataclass itself:
the first use of a class compiles a plan from :func:`dataclasses.fields`
and :func:`typing.get_type_hints`, and later calls reuse it.  The field
type decides the JSON shape:

* tuples and lists become lists (and tuples again on decode);
* ``Optional[X]`` maps ``None`` to ``null``;
* ``Dict[int, X]`` keys become strings (JSON object keys are strings)
  and come back as ints;
* nested dataclasses become objects;
* ``np.ndarray`` becomes a list of floats;
* scalars and ``Any`` pass through unchanged.

A field declared with ``metadata={"omit_default": True}`` is left out
while it equals its default.  Fields added after results were first
cached use it, so older specs keep their canonical JSON and cache keys.

Four types keep a hand-written leaf codec:

* :class:`MetricsRecorder`: its event rows stay undecoded until first
  use (see :func:`split_rows`/:func:`join_rows`);
* :class:`FaultPlan` decodes through its validating builder methods,
  since ``repro fuzz --replay`` reads plans from outside the program;
* :class:`NetworkStats` decodes the legacy merged ``dropped_dead`` key;
* :class:`ManagerConfig` is polymorphic, tagged ``{"type", "fields"}``.

Python floats survive a JSON round-trip exactly, so a decoded result
re-encodes to byte-identical canonical JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from typing import Any, Callable, Dict, Optional, Tuple, Type, TypeVar, Union

import numpy as np

from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.instrumentation import PACKED_PREFIX, ROW_TYPES, MetricsRecorder, pack_rows
from repro.managers.base import ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.net.network import NetworkStats

T = TypeVar("T")

#: A compiled field codec; ``None`` stands for the identity.
Codec = Optional[Callable[[Any], Any]]

#: Every concrete manager-config class the harness can carry.  Order is
#: irrelevant; lookups go through the class name stored in the JSON.
CONFIG_TYPES: Dict[str, Type[ManagerConfig]] = {
    cls.__name__: cls
    for cls in (ManagerConfig, PenelopeConfig, SlurmConfig, HaSlurmConfig)
}

_SCALARS = (int, float, str, bool, type(None))
_UNIONS = (Union, types.UnionType)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    Used both for cache files and for the spec fingerprint, so two equal
    objects always produce identical bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj: Any) -> str:
    """Hex digest of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- the codec -----------------------------------------------------------------

_ENCODERS: Dict[Type[Any], Callable[[Any], Any]] = {}
_DECODERS: Dict[Any, Callable[[Any], Any]] = {}

#: Marks a field that is always emitted (no ``omit_default`` metadata).
_KEEP = object()


def encode(obj: Any) -> Any:
    """The JSON-safe form of ``obj``, chosen by its runtime type."""
    cls = type(obj)
    try:
        encoder = _ENCODERS[cls]
    except KeyError:
        encoder = _ENCODERS[cls] = _type_encoder(cls)
    return encoder(obj)


def decode(cls: Type[T], data: Any) -> T:
    """Inverse of :func:`encode`: rebuild a ``cls`` from its JSON form.

    ``cls`` may also be any type hint a field can carry (``Optional[X]``,
    ``List[X]``, ...).  Keys missing from ``data`` take field defaults.
    """
    try:
        decoder = _DECODERS[cls]
    except KeyError:
        decoder = _DECODERS[cls] = _hint_decoder(cls) or _identity
    result: T = decoder(data)
    return result


def _identity(value: Any) -> Any:
    return value


def _leaf(cls: Type[Any], table: Dict[Type[Any], Callable[[Any], Any]]) -> Codec:
    for base, codec in table.items():
        if issubclass(cls, base):
            return codec
    return None


def _type_encoder(cls: Type[Any]) -> Callable[[Any], Any]:
    leaf = _leaf(cls, _LEAF_ENCODERS)
    if leaf is not None:
        return leaf
    if dataclasses.is_dataclass(cls):
        return _dataclass_encoder(cls)
    if issubclass(cls, np.ndarray):
        return np.ndarray.tolist
    return _identity


def _omitted_default(f: "dataclasses.Field[Any]") -> Any:
    """The value ``f`` is left out at, or ``_KEEP``."""
    if not f.metadata.get("omit_default"):
        return _KEEP
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def _dataclass_encoder(cls: Any) -> Callable[[Any], Dict[str, Any]]:
    hints = typing.get_type_hints(cls)
    plan = [
        (f.name, _hint_encoder(hints[f.name]), _omitted_default(f))
        for f in dataclasses.fields(cls)
    ]

    def encode_fields(obj: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, codec, default in plan:
            value = getattr(obj, name)
            if default is not _KEEP and value == default:
                continue
            out[name] = value if codec is None else codec(value)
        return out

    return encode_fields


def _dataclass_decoder(cls: Any) -> Callable[[Dict[str, Any]], Any]:
    hints = typing.get_type_hints(cls)
    plan = [
        (f.name, _hint_decoder(hints[f.name]))
        for f in dataclasses.fields(cls)
        if f.init
    ]

    def decode_fields(data: Dict[str, Any]) -> Any:
        kwargs: Dict[str, Any] = {}
        for name, codec in plan:
            if name in data:
                value = data[name]
                kwargs[name] = value if codec is None else codec(value)
        return cls(**kwargs)

    return decode_fields


def _hint_encoder(hint: Any) -> Codec:
    if hint is Any or hint in _SCALARS:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        inner = _optional_inner(args, _hint_encoder)
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple and args and args[-1] is not Ellipsis:
        codecs = [_hint_encoder(arg) for arg in args]
        if not any(codecs):
            return list
        return lambda value: [
            item if codec is None else codec(item)
            for codec, item in zip(codecs, value)
        ]
    if origin in (tuple, list):
        item_codec = _hint_encoder(args[0]) if args else None
        if item_codec is None:
            return list
        return lambda value: [item_codec(item) for item in value]
    if origin is dict:
        key: Callable[[Any], Any] = str if args[0] is int else _identity
        value_codec = _hint_encoder(args[1])
        if key is _identity and value_codec is None:
            return dict
        return lambda value: {
            key(k): v if value_codec is None else value_codec(v)
            for k, v in value.items()
        }
    return encode


def _hint_decoder(hint: Any) -> Codec:
    if hint is Any or hint in _SCALARS:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        inner = _optional_inner(args, _hint_decoder)
        if inner is None:
            return None
        return lambda data: None if data is None else inner(data)
    if origin is tuple and args and args[-1] is not Ellipsis:
        codecs = [_hint_decoder(arg) for arg in args]
        if not any(codecs):
            return tuple
        return lambda data: tuple(
            item if codec is None else codec(item)
            for codec, item in zip(codecs, data)
        )
    if origin in (tuple, list):
        item_codec = _hint_decoder(args[0]) if args else None
        collect: Callable[[Any], Any] = tuple if origin is tuple else list
        if item_codec is None:
            return collect
        return lambda data: collect(item_codec(item) for item in data)
    if origin is dict:
        key: Callable[[Any], Any] = int if args[0] is int else _identity
        value_codec = _hint_decoder(args[1])
        if key is _identity and value_codec is None:
            return dict
        return lambda data: {
            key(k): v if value_codec is None else value_codec(v)
            for k, v in data.items()
        }
    if not isinstance(hint, type):
        return None
    leaf = _leaf(hint, _LEAF_DECODERS)
    if leaf is not None:
        return leaf
    if dataclasses.is_dataclass(hint):
        return _dataclass_decoder(hint)
    if issubclass(hint, np.ndarray):
        return np.array
    return None


def _optional_inner(
    args: Tuple[Any, ...], compile_hint: Callable[[Any], Codec]
) -> Codec:
    rest = [arg for arg in args if arg is not type(None)]
    if len(rest) != 1:
        raise TypeError(f"no codec for a union of {rest!r}")
    return compile_hint(rest[0])


# -- leaf codecs ---------------------------------------------------------------


def _encode_config(config: ManagerConfig) -> Dict[str, Any]:
    name = type(config).__name__
    if CONFIG_TYPES.get(name) is not type(config):
        raise TypeError(f"unregistered manager config type {name!r}")
    return {"type": name, "fields": _config_fields[name][0](config)}


def _decode_config(data: Dict[str, Any]) -> ManagerConfig:
    config: ManagerConfig = _config_fields[data["type"]][1](data["fields"])
    return config


_config_fields = {
    name: (_dataclass_encoder(cls), _dataclass_decoder(cls))
    for name, cls in CONFIG_TYPES.items()
}


def _decode_fault_plan(data: Dict[str, Any]) -> FaultPlan:
    # Through the builders, so a hand-written repro file is validated;
    # absent categories (plans cached before they existed) stay empty.
    plan = FaultPlan()
    for node_id, at in data.get("node_kills", []):
        plan.kill(int(node_id), at)
    for isolated, at, heal in data.get("partitions", []):
        plan.partition([int(i) for i in isolated], at, heal)
    for node_id, at in data.get("restarts", []):
        plan.restart(int(node_id), at)
    for isolated, at, down, up, cycles in data.get("flaps", []):
        plan.flap([int(i) for i in isolated], at, down, up, int(cycles))
    for probability, at, duration in data.get("loss_bursts", []):
        plan.loss_burst(probability, at, duration)
    for probability, at, duration in data.get("duplicate_bursts", []):
        plan.duplicate_burst(probability, at, duration)
    for window, at, duration in data.get("reorder_bursts", []):
        plan.reorder_burst(window, at, duration)
    for node_id, rate, at in data.get("clock_drifts", []):
        plan.clock_drift(int(node_id), rate, at)
    for node_id, factor, at, duration in data.get("slow_nodes", []):
        plan.slow_node(int(node_id), factor, at, duration)
    return plan


def _decode_network_stats(data: Dict[str, Any]) -> NetworkStats:
    if "dropped_dead_src" not in data:
        # Legacy cache files predate the send-time/arrival-time split and
        # carry only the merged counter; the breakdown is unrecoverable, so
        # attribute it to the send side -- ``dropped`` and ``dropped_dead``
        # aggregates stay exact either way.
        data = {**data, "dropped_dead_src": data["dropped_dead"]}
    stats: NetworkStats = _network_stats_fields(data)
    return stats


_network_stats_fields = _dataclass_decoder(NetworkStats)


# Events are stored as flat rows (arrays) rather than objects: a paper-sized
# run records tens of thousands of them, and the field names would dominate
# the file size.  A cache file packs them into columns instead (see
# ``split_rows``); either way they are decoded lazily (see
# ``MetricsRecorder``).


def _encode_recorder(recorder: MetricsRecorder) -> Dict[str, Any]:
    return {
        "record_caps": recorder._record_caps,
        **recorder.row_tables(),
        "counters": dict(recorder.counters),
    }


def _decode_recorder(data: Dict[str, Any]) -> MetricsRecorder:
    # The rows are either inline (e.g. a journal record) or, from a cache
    # file, the verified packed body under "rows" (see join_rows).
    return MetricsRecorder.from_rows(
        record_caps=data["record_caps"],
        counters={str(k): int(v) for k, v in data["counters"].items()},
        rows=data["rows"] if "rows" in data else data,
    )


_LEAF_ENCODERS: Dict[Type[Any], Callable[[Any], Any]] = {
    ManagerConfig: _encode_config,
    MetricsRecorder: _encode_recorder,
}
_LEAF_DECODERS: Dict[Type[Any], Callable[[Any], Any]] = {
    ManagerConfig: _decode_config,
    MetricsRecorder: _decode_recorder,
    FaultPlan: _decode_fault_plan,
    NetworkStats: _decode_network_stats,
}

#: Called by name from ``bench/`` (the kernel-10k digest).
network_stats_to_dict = encode


def split_rows(result: Dict[str, Any]) -> bytes:
    """Move the row tables of ``result``'s top-level recorder into a body.

    ``result`` is an encoded result; its ``"recorder"`` loses its row
    tables, returned as a packed body (:func:`~repro.instrumentation.pack_rows`:
    a JSON head line, then little-endian columns).  A result without a
    recorder has the empty body.
    """
    recorder = result.get("recorder")
    if recorder is None:
        return b""
    return pack_rows({table: recorder.pop(table) for table in ROW_TYPES})


def join_rows(result: Dict[str, Any], body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`split_rows`: hand ``body``, unparsed, to the recorder.

    A body that is not a packed one -- the JSON-text layout earlier
    cache files used included -- raises ``ValueError``, so the cache
    reports a miss and the re-run rewrites the file.
    """
    recorder = result.get("recorder")
    if recorder is None:
        if body:
            raise ValueError("row body for a result without a recorder")
    elif not body.startswith(PACKED_PREFIX):
        raise ValueError("row body is not in the packed layout")
    else:
        recorder["rows"] = body
    return result
