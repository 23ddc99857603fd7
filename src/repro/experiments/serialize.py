"""JSON (de)serialization for run specs and results.

The parallel sweep runner (:mod:`repro.experiments.runner`) persists every
completed run as one two-line JSON file (see ``ResultCache``) under its
cache directory, keyed by a stable content hash of the spec.  That
requires :class:`RunSpec` and :class:`RunResult` -- including the
polymorphic manager configs, fault plans, the full
:class:`MetricsRecorder` event log, :class:`BudgetAudit` and
:class:`NetworkStats` -- to round-trip losslessly through JSON.

Python floats survive a JSON round-trip exactly (``json`` emits the
shortest repr that parses back to the same float), so a decoded result
re-serializes to byte-identical canonical JSON -- the property the
determinism tests pin down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, Type

from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments.harness import RunResult, RunSpec
from repro.experiments.journal import TaskFailure
from repro.instrumentation import ROW_TYPES, MetricsRecorder
from repro.managers.base import BudgetAudit, ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.membership.messages import (
    MembershipAck,
    MembershipGossip,
    MembershipPing,
    MembershipPingReq,
)
from repro.net.messages import (
    Addr,
    ExcessReport,
    GrantAck,
    MembershipUpdate,
    Message,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)
from repro.net.network import NetworkStats

#: Every concrete manager-config class the harness can carry.  Order is
#: irrelevant; lookups go through the class name stored in the JSON.
CONFIG_TYPES: Dict[str, Type[ManagerConfig]] = {
    cls.__name__: cls
    for cls in (ManagerConfig, PenelopeConfig, SlurmConfig, HaSlurmConfig)
}

#: Every wire message type, keyed by class name (= ``Message.kind``).
#: The whole-program lint rule R9 checks this table against the message
#: classes declared in ``net/messages.py`` / ``membership/messages.py``:
#: a type missing here cannot cross a process boundary in the ROADMAP's
#: real-substrate and federated modes.
MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.__name__: cls
    for cls in (
        PowerRequest,
        PowerGrant,
        GrantAck,
        ExcessReport,
        ReleaseDirective,
        MembershipPing,
        MembershipPingReq,
        MembershipAck,
        MembershipGossip,
    )
}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    Used both for cache files and for the spec fingerprint, so two equal
    objects always produce identical bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj: Any) -> str:
    """Hex digest of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- manager configs ---------------------------------------------------------


def config_to_dict(config: ManagerConfig) -> Dict[str, Any]:
    name = type(config).__name__
    if name not in CONFIG_TYPES:
        raise TypeError(f"unregistered manager config type {name!r}")
    fields = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = list(value)
        fields[f.name] = value
    return {"type": name, "fields": fields}


def config_from_dict(data: Dict[str, Any]) -> ManagerConfig:
    cls = CONFIG_TYPES[data["type"]]
    kwargs = {
        # Tuple-typed config fields (the service-time ranges) come back
        # from JSON as lists; every other field is a scalar or None.
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data["fields"].items()
    }
    return cls(**kwargs)


# -- wire messages -----------------------------------------------------------


def message_to_dict(message: Message) -> Dict[str, Any]:
    """Encode any registered wire message as a JSON-safe dict.

    ``Addr`` endpoints flatten to ``[node, port]`` pairs and piggybacked
    gossip to ``[node, status, incarnation]`` rows.  The unstamped
    ``send_time`` sentinel (``nan``) becomes ``null`` -- ``NaN`` is not
    valid strict JSON, and :func:`canonical_json` output must parse
    everywhere.
    """
    name = type(message).__name__
    if name not in MESSAGE_TYPES:
        raise TypeError(f"unregistered message type {name!r}")
    payload: Dict[str, Any] = {}
    for f in dataclasses.fields(message):
        value: Any = getattr(message, f.name)
        if f.name in ("src", "dst"):
            value = [value.node, value.port]
        elif f.name == "gossip":
            value = [[u.node, u.status, u.incarnation] for u in value]
        elif f.name == "send_time" and math.isnan(value):
            value = None
        payload[f.name] = value
    return {"type": name, "fields": payload}


def message_from_dict(data: Dict[str, Any]) -> Message:
    """Decode :func:`message_to_dict` output back into its message type.

    The original ``msg_id`` is preserved (request/reply correlation must
    survive the process boundary), so decoding never draws from the
    local message-id counter.
    """
    cls = MESSAGE_TYPES[data["type"]]
    kwargs = dict(data["fields"])
    kwargs["src"] = Addr(int(kwargs["src"][0]), str(kwargs["src"][1]))
    kwargs["dst"] = Addr(int(kwargs["dst"][0]), str(kwargs["dst"][1]))
    kwargs["gossip"] = tuple(
        MembershipUpdate(int(node), str(status), int(incarnation))
        for node, status, incarnation in kwargs["gossip"]
    )
    if kwargs["send_time"] is None:
        kwargs["send_time"] = float("nan")
    return cls(**kwargs)


# -- fault plans -------------------------------------------------------------


def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    return {
        "node_kills": [[node_id, at] for node_id, at in plan.node_kills],
        "partitions": [
            [list(isolated), at, heal] for isolated, at, heal in plan.partitions
        ],
        "restarts": [[node_id, at] for node_id, at in plan.restarts],
        "flaps": [
            [list(isolated), at, down, up, cycles]
            for isolated, at, down, up, cycles in plan.flaps
        ],
        "loss_bursts": [
            [probability, at, duration]
            for probability, at, duration in plan.loss_bursts
        ],
        # Adversarial categories postdate the codec: emitted only when
        # present so older plans' canonical JSON (and the sha256 cache
        # keys derived from it) is unchanged.
        **(
            {
                "duplicate_bursts": [
                    [probability, at, duration]
                    for probability, at, duration in plan.duplicate_bursts
                ]
            }
            if plan.duplicate_bursts
            else {}
        ),
        **(
            {
                "reorder_bursts": [
                    [window, at, duration]
                    for window, at, duration in plan.reorder_bursts
                ]
            }
            if plan.reorder_bursts
            else {}
        ),
        **(
            {
                "clock_drifts": [
                    [node_id, rate, at] for node_id, rate, at in plan.clock_drifts
                ]
            }
            if plan.clock_drifts
            else {}
        ),
        **(
            {
                "slow_nodes": [
                    [node_id, factor, at, duration]
                    for node_id, factor, at, duration in plan.slow_nodes
                ]
            }
            if plan.slow_nodes
            else {}
        ),
    }


def fault_plan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    plan = FaultPlan()
    for node_id, at in data["node_kills"]:
        plan.kill(int(node_id), at)
    for isolated, at, heal in data["partitions"]:
        plan.partition([int(i) for i in isolated], at, heal)
    # The churn categories postdate the original codec; absent keys mean
    # an older plan without them.
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


# -- run specs ---------------------------------------------------------------


def spec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    return {
        "manager": spec.manager,
        "pair": list(spec.pair),
        "cap_w_per_socket": spec.cap_w_per_socket,
        "n_clients": spec.n_clients,
        "seed": spec.seed,
        "workload_scale": spec.workload_scale,
        "manager_config": (
            config_to_dict(spec.manager_config)
            if spec.manager_config is not None
            else None
        ),
        "fault_plan": (
            fault_plan_to_dict(spec.fault_plan)
            if spec.fault_plan is not None
            else None
        ),
        "record_caps": spec.record_caps,
        "time_limit_s": spec.time_limit_s,
    }


def spec_from_dict(data: Dict[str, Any]) -> RunSpec:
    return RunSpec(
        manager=data["manager"],
        pair=tuple(data["pair"]),
        cap_w_per_socket=data["cap_w_per_socket"],
        n_clients=data["n_clients"],
        seed=data["seed"],
        workload_scale=data["workload_scale"],
        manager_config=(
            config_from_dict(data["manager_config"])
            if data["manager_config"] is not None
            else None
        ),
        fault_plan=(
            fault_plan_from_dict(data["fault_plan"])
            if data["fault_plan"] is not None
            else None
        ),
        record_caps=data["record_caps"],
        time_limit_s=data["time_limit_s"],
    )


# -- metrics recorder --------------------------------------------------------

# Events are stored as flat rows (lists) rather than objects: a paper-sized
# run records tens of thousands of them, and the field names would dominate
# the file size.  The rows are decoded lazily (see ``MetricsRecorder``).


def recorder_to_dict(recorder: MetricsRecorder) -> Dict[str, Any]:
    return {
        "record_caps": recorder._record_caps,
        **recorder.row_tables(),
        "counters": dict(recorder.counters),
    }


def recorder_from_dict(data: Dict[str, Any]) -> MetricsRecorder:
    """Decode a recorder; its row tables stay undecoded until first use.

    The rows are either inline (``recorder_to_dict`` output, e.g. a
    journal record) or, from a cache file, the verified body's unparsed
    JSON under ``"rows"`` (see :func:`join_rows`).
    """
    return MetricsRecorder.from_rows(
        record_caps=data["record_caps"],
        counters={str(k): int(v) for k, v in data["counters"].items()},
        rows=data["rows"] if "rows" in data else data,
    )


def split_rows(result: Dict[str, Any]) -> str:
    """Move the row tables of ``result``'s top-level recorder into a body.

    ``result`` is a ``result_to_dict`` output; its ``"recorder"`` loses
    its row tables, returned as canonical JSON.  A result without a
    recorder has the empty body.
    """
    recorder = result.get("recorder")
    if recorder is None:
        return ""
    return canonical_json({table: recorder.pop(table) for table in ROW_TYPES})


def join_rows(result: Dict[str, Any], body: str) -> Dict[str, Any]:
    """Inverse of :func:`split_rows`: hand ``body``, unparsed, to the recorder."""
    recorder = result.get("recorder")
    if recorder is None:
        if body:
            raise ValueError("row body for a result without a recorder")
    else:
        recorder["rows"] = body
    return result


# -- audits and network stats ------------------------------------------------


def audit_to_dict(audit: BudgetAudit) -> Dict[str, Any]:
    return {
        "budget_w": audit.budget_w,
        "caps_w": audit.caps_w,
        "pooled_w": audit.pooled_w,
        "in_flight_w": audit.in_flight_w,
        "lost_w": audit.lost_w,
        "unsafe_caps": list(audit.unsafe_caps),
    }


def audit_from_dict(data: Dict[str, Any]) -> BudgetAudit:
    return BudgetAudit(
        budget_w=data["budget_w"],
        caps_w=data["caps_w"],
        pooled_w=data["pooled_w"],
        in_flight_w=data["in_flight_w"],
        lost_w=data["lost_w"],
        unsafe_caps=[int(n) for n in data["unsafe_caps"]],
    )


def network_stats_to_dict(stats: NetworkStats) -> Dict[str, Any]:
    data = dataclasses.asdict(stats)
    data["by_kind"] = dict(stats.by_kind)
    # The adversarial-fault counters postdate the pinned fixtures and the
    # cache-key hashes; emit them only when the faults actually fired so
    # default runs keep producing byte-identical JSON.
    for key in ("duplicated", "reordered", "duplicated_by_kind", "reordered_by_kind"):
        if not data[key]:
            del data[key]
    return data


def network_stats_from_dict(data: Dict[str, Any]) -> NetworkStats:
    if "dropped_dead_src" in data:
        dead_src = data["dropped_dead_src"]
        dead_dst = data["dropped_dead_dst"]
    else:
        # Legacy cache files predate the send-time/arrival-time split and
        # carry only the merged counter; the breakdown is unrecoverable, so
        # attribute it to the send side -- ``dropped`` and ``dropped_dead``
        # aggregates stay exact either way.
        dead_src = data["dropped_dead"]
        dead_dst = 0
    return NetworkStats(
        sent=data["sent"],
        delivered=data["delivered"],
        dropped_dead_src=dead_src,
        dropped_dead_dst=dead_dst,
        dropped_partition=data["dropped_partition"],
        dropped_overflow=data["dropped_overflow"],
        dropped_unattached=data["dropped_unattached"],
        dropped_loss=data["dropped_loss"],
        duplicated=int(data.get("duplicated", 0)),
        reordered=int(data.get("reordered", 0)),
        by_kind={str(k): int(v) for k, v in data["by_kind"].items()},
        duplicated_by_kind={
            str(k): int(v) for k, v in data.get("duplicated_by_kind", {}).items()
        },
        reordered_by_kind={
            str(k): int(v) for k, v in data.get("reordered_by_kind", {}).items()
        },
    )


# -- sweep failure records ---------------------------------------------------

# The record type itself lives in ``repro.experiments.journal`` (kept
# stdlib-only so journal replay never depends on the simulation stack);
# this is its strict-checked wire codec, shaped like every other
# ``*_to_dict``/``*_from_dict`` pair here.


def task_failure_to_dict(failure: TaskFailure) -> Dict[str, Any]:
    """Encode a quarantined-spec record as a JSON-safe dict."""
    return {
        "kind": failure.kind,
        "fingerprint": failure.fingerprint,
        "index": failure.index,
        "reason": failure.reason,
        "error_type": failure.error_type,
        "message": failure.message,
        "attempts": failure.attempts,
    }


def task_failure_from_dict(data: Dict[str, Any]) -> TaskFailure:
    """Decode :func:`task_failure_to_dict` output."""
    return TaskFailure(
        kind=str(data["kind"]),
        fingerprint=str(data["fingerprint"]),
        index=int(data["index"]),
        reason=str(data["reason"]),
        error_type=str(data["error_type"]),
        message=str(data["message"]),
        attempts=int(data["attempts"]),
    )


# -- run results -------------------------------------------------------------


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    return {
        "spec": spec_to_dict(result.spec),
        "runtime_s": result.runtime_s,
        "recorder": recorder_to_dict(result.recorder),
        "audit": audit_to_dict(result.audit),
        "network": network_stats_to_dict(result.network),
        # JSON objects only take string keys; node ids go back to int on load.
        "finish_times": {
            str(node): at for node, at in sorted(result.finish_times.items())
        },
        "unfinished": list(result.unfinished),
    }


def result_from_dict(data: Dict[str, Any]) -> RunResult:
    return RunResult(
        spec=spec_from_dict(data["spec"]),
        runtime_s=data["runtime_s"],
        recorder=recorder_from_dict(data["recorder"]),
        audit=audit_from_dict(data["audit"]),
        network=network_stats_from_dict(data["network"]),
        finish_times={int(node): at for node, at in data["finish_times"].items()},
        unfinished=tuple(int(n) for n in data["unfinished"]),
    )
