"""Result-cache behaviour: hits skip execution, stale keys miss,
corrupted cache files fall back to re-running instead of crashing, and a
hit's recorder rows stay undecoded until something reads them."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
import repro.instrumentation as instrumentation
from repro.cluster.faults import FaultPlan
from repro.core.config import PenelopeConfig
from repro.experiments import faulty, serialize
from repro.experiments.faulty import run_faulty_sweep
from repro.experiments.harness import RunResult, RunSpec, run_single
from repro.experiments.nominal import run_nominal_sweep
from repro.experiments.runner import (
    SINGLE_RUN,
    ResultCache,
    TaskKind,
    run_sweep,
    spec_fingerprint,
)
from repro.instrumentation import (
    PACKED_LAYOUT,
    PACKED_PREFIX,
    ROW_TYPES,
    CapSample,
    LedgerSample,
    MetricsRecorder,
    TransactionEvent,
    TurnaroundSample,
)
from repro.managers.slurm import SlurmConfig

# -- counting stub: proves when the run function actually executes -----------

#: Every spec the stub run function was called with, in call order.
CALLS = []


@dataclass(frozen=True)
class StubSpec:
    value: int
    knob: float = 1.0


def run_stub(spec: StubSpec) -> dict:
    CALLS.append(spec)
    return {"value": spec.value, "knob": spec.knob}


STUB = TaskKind("stub", run_stub, StubSpec, dict)


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


class TestCacheHitSkipsExecution:
    def test_warm_cache_executes_nothing(self, tmp_path):
        specs = [StubSpec(i) for i in range(4)]
        first = run_sweep(specs, kind=STUB, cache_dir=tmp_path)
        assert len(CALLS) == 4
        second = run_sweep(specs, kind=STUB, cache_dir=tmp_path)
        assert len(CALLS) == 4  # zero executions on the warm pass
        assert second == first

    def test_second_pass_events_are_all_cached(self, tmp_path):
        specs = [StubSpec(i) for i in range(3)]
        run_sweep(specs, kind=STUB, cache_dir=tmp_path)
        events = []
        run_sweep(specs, kind=STUB, cache_dir=tmp_path, progress=events.append)
        assert [e.cached for e in events] == [True, True, True]
        assert [e.index for e in events] == [0, 1, 2]

    def test_partial_cache_runs_only_the_missing_specs(self, tmp_path):
        run_sweep([StubSpec(0), StubSpec(1)], kind=STUB, cache_dir=tmp_path)
        CALLS.clear()
        results = run_sweep(
            [StubSpec(0), StubSpec(2), StubSpec(1)], kind=STUB, cache_dir=tmp_path
        )
        assert CALLS == [StubSpec(2)]
        assert [r["value"] for r in results] == [0, 2, 1]

    def test_no_cache_dir_always_executes(self):
        specs = [StubSpec(0)]
        run_sweep(specs, kind=STUB)
        run_sweep(specs, kind=STUB)
        assert len(CALLS) == 2

    def test_no_cache_dir_neither_reads_nor_writes(self, tmp_path, monkeypatch):
        # ``cache_dir=None`` is the one off switch: a warm cache under the
        # working directory is ignored, and nothing new is written there.
        monkeypatch.chdir(tmp_path)
        specs = [StubSpec(0)]
        run_sweep(specs, kind=STUB, cache_dir=".")
        written = sorted(tmp_path.rglob("*"))
        run_sweep(specs, kind=STUB, cache_dir=None)
        assert len(CALLS) == 2
        assert sorted(tmp_path.rglob("*")) == written

    def test_no_temp_files_left_behind(self, tmp_path):
        run_sweep([StubSpec(i) for i in range(3)], kind=STUB, cache_dir=tmp_path)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []


class TestInvalidation:
    BASE = RunSpec("penelope", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.1)

    def test_every_runspec_field_perturbs_the_fingerprint(self):
        variants = [
            replace(self.BASE, manager="slurm"),
            replace(self.BASE, pair=("CG", "LU")),
            replace(self.BASE, cap_w_per_socket=71.0),
            replace(self.BASE, n_clients=5),
            replace(self.BASE, seed=1),
            replace(self.BASE, workload_scale=0.2),
            replace(self.BASE, manager_config=PenelopeConfig(rate=0.2)),
            replace(self.BASE, fault_plan=FaultPlan().kill(0, 1.0)),
            replace(self.BASE, record_caps=True),
            replace(self.BASE, time_limit_s=500.0),
        ]
        fingerprints = {spec_fingerprint(v) for v in variants}
        assert len(fingerprints) == len(variants)
        assert spec_fingerprint(self.BASE) not in fingerprints

    def test_config_field_change_perturbs_the_fingerprint(self):
        a = RunSpec("slurm", ("EP", "DC"), 70.0, manager_config=SlurmConfig())
        b = replace(
            a, manager_config=SlurmConfig(server_service_time_s=(1e-3, 2e-3))
        )
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_salt_perturbs_the_fingerprint(self):
        assert spec_fingerprint(self.BASE) != spec_fingerprint(
            self.BASE, salt="bust"
        )

    def test_task_kind_is_part_of_the_key(self):
        clone = replace(SINGLE_RUN, name="single-v2")
        assert spec_fingerprint(self.BASE) != spec_fingerprint(self.BASE, kind=clone)

    def test_code_version_is_part_of_the_key(self, monkeypatch):
        before = spec_fingerprint(self.BASE)
        monkeypatch.setattr(runner, "CODE_VERSION", "999")
        assert spec_fingerprint(self.BASE) != before

    def test_changed_stub_spec_misses_the_cache(self, tmp_path):
        run_sweep([StubSpec(1, knob=1.0)], kind=STUB, cache_dir=tmp_path)
        run_sweep([StubSpec(1, knob=2.0)], kind=STUB, cache_dir=tmp_path)
        assert CALLS == [StubSpec(1, knob=1.0), StubSpec(1, knob=2.0)]


class TestCorruptionFallback:
    SPEC = StubSpec(7)

    def _primed_path(self, tmp_path):
        run_sweep([self.SPEC], kind=STUB, cache_dir=tmp_path)
        CALLS.clear()
        path = ResultCache(tmp_path, STUB).path_for(spec_fingerprint(self.SPEC, STUB))
        assert path.is_file()
        return path

    def _assert_reruns_and_repairs(self, tmp_path):
        results = run_sweep([self.SPEC], kind=STUB, cache_dir=tmp_path)
        assert CALLS == [self.SPEC]  # corrupted entry fell back to executing
        assert results == [{"value": 7, "knob": 1.0}]
        CALLS.clear()
        run_sweep([self.SPEC], kind=STUB, cache_dir=tmp_path)
        assert CALLS == []  # and the rewritten entry is good again

    def test_garbage_file(self, tmp_path):
        self._primed_path(tmp_path).write_text("not json at all {{{")
        self._assert_reruns_and_repairs(tmp_path)

    def test_truncated_file(self, tmp_path):
        path = self._primed_path(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        self._assert_reruns_and_repairs(tmp_path)

    def test_empty_file(self, tmp_path):
        self._primed_path(tmp_path).write_text("")
        self._assert_reruns_and_repairs(tmp_path)

    def test_fingerprint_mismatch(self, tmp_path):
        path = self._primed_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        self._assert_reruns_and_repairs(tmp_path)

    def test_missing_result_key(self, tmp_path):
        path = self._primed_path(tmp_path)
        payload = json.loads(path.read_text())
        del payload["result"]
        path.write_text(json.dumps(payload))
        self._assert_reruns_and_repairs(tmp_path)

    def test_undecodable_result(self, tmp_path):
        path = self._primed_path(tmp_path)
        payload = json.loads(path.read_text())
        payload["result"] = {"value": "seven", "knob": 1.0}
        path.write_text(json.dumps(payload))
        self._assert_reruns_and_repairs(tmp_path)


class TestSingleRunCache:
    def test_cached_run_result_is_byte_identical(self, tmp_path):
        spec = RunSpec(
            "penelope", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.05
        )
        fresh = run_sweep([spec], cache_dir=tmp_path)[0]
        events = []
        cached = run_sweep([spec], cache_dir=tmp_path, progress=events.append)[0]
        assert [e.cached for e in events] == [True]
        assert serialize.canonical_json(
            serialize.encode(cached)
        ) == serialize.canonical_json(serialize.encode(fresh))


# -- header/body layout: real runs, whose recorder rows live in the body -------

#: A tiny real run: the stub kind has no recorder, so its body is empty.
TINY = RunSpec(
    "penelope", ("EP", "DC"), 70.0, n_clients=4, workload_scale=0.05,
    record_caps=True,
)


def run_counted(spec: RunSpec) -> RunResult:
    CALLS.append(spec)
    return run_single(spec)


#: ``SINGLE_RUN`` with a run function that records each execution.
COUNTED_SINGLE = replace(SINGLE_RUN, fn=run_counted)


@pytest.fixture(scope="module")
def fresh():
    """One freshly simulated tiny run, with a ledger sample so every row
    table of the body is non-empty."""
    result = run_single(TINY)
    result.recorder.sample(1.0, "ledger.residual_w", 0.0)
    return result


def eager_rows(data):
    """The recorder's row lists, decoded field by field from
    its encoded form -- the reference a lazy decode must match."""
    return {
        "transactions": [
            TransactionEvent(
                time=time, kind=kind, src=src, dst=dst, watts=watts, urgent=urgent
            )
            for time, kind, src, dst, watts, urgent in data["transactions"]
        ],
        "turnarounds": [
            TurnaroundSample(
                time=time, node=node, wait_s=wait_s,
                granted_w=granted_w, timed_out=timed_out,
            )
            for time, node, wait_s, granted_w, timed_out in data["turnarounds"]
        ],
        "caps": [
            CapSample(time=time, node=node, cap_w=cap_w)
            for time, node, cap_w in data["caps"]
        ],
        "samples": [
            LedgerSample(time=time, name=name, value=value)
            for time, name, value in data["samples"]
        ],
    }


def canonical(result) -> str:
    return serialize.canonical_json(serialize.encode(result))


@pytest.fixture
def row_constructions(monkeypatch):
    """Count every recorder row built while the test runs, by class name.

    The recorder builds rows through ``instrumentation._new_row``
    (recording and lazy decoding alike), so counting there sees them all.
    """
    counts = {cls.__name__: 0 for cls in ROW_TYPES.values()}
    new_row = instrumentation._new_row

    def counting_new_row(cls, fields):
        counts[cls.__name__] += 1
        return new_row(cls, fields)

    monkeypatch.setattr(instrumentation, "_new_row", counting_new_row)
    return counts


def primed_path(tmp_path, result):
    """Store ``result`` as the cache entry of ``TINY``; the entry's path."""
    fingerprint = spec_fingerprint(TINY, COUNTED_SINGLE)
    return ResultCache(tmp_path, COUNTED_SINGLE).store(fingerprint, TINY, result)


def split_file(path):
    """A cache file's header (parsed), its body bytes, and the body's
    packed head line (parsed)."""
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline])
    body = data[newline + 1 :]
    return header, body, json.loads(body[: body.index(b"\n")])


class TestHeaderBodyLayout:
    def test_header_line_then_packed_body(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        header, body, head = split_file(path)
        assert set(header) == {"fingerprint", "kind", "spec", "result", "body_sha256"}
        assert header["fingerprint"] == path.stem
        assert set(header["result"]["recorder"]) == {"record_caps", "counters"}
        assert header["body_sha256"] == hashlib.sha256(body).hexdigest()
        assert body.startswith(PACKED_PREFIX)
        assert head["layout"] == PACKED_LAYOUT
        assert set(head["tables"]) == set(ROW_TYPES)
        for table, (count, specs) in head["tables"].items():
            assert count == len(getattr(fresh.recorder, table)) > 0
            assert len(specs) == len(ROW_TYPES[table]._fields)
        # Numeric and bool columns are packed bytes, not JSON text; the
        # kinds and names of the rows sit in the head's string tables.
        assert head["tables"]["transactions"][1] == [
            "d", ["s", "B", head["tables"]["transactions"][1][1][2]], "q", "q", "d", "?",
        ]

    def test_kind_without_recorder_has_an_empty_body(self, tmp_path):
        run_sweep([StubSpec(3)], kind=STUB, cache_dir=tmp_path)
        path = ResultCache(tmp_path, STUB).path_for(spec_fingerprint(StubSpec(3), STUB))
        head, body = path.read_text().split("\n")
        assert body == ""
        assert json.loads(head)["body_sha256"] == hashlib.sha256(b"").hexdigest()

    def test_loaded_result_is_a_hit_without_execution(self, tmp_path, fresh):
        primed_path(tmp_path, fresh)
        results = run_sweep([TINY], kind=COUNTED_SINGLE, cache_dir=tmp_path)
        assert CALLS == []
        assert canonical(results[0]) == canonical(fresh)


def assert_good_file(path):
    """``path`` is a whole cache file: its body matches its digest and
    unpacks."""
    header, body, _ = split_file(path)
    assert header["body_sha256"] == hashlib.sha256(body).hexdigest()
    instrumentation.unpack_columns(body)


class TestBodyCorruption:
    """A damaged body is a miss at load time -- never a hit that fails on
    first recorder access -- and the re-run rewrites a good file."""

    def _assert_miss_rerun_repair(self, tmp_path, path):
        assert ResultCache(tmp_path, COUNTED_SINGLE).load(
            spec_fingerprint(TINY, COUNTED_SINGLE)
        ) is None
        results = run_sweep([TINY], kind=COUNTED_SINGLE, cache_dir=tmp_path)
        assert CALLS == [TINY]  # the damaged entry fell back to executing
        assert results[0].recorder.transactions
        CALLS.clear()
        run_sweep([TINY], kind=COUNTED_SINGLE, cache_dir=tmp_path)
        assert CALLS == []  # and the rewritten entry is good again
        assert_good_file(path)

    def test_truncated_body(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        data = path.read_bytes()
        head_len = data.index(b"\n") + 1
        path.write_bytes(data[: head_len + (len(data) - head_len) // 2])
        self._assert_miss_rerun_repair(tmp_path, path)

    def test_one_flipped_byte_in_the_body(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        data = bytearray(path.read_bytes())
        at = data.index(b"\n") + 1 + (len(data) - data.index(b"\n")) // 2
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        self._assert_miss_rerun_repair(tmp_path, path)

    def test_missing_body_line(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\n")])
        self._assert_miss_rerun_repair(tmp_path, path)

    def test_empty_body_line(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(b"\n") + 1])
        self._assert_miss_rerun_repair(tmp_path, path)

    def test_non_utf8_byte_in_the_header(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        data = bytearray(path.read_bytes())
        data[data.index(b'"single"') + 1] = 0xFF  # inside a header string
        path.write_bytes(bytes(data))
        self._assert_miss_rerun_repair(tmp_path, path)

    def test_legacy_one_line_file_with_inline_rows(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        legacy = {
            "fingerprint": path.stem,
            "kind": SINGLE_RUN.name,
            "spec": serialize.encode(TINY),
            "result": serialize.encode(fresh),
        }
        path.write_text(serialize.canonical_json(legacy))
        self._assert_miss_rerun_repair(tmp_path, path)

    def test_json_text_body_of_the_earlier_layout(self, tmp_path, fresh):
        # Header, newline, then the rows as one canonical-JSON line, with
        # a matching digest: whole, but in the layout earlier versions
        # wrote.  It loads as a miss; the re-run rewrites it packed.
        path = primed_path(tmp_path, fresh)
        path.write_text(json_text_layout(path, fresh))
        self._assert_miss_rerun_repair(tmp_path, path)
        assert split_file(path)[1].startswith(PACKED_PREFIX)


def json_text_layout(path, result) -> str:
    """The cache file of ``result`` in the earlier JSON-text layout: the
    header line, a newline, then the row tables as canonical JSON."""
    encoded = serialize.encode(result)
    body = serialize.canonical_json(
        {table: encoded["recorder"].pop(table) for table in ROW_TYPES}
    )
    header = {
        "fingerprint": path.stem,
        "kind": COUNTED_SINGLE.name,
        "spec": serialize.encode(TINY),
        "result": encoded,
        "body_sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }
    return serialize.canonical_json(header) + "\n" + body


def packed_layout(path, result) -> bytes:
    """The cache file of ``result`` built from its parts: the header
    line, a newline, then the packed body."""
    encoded = serialize.encode(result)
    body = instrumentation.pack_rows(
        {table: encoded["recorder"].pop(table) for table in ROW_TYPES}
    )
    header = {
        "fingerprint": path.stem,
        "kind": COUNTED_SINGLE.name,
        "spec": serialize.encode(TINY),
        "result": encoded,
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    return serialize.canonical_json(header).encode("utf-8") + b"\n" + body


class TestBytesPath:
    """A load reads the file as bytes and hands the raw body on unpacked;
    a file built from its parts is the file the cache writes."""

    def test_store_writes_the_packed_layout(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        assert path.read_bytes() == packed_layout(path, fresh)

    def test_file_built_from_parts_loads_as_an_undecoded_hit(self, tmp_path, fresh):
        path = primed_path(tmp_path, fresh)
        path.write_bytes(packed_layout(path, fresh))
        loaded = ResultCache(tmp_path, COUNTED_SINGLE).load(
            spec_fingerprint(TINY, COUNTED_SINGLE)
        )
        assert loaded is not None
        assert "_rows" in vars(loaded.recorder)  # still undecoded
        assert canonical(loaded) == canonical(fresh)

    def test_warm_replay_builds_each_fault_point_once(self, tmp_path, monkeypatch):
        kwargs = dict(
            caps=(60.0, 80.0), pairs=[("EP", "DC"), ("CG", "LU")], n_clients=4,
            workload_scale=0.05, cache_dir=str(tmp_path),
        )
        run_nominal_sweep(**kwargs)
        run_faulty_sweep(**kwargs)
        built = []
        original = faulty.build_app

        def counting_build_app(name, *args, **kw):
            built.append(name)
            return original(name, *args, **kw)

        monkeypatch.setattr(faulty, "build_app", counting_build_app)
        faulty.predict_fair_runtime_s.cache_clear()
        events = []
        run_nominal_sweep(**kwargs, progress=events.append)
        run_faulty_sweep(**kwargs, progress=events.append)
        assert events and all(e.cached for e in events)
        # Both apps of each distinct (pair, cap, scale), once: not once
        # per faulted system (slurm and penelope) as well.
        points = len(kwargs["caps"]) * len(kwargs["pairs"])
        assert 0 < len(built) <= 2 * points
        built.clear()
        run_faulty_sweep(**kwargs)
        assert built == []  # a later replay builds none


class TestLazyRecorder:
    def _loaded(self, tmp_path, fresh):
        primed_path(tmp_path, fresh)
        loaded = ResultCache(tmp_path, COUNTED_SINGLE).load(
            spec_fingerprint(TINY, COUNTED_SINGLE)
        )
        assert loaded is not None
        return loaded

    def test_row_lists_equal_an_eager_decode(self, tmp_path, fresh):
        loaded = self._loaded(tmp_path, fresh)
        expected = eager_rows(serialize.encode(fresh.recorder))
        for table, rows in expected.items():
            assert rows  # every table is exercised
            assert getattr(loaded.recorder, table) == rows
            assert getattr(loaded.recorder, table) == getattr(fresh.recorder, table)
        assert loaded.recorder.counters == fresh.recorder.counters
        assert loaded.recorder._record_caps == fresh.recorder._record_caps

    def test_reencoding_is_byte_identical_and_builds_no_rows(
        self, tmp_path, fresh, row_constructions
    ):
        expected = canonical(fresh)
        loaded = self._loaded(tmp_path, fresh)
        assert canonical(loaded) == expected
        assert sum(row_constructions.values()) == 0
        assert "_rows" in vars(loaded.recorder)  # still undecoded

    def test_first_access_decodes_once(self, tmp_path, fresh, row_constructions):
        loaded = self._loaded(tmp_path, fresh)
        assert len(loaded.recorder.caps) == len(fresh.recorder.caps)
        built = dict(row_constructions)
        assert built["TransactionEvent"] == len(fresh.recorder.transactions)
        assert len(loaded.recorder.transactions) == len(fresh.recorder.transactions)
        assert len(loaded.recorder.turnarounds) == len(fresh.recorder.turnarounds)
        assert row_constructions == built
        assert "_rows" not in vars(loaded.recorder)
        assert canonical(loaded) == canonical(fresh)

    def test_recording_into_a_loaded_recorder(self, tmp_path, fresh):
        loaded = self._loaded(tmp_path, fresh)
        loaded.recorder.transaction(99.0, "grant", 0, 1, 5.0)
        assert loaded.recorder.transactions[-1].time == 99.0
        assert len(loaded.recorder.transactions) == len(fresh.recorder.transactions) + 1

    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_untouched_result_round_trips(self, tmp_path, fresh, clone):
        loaded = self._loaded(tmp_path, fresh)
        copied = clone(loaded)
        assert "_rows" in vars(copied.recorder)
        assert canonical(copied) == canonical(fresh)
        for table in ROW_TYPES:
            assert getattr(copied.recorder, table) == getattr(fresh.recorder, table)

    def test_unknown_attribute_is_an_attribute_error(self, tmp_path, fresh):
        loaded = self._loaded(tmp_path, fresh)
        with pytest.raises(AttributeError):
            loaded.recorder.no_such_table
        assert "_rows" in vars(loaded.recorder)

    def test_warm_nominal_replay_builds_no_rows(self, tmp_path, row_constructions):
        kwargs = dict(
            caps=(70.0,), pairs=[("EP", "DC")], n_clients=4,
            workload_scale=0.05, cache_dir=str(tmp_path),
        )
        cold = run_nominal_sweep(**kwargs)
        for name in row_constructions:
            row_constructions[name] = 0
        events = []
        warm = run_nominal_sweep(**kwargs, progress=events.append)
        assert events and all(e.cached for e in events)
        assert warm.normalized == cold.normalized
        assert row_constructions["TransactionEvent"] == 0
        assert row_constructions["TurnaroundSample"] == 0

    def test_fresh_recorders_keep_plain_list_attributes(self):
        recorder = run_single(TINY).recorder
        for table in ROW_TYPES:
            assert type(vars(recorder)[table]) is list
            assert table not in vars(MetricsRecorder)  # no property in the way
        assert "_rows" not in vars(recorder)


# -- the packed body codec -------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_INTS = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
_NAMES = st.text(max_size=12)
#: Any JSON scalar a column may hold when its values mix types.
_MIXED = st.one_of(_FLOATS.filter(lambda x: x == x), _INTS, st.booleans(), _NAMES)


def _exact(value):
    """A value with its type and, for floats, its bits spelled out."""
    if type(value) is float:
        return ("float", value.hex())
    return (type(value).__name__, value)


class TestPackedRows:
    @settings(max_examples=80, deadline=None)
    @given(
        transactions=st.lists(
            st.tuples(_FLOATS, _NAMES, _INTS, _INTS, _FLOATS, st.booleans()), max_size=12
        ),
        turnarounds=st.lists(
            st.tuples(_FLOATS, _INTS, _FLOATS, _FLOATS, st.booleans()), max_size=12
        ),
        caps=st.lists(st.tuples(_MIXED, _INTS, _MIXED), max_size=12),
        samples=st.lists(st.tuples(_FLOATS, _NAMES, _FLOATS), max_size=12),
    )
    def test_round_trip_keeps_float_bits_ints_bools_and_strings(
        self, transactions, turnarounds, caps, samples
    ):
        tables = {
            "transactions": transactions,
            "turnarounds": turnarounds,
            "caps": caps,
            "samples": samples,
        }
        body = instrumentation.pack_rows(tables)
        assert body.startswith(PACKED_PREFIX)
        columns = instrumentation.unpack_columns(body)
        for table, rows in tables.items():
            decoded = list(zip(*columns[table]))
            assert [[_exact(v) for v in row] for row in decoded] == [
                [_exact(v) for v in row] for row in rows
            ]
        recorder = MetricsRecorder.from_rows(True, {}, body)
        for table, rows in tables.items():
            assert [
                [_exact(v) for v in row] for row in getattr(recorder, table)
            ] == [[_exact(v) for v in row] for row in rows]
            assert all(type(row) is ROW_TYPES[table] for row in getattr(recorder, table))

    def test_a_column_mixing_ints_and_floats_keeps_each_type(self):
        body = instrumentation.pack_rows({"caps": [(0.0, 1, 160), (1.0, 1, 150.5)]})
        head = json.loads(body[: body.index(b"\n")])
        assert head["tables"]["caps"][1] == ["d", "q", ["j", [160, 150.5]]]
        caps = MetricsRecorder.from_rows(True, {}, body).caps
        assert [type(c.cap_w) for c in caps] == [int, float]

    @pytest.mark.parametrize("cut", [1, 8, 9])
    def test_a_short_body_does_not_unpack(self, fresh, cut):
        body = instrumentation.pack_rows(fresh.recorder.row_tables())
        with pytest.raises(ValueError):
            instrumentation.unpack_columns(body[:-cut])
        with pytest.raises(ValueError):
            instrumentation.unpack_columns(body + b"\0" * cut)

    def test_warm_hit_builds_no_rows_until_a_row_list_is_read(
        self, tmp_path, fresh, row_constructions
    ):
        primed_path(tmp_path, fresh)
        results = run_sweep([TINY], kind=COUNTED_SINGLE, cache_dir=tmp_path)
        assert CALLS == []
        recorder = results[0].recorder
        assert results[0].runtime_s == fresh.runtime_s
        assert recorder.counters == fresh.recorder.counters
        assert sum(row_constructions.values()) == 0
        assert "_rows" in vars(recorder)
        transactions = recorder.transactions
        assert transactions == fresh.recorder.transactions
        assert row_constructions == {
            cls.__name__: len(getattr(fresh.recorder, table))
            for table, cls in ROW_TYPES.items()
        }
