"""Byte pins of the experiment commands' stdout at tiny sizes.

Each command runs through the CLI with ``--no-cache`` (``overhead`` has
no cache) and its stdout is hashed.  A change to how any experiment
builds or runs its simulated universe -- stream draws, budget
arithmetic, install/start order -- moves at least one digest.

The cap of 60.1 W/socket on six clients is one where the system-budget
expressions ``budget`` and ``budget * n / n`` differ in the last bit, so
the runs cover both roundings of the cluster's fair share.

The ``scaling-*`` tables print four significant digits, so the scaling
study is also pinned a level down: the canonical JSON of whole
``ScalingResult`` objects, recorder included, for points covering both
managers, a raised frequency, server-inbox overflow drops and pair
playback.

To re-pin after an intended behaviour change, print the new digests with
``python -m pytest tests/test_output_pins.py -q`` and read them off the
assertion messages.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.experiments.hardware_efficiency import (
    compare_hardware_efficiency,
    format_hardware_efficiency,
)
from repro.experiments.scaling import ScalingSpec, run_scaling_point
from repro.experiments.serialize import canonical_json, encode
from repro.sim.config import BATCHED_TICKS_ENV


@pytest.fixture(autouse=True)
def per_node_ticks(monkeypatch):
    """The pins encode per-node decider ticks: run them with the
    batched-ticks default off, whatever the environment says."""
    monkeypatch.delenv(BATCHED_TICKS_ENV, raising=False)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


COMMAND_PINS = {
    "overhead --scale 0.05": (
        "0e20d7a22a1ac985a5817ede5494b396370e3996e83f790c720596038fe1c128"
    ),
    "nominal --caps 60.1 --pairs EP:DC --clients 6 --scale 0.05 --no-cache": (
        "76a6e13915354214e6b02194a2be4e8bfec7e0cfb356d97e7efb138a53c4df9d"
    ),
    "faulty --caps 60.1 --pairs EP:DC --clients 6 --scale 0.05 --no-cache": (
        "0690446748d5b2d0ee3ebe34c3e30935ce9e11f67e82871e41f62274cc0e9efe"
    ),
    "multijob --clients 4 --scale 0.05 --no-cache": (
        "d1a29f1ad9c12641de94334b0a9653b0b2132e185c9736a39203c28c052baeaf"
    ),
    "allocation --clients 4 --scale 0.2 --observe 5 --no-cache": (
        "728ad7dc8f17c93373326fb13d952c75dca7a7df74497fd09dea959ae7e84ac9"
    ),
    "chaos --seeds 0 1 --clients 6 --cap 60.1 --duration 10 --base-loss 0.01 "
    "--membership --no-cache": (
        "15d834bae054e0702a6cc6009c60b2bcabfb11bf1a2618a1fcfd433954634ab0"
    ),
    "scaling-frequency --freqs 1 4 --clients 8 --seed 1 --no-cache": (
        "1c792ef03bc70db67994a0385afe0867da8651d6eadcec961d03998f3d0bad99"
    ),
    "scaling-scale --scales 8 16 --seed 1 --no-cache": (
        "a2e00943705275cb07aab5224f172dd7850c14d4ef6adc9f6e3c91ce0441c5af"
    ),
}

HARDWARE_EFFICIENCY_PIN = (
    "abcc928bc65354928941357b578c12a3cf37ea7d9a38ab2f74e7fb4c6a7124f2"
)


@pytest.mark.parametrize("argv", sorted(COMMAND_PINS))
def test_command_stdout_is_pinned(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == COMMAND_PINS[argv], out


def test_hardware_efficiency_table_is_pinned():
    text = format_hardware_efficiency(
        compare_hardware_efficiency(
            total_nodes=9, budget_w=9 * 2 * 50.0, app="CG", workload_scale=0.05, seed=2
        )
    )
    assert _sha256(text) == HARDWARE_EFFICIENCY_PIN, text



def _scaling_id(spec: ScalingSpec) -> str:
    pair = "" if spec.pair is None else "-" + ":".join(spec.pair)
    return f"{spec.manager}-{spec.n_clients}-{spec.frequency_hz:g}hz{pair}"


SCALING_POINT_PINS = {
    ScalingSpec(manager="penelope", n_clients=8, seed=1): (
        "5e147ed0efaf12fb6109f9d318c2548729e2b087431b35129d91ced6770839c5"
    ),
    ScalingSpec(manager="slurm", n_clients=8, seed=1): (
        "14babd48656afc4aa1559bb6105f0a87a9e09c376ca9fa46a000a7065469a421"
    ),
    ScalingSpec(manager="penelope", n_clients=16, frequency_hz=4.0, seed=1): (
        "f6ae2b7974c7f1e654294cbd4e20b39e72c34ea9ab7181bc6deec9dee5095522"
    ),
    # Saturates the server inbox: 2,543 overflow drops.
    ScalingSpec(
        manager="slurm",
        n_clients=64,
        frequency_hz=20.0,
        observe_for_s=5.0,
        server_inbox_capacity=16,
        seed=1,
    ): "0432baeb3c260f1555c53163c43ddf4f21370a608c4812e2cd11539c5e640c48",
    ScalingSpec(manager="penelope", n_clients=8, pair=("MG", "LU"), seed=1): (
        "d2a49bcadda503acb2cca040e6938e42fd3e8cedc3a3864e1852bedf2c9fbb8f"
    ),
    ScalingSpec(manager="slurm", n_clients=8, pair=("MG", "LU"), seed=1): (
        "03166af6d606f20b6e4b2ae2419c8ce1be1c6e0ecb4e40919acd9f5a8a26e602"
    ),
}


@pytest.mark.parametrize("spec", list(SCALING_POINT_PINS), ids=_scaling_id)
def test_scaling_point_result_is_pinned(spec):
    digest = _sha256(canonical_json(encode(run_scaling_point(spec))))
    assert digest == SCALING_POINT_PINS[spec], digest
