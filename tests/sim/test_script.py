"""Scripted consumer workloads on the engine, and the observables diff."""

from __future__ import annotations

import dataclasses

import pytest

from repro.ndn.link import FixedDelay, GaussianJitterDelay, LogNormalDelay
from repro.ndn.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.script import (
    ConsumerScript,
    FetchStep,
    SleepStep,
    diff_observables,
    run_scripts_reference,
)


def small_star(seed=0, consumers=3, capacity=4):
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=capacity)
    net.add_producer("P", "/content")
    net.connect("R", "P", LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8))
    net.add_route("R", "/content", "P")
    names = []
    for j in range(consumers):
        name = f"C{j}"
        net.add_consumer(name)
        net.connect(
            name, "R", GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5)
        )
        names.append(name)
    return net, names


def star_scripts(names, requests=12, universe=6, timeout=4000.0):
    return [
        ConsumerScript(
            consumer=name,
            steps=tuple(
                FetchStep(
                    f"/content/obj-{(i * 3 + j) % universe}",
                    timeout=timeout,
                    private=((i + j) % 3 == 0),
                )
                for i in range(requests)
            )
            + (SleepStep(1.5),),
        )
        for j, name in enumerate(names)
    ]


def run_star():
    net, names = small_star()
    return run_scripts_reference(net, star_scripts(names))


def test_star_delivers_every_fetch_and_reruns_identically():
    first = run_star()
    assert first.total_delivered == 3 * 12
    assert diff_observables(first, run_star(), labels=("first", "second")) == []


def test_tree_timeouts_collapse_onto_pending_pit():
    net = Network(rng=RngRegistry(3))
    net.add_producer("P", "/content", processing_delay=0.4)
    net.add_router("R0", capacity=3, processing_delay=0.2)
    net.connect("R0", "P", FixedDelay(1.0))
    net.add_route("R0", "/content", "P")
    names = []
    for a in range(2):
        leaf = f"R1-{a}"
        net.add_router(leaf, capacity=3)
        net.connect(leaf, "R0", FixedDelay(0.5))
        net.add_route(leaf, "/content", "R0")
        for c in range(2):
            name = f"C{a}{c}"
            net.add_consumer(name)
            net.connect(name, leaf, FixedDelay(0.3))
            names.append(name)
    # A 2.4 ms budget is below the >=5.2 ms first-fetch RTT: consumers
    # time out and refetch while the first interest is still pending.
    obs = run_scripts_reference(
        net, star_scripts(names, requests=10, universe=5, timeout=2.4)
    )
    assert obs.total_delivered < 4 * 10
    assert obs.router_counters["R0"].get("pit_collapse", 0) > 0


@pytest.mark.parametrize(
    "field, doctored",
    [
        pytest.param("end_time", lambda obs: obs.end_time + 1.0, id="scalar"),
        pytest.param(
            "delivered", lambda obs: {**obs.delivered, "C0": -1}, id="dict"
        ),
    ],
)
def test_mismatch_message_names_both_legs(field, doctored):
    obs = run_star()
    drifted = dataclasses.replace(obs, **{field: doctored(obs)})
    mismatches = diff_observables(
        obs, drifted, labels=("materialized", "streamed")
    )
    assert len(mismatches) == 1
    message = mismatches[0]
    assert message.startswith(f"{field}: ")
    assert "materialized=" in message and "streamed=" in message
    assert "batch" not in message and "oracle" not in message
