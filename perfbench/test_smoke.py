"""Smoke test of the benchmark's checks on a tiny job, the genus of I_3 at (2).

    python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import random

import tracing
import workloads

I3_AT_2 = workloads.GenusJob(d=1, p=2, aut_orders=(1296,), sublattice_classes=1)


def run_genus(job):
    ops = workloads.Ops()
    workloads.genus_pass(workloads.genus_inputs(random.Random(0), jobs=(job,)), ops)
    return ops


def test_tiny_job_passes_its_checks():
    ops = run_genus(I3_AT_2)
    # enumerate_genus, hecke_direct, hecke_intertwining, one theta series
    assert ops.attempted == 4
    assert ops.failures == []
    assert ops.neighbours_built == 2 * 18


def test_wrong_expected_value_is_a_failed_operation():
    ops = run_genus(dataclasses.replace(I3_AT_2, sublattice_classes=2))
    assert ops.attempted == 4
    assert ops.failures == [("hecke.hecke_intertwining <1,1,1> at (2)",
                             "1 sublattice classes")]
    assert ops.wrong_results == 1


def test_raising_call_is_a_failed_operation():
    split = workloads.NeighbourJob(3, 7, (57, 57), True)
    ops = workloads.Ops()
    workloads.neighbours_pass(
        workloads.neighbour_inputs(random.Random(0), jobs=(split,)), ops)
    # neighbours raises; count_neighbours still runs and passes its check
    assert ops.attempted == 2
    assert [call for call, _ in ops.failures] == ["neighbour.neighbours I_3 at (3+1*w)"]
    assert "not integral" in ops.failures[0][1]
    assert ops.wrong_results == 0


def test_tracer_sees_calls_made_through_imported_names():
    tracer = tracing.Tracer()
    tracer.install()
    ops = run_genus(I3_AT_2)
    assert ops.failures == []
    # hecke calls iter_neighbours and is_isometric through its own globals
    assert tracer.counts["neighbour.built"] == 2 * 18
    assert len(tracer._neighbours) == 18
    assert tracer.calls["hecke.hecke_direct"] == 1
    # one class: every neighbour (twice) and each of the 9 intersection
    # lattices after the first is tested against it, and matches
    assert tracer.calls["isometry.is_isometric"] == 2 * 18 + 8
    assert tracer.counts["isometry.is_isometric.hits"] == 2 * 18 + 8
    assert tracer.counts["hecke.sublattice_classes"] == 1
    metrics = tracer.metrics(1, 1.0, 1.0)
    # enumerate_genus and hecke_direct both fingerprint every neighbour
    assert metrics["lattice.fingerprint.per_neighbour"][0] >= 2
    for layer in ("neighbour", "hecke", "lattice", "isometry", "eismat", "theta"):
        assert metrics[f"{layer}.self_s"][0] > 0
