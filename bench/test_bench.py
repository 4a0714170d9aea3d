"""Tests of the benchmark's own parts: the synthetic audit set and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import random
from datetime import datetime

import pytest

import run
import synth
import tracer as tracing
import workloads
from histchain import audit, envelope, ledger, plant, storage
from histchain.config import SimConfig
from histchain.sim import Simulation

MINUTES = 45


@pytest.fixture(scope="module")
def damaged():
    return synth.generate(seed=3, minutes=MINUTES)


def test_synthetic_set_round_trips(damaged):
    chain = ledger.parse_chain_dump(damaged.chain_text)
    assert ledger.verify_chain(chain) is None
    assert ledger.dump_chain(chain) == damaged.chain_text
    assert len(chain) == MINUTES + 1
    assert sum(len(b.indexes) for b in chain.blocks) == damaged.n_indexes == 2 * MINUTES
    for node_id, text in damaged.historian_texts.items():
        assert storage.Historian.load(node_id, text).dump() == text


def test_clean_set_audits_intact(tmp_path):
    clean = synth.generate(seed=3, minutes=MINUTES, n_edits=0, n_deleted=0)
    report = audit.audit_directory(clean.write(tmp_path))
    assert clean.truth == {}
    assert report.all_intact and not report.uncovered
    assert len(report.findings) == synth.REPLICATION * clean.n_indexes


def test_each_seeded_edit_flagged_once(damaged, tmp_path):
    report = audit.audit_directory(damaged.write(tmp_path))
    flagged = [(f.node_id, f.expected_digest, f.verdict) for f in report.flagged()]
    assert sorted(flagged) == sorted((n, d, v) for (n, d), v in damaged.truth.items())
    assert sorted(damaged.truth.values()) == [audit.MISMATCH] * 5 + [audit.MISSING]
    unit = workloads.audit_unit(damaged, tmp_path)
    assert (unit.attempted, unit.failed) == (damaged.n_indexes, 0)


def test_audit_unit_counts_a_wrong_verdict(damaged, tmp_path):
    wrong = synth.ArtifactSet(damaged.chain_text, damaged.historian_texts,
                              dict(list(damaged.truth.items())[1:]),
                              damaged.n_indexes, damaged.minutes)
    assert workloads.audit_unit(wrong, damaged.write(tmp_path)).failed == 1


def _call_args():
    rng = random.Random(0)
    keys = envelope.generate_node_keys("a", rng)
    other = envelope.generate_node_keys("b", rng)
    env = envelope.seal(b"payload", keys, "b", other.enc_pub, rng)
    vector = envelope.MeasurementVector("Sensor 1", datetime(2020, 12, 23, 17, 26), (1, 2))
    chain = ledger.Chain()
    block = ledger.make_block([ledger.LedgerIndex(envelope.vector_digest(vector),
                                                  vector.captured_at, (1, 2, 3))],
                              chain.tip.block_hash, vector.captured_at)
    chain.append(block)
    state = plant.TwoTankPlant(SimConfig())
    plc, _ = plant.default_plcs(SimConfig())
    reading = plant.read_sensor(state.tanks, "S1", 0)
    return {
        "seal": (b"payload", keys, "b", other.enc_pub, rng),
        "open_envelope": (env, other, keys.sig_pub),
        "vector_digest": (vector,),
        "parse_canonical": (envelope.canonical_serialize(vector),),
        "verify_chain": (chain,),
        "make_block": (block.indexes, chain.tip.block_hash, vector.captured_at),
        "parse_chain_dump": (ledger.dump_chain(chain),),
        "read_sensor": (state.tanks, "S1", 0),
        "plc_control": (plc, reading),
        "run_scenario_a": (),
        "run_scenario_b": (),
        "run_scenario_c": (),
        "audit_artifacts": (ledger.dump_chain(chain), {}),
    }


def test_tracer_sees_calls_through_every_namespace():
    args = _call_args()
    bindings = []
    for owner, attr, name, _, _ in tracing.ENTRY_POINTS:
        if not isinstance(owner, type):
            original = getattr(owner, attr)
            bindings += [(module, bound_as, name, original)
                         for module, bound_as in tracing._namespaces(original)]
    seal_namespaces = {m.__name__ for m, a, _, _ in bindings if a == "seal"}
    assert seal_namespaces >= {"histchain.envelope", "histchain.sim",
                               "histchain.storage", "histchain.minter"}
    assert {m.__name__ for m, _, _, _ in bindings} >= {
        "histchain.envelope", "histchain.storage", "histchain.minter", "histchain.sim",
        "histchain.audit", "histchain.attacks", "histchain.ledger", "histchain.plant"}

    t = tracing.Tracer()
    expected = {}
    with t:
        for module, bound_as, name, original in bindings:
            assert getattr(module, bound_as) is not original
            getattr(module, bound_as)(*args[bound_as])
            expected[name] = expected.get(name, 0) + 1
        storage.Historian.load(1, "")
        storage.Historian(1).at_time("2020-12-23T17:26")
        rejected = t.counts["envelope.open.rejected"]
        env, recipient, sig_pub = args["open_envelope"]
        forged = envelope.SignedEnvelope(env.sender_id, env.recipient_id,
                                         env.ciphertext[:-1] + b"?", env.signature)
        with pytest.raises(envelope.AuthError):
            storage.open_envelope(forged, recipient, sig_pub)
        assert t.counts["envelope.open.rejected"] == rejected + 1
    calls = t.calls()
    for name, n in expected.items():
        assert calls[name] >= n, name
    assert calls["storage.historian_load"] == 1
    for module, bound_as, _, original in bindings:
        assert getattr(module, bound_as) is original


def test_self_time_excludes_children():
    t = tracing.Tracer()
    with t:
        sim = Simulation(SimConfig(seed=1))
        sim.run(2)
    self_ns, calls = t.self_ns(), t.calls()
    total = sum(t.span_end[i] - t.span_start[i]
                for i in range(len(t.span_start)) if t.span_parent[i] < 0)
    assert calls["sim.tick_loop"] == 1
    assert sum(self_ns.values()) == total
    assert all(v >= 0 for v in self_ns.values())
    assert t.counts["storage.records_checked"] == workloads.validator_duties(sim)[0]


def test_attack_episode_operations_pass_and_a_miss_fails():
    sim, tampers, latencies = workloads.attack_episode(7)
    unit = workloads.Unit(0.0, 0, 0)
    workloads.check_episode(unit, 7, sim, tampers)
    assert (unit.attempted, unit.failed) == (workloads.EPISODE_INTERVALS, 0)
    assert max(unit.detect_delays) == 1 and len(latencies) == workloads.EPISODE_INTERVALS

    sim.historian(tampers[0].node_id).tamper(tampers[0].key, (99,))
    unit = workloads.Unit(0.0, 0, 0)
    workloads.check_episode(unit, 7, sim, tampers)
    assert unit.failed >= 1 and "interval 2 (at_rest)" in unit.failures[0]


def test_times_scale_by_the_surrounding_calibrations():
    ref = run.REFERENCE_CAL_S
    scaled = run.at_reference_speed([1.0, 3.0], [ref, ref, 3 * ref])
    assert scaled == pytest.approx([1.0, 1.5])
