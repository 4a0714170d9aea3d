"""Acceptance suite: every release criterion as one test, with a printed
pass line per criterion. Run with `pytest tests/test_acceptance.py -s`.

Criteria:
 1. Insider tampering on a seeded Historian is detected in one validator
    cycle, recovered from a replica, leaving the other records intact. <1 s.
 2. MITM on PLC1->node1 for one interval: exactly one digest-mismatch alarm,
    nothing stored, normal storage resumes next interval. <1 s.
 3. MITM on node1->chain: the minted block carries only node2's index, the
    suppressed digest never appears in the chain dump, and a coverage-gap
    warning is raised. <1 s.
 4. Detection completeness: over a clean 10-minute run, every single-record
    mutation is flagged by the next validator cycle with zero false
    positives. <30 s.
 5. Recovery matrix: 500 seeded trials corrupting random nonempty subsets of
    a record's three copies; recovery succeeds iff at least one copy is
    intact, and recovered bytes always match the ledger digest.
 6. Chain integrity: on a 100-block chain, >=200 sampled single-field
    mutations each yield the correct first-bad-block position.
 7. Envelope: >=1000 randomized seal/open round trips succeed and >=1000
    randomized single-byte mutations are all rejected.
 8. Replica assignment: 10,000 seeded draws are uniform over the 20 ordered
    pairs (chi-squared, significance 0.01).
 9. Determinism: `run --minutes 10 --seed 42` twice gives byte-identical
    event logs, chain dumps, and historian dumps.
10. Oracle equivalence: offline audit verdicts match the in-simulation
    validator on identical state.
"""

import random
import time

import pytest
from scipy.stats import chisquare

from histchain import events as ev
from histchain.attacks import run_plan, run_scenario_a, run_scenario_b, run_scenario_c
from histchain.audit import audit_artifacts
from histchain.cli import main
from histchain.config import SimConfig, fmt_minute
from histchain.envelope import (
    AuthError,
    generate_node_keys,
    open_envelope,
    seal,
    vector_digest,
)
from histchain.ledger import dump_chain, verify_chain
from histchain.minter import draw_replicas
from histchain.sim import Simulation
from histchain.storage import TAMPERED_RECOVERED
from .helpers import BLOCK_MUTATIONS, build_chain, mutated_chain


def report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_historian_tamper_detect_recover():
    t0 = time.monotonic()
    rep = run_scenario_a()
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.to_text()
    flagged = [f for f in rep.findings if f.verdict != "intact"]
    assert [f.key for f in flagged] == [("Sensor 1", "2020-12-23T17:27")]
    assert flagged[0].verdict == TAMPERED_RECOVERED
    restored = rep.sim.historian(1).get(("Sensor 1", "2020-12-23T17:27"))
    assert restored.values == (6, 7, 7, 6, 7, 7, 6, 7, 7, 6)
    intact_keys = {f.key for f in rep.findings if f.verdict == "intact"}
    assert ("Sensor 1", "2020-12-23T17:26") in intact_keys
    assert ("Sensor 2", "2020-12-23T17:28") in intact_keys
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "historian tamper detected and recovered")


def test_criterion_2_mitm_plc_storage():
    t0 = time.monotonic()
    rep = run_scenario_b()
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.to_text()
    assert len(rep.sim.events.by_code(ev.DIGEST_MISMATCH, "node1")) == 1
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, "measurement injection rejected, storage resumes")


def test_criterion_3_mitm_storage_chain():
    t0 = time.monotonic()
    rep = run_scenario_c()
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.to_text()
    suppressed = dict(rep.notes)["suppressed_digest"]
    assert suppressed not in dump_chain(rep.sim.chain_module.chain)
    assert rep.sim.events.by_code(ev.COVERAGE_GAP, "node1")
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(3, "index injection kept out of the chain, gap warned")


def test_criterion_4_detection_completeness():
    t0 = time.monotonic()
    sim = Simulation(SimConfig(seed=42))
    sim.run(10)
    chain = sim.chain_module.chain
    assert len(chain) >= 11  # genesis + 10 blocks
    assert verify_chain(chain) is None

    checked = 0
    for node_id in sorted(sim.nodes):
        node = sim.nodes[node_id]
        for key in [r.key for r in node.historian.records()]:
            original = node.historian.get(key)
            forged = (original.values[0] + 1,) + original.values[1:]
            node.historian.tamper(key, forged)
            flagged_total = []
            for other_id in sorted(sim.nodes):
                findings = sim.nodes[other_id].validate_cycle(chain)
                flagged_total += [
                    (other_id, f.key) for f in findings if f.verdict != "intact"
                ]
            assert flagged_total == [(node_id, key)], \
                f"mutation of {key} on node{node_id} flagged {flagged_total}"
            assert node.historian.get(key).values == original.values, \
                "validator recovery must restore the record"
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 30
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(4, f"{checked} single-record mutations all detected, 0 false positives")


def test_criterion_5_recovery_matrix():
    sim = Simulation(SimConfig(seed=17))
    run_plan(sim, 1, {0: [{"plc1": [6, 7, 7, 6], "plc2": None}]})
    (ix,) = [i for b in sim.chain_module.chain.blocks for i in b.indexes]
    minute = fmt_minute(ix.captured_at)
    key = ("Sensor 1", minute)
    original = sim.historian(ix.replica_ids[0]).get(key).values
    holders = list(ix.replica_ids)

    trial_rng = random.Random(500_500)
    recovered_trials = 0
    for trial in range(500):
        subset = trial_rng.sample(holders, trial_rng.randint(1, len(holders)))
        for nid in subset:
            sim.historian(nid).tamper(key, (99, trial % 7))
        invoking = next(n for n in holders if n in subset)
        outcome = sim.nodes[invoking].recover(ix)
        should_succeed = set(subset) != set(holders)
        assert (outcome is not None) == should_succeed, \
            f"trial {trial}: corrupted {subset}, outcome {outcome}"
        if outcome is not None:
            recovered_trials += 1
            stored = sim.historian(invoking).get(key)
            assert vector_digest(stored) == ix.vector_digest
        for nid in holders:  # reset for the next trial
            sim.historian(nid).tamper(key, original)
    assert 0 < recovered_trials < 500
    report(5, f"500 corruption trials, {recovered_trials} recoverable, predicate exact")


def test_criterion_6_chain_integrity():
    chain = build_chain(100)
    assert verify_chain(chain) is None
    rng = random.Random(6_100)
    mutations = 0
    while mutations < 200:
        position = rng.randrange(0, len(chain.blocks))
        kind = rng.choice(BLOCK_MUTATIONS)
        if position == 0 and kind.startswith("index_"):
            continue
        bad = verify_chain(mutated_chain(chain, position, kind))
        assert bad is not None, f"{kind}@{position} undetected"
        assert bad.position == position, (kind, position, bad)
        mutations += 1
    assert verify_chain(chain) is None
    report(6, f"{mutations} sampled mutations all localized correctly")


def test_criterion_7_envelope_properties():
    rng = random.Random(7_000)
    sender = generate_node_keys("plc1", rng)
    recipient = generate_node_keys("node1", rng)

    for _ in range(1000):
        payload = rng.randbytes(rng.randint(1, 120))
        env = seal(payload, sender, "node1", recipient.enc_pub, rng)
        assert open_envelope(env, recipient, sender.sig_pub) == payload

    rejected = 0
    for _ in range(1000):
        payload = rng.randbytes(rng.randint(1, 120))
        env = seal(payload, sender, "node1", recipient.enc_pub, rng)
        target = rng.choice(("ciphertext", "signature"))
        blob = bytearray(getattr(env, target))
        pos = rng.randrange(len(blob))
        blob[pos] = (blob[pos] + rng.randint(1, 255)) % 256
        mutated = type(env)(
            env.sender_id, env.recipient_id,
            bytes(blob) if target == "ciphertext" else env.ciphertext,
            bytes(blob) if target == "signature" else env.signature,
        )
        with pytest.raises(AuthError):
            open_envelope(mutated, recipient, sender.sig_pub)
        rejected += 1
    assert rejected == 1000
    report(7, "1000 round trips ok, 1000 single-byte mutations all rejected")


def test_criterion_8_replica_assignment_uniform():
    rng = random.Random(8_000)
    counts = {}
    for _ in range(10_000):
        _, r1, r2 = draw_replicas(1, 6, 3, rng)
        counts[(r1, r2)] = counts.get((r1, r2), 0) + 1
    others = [i for i in range(2, 7)]
    pairs = [(a, b) for a in others for b in others if a != b]
    assert len(pairs) == 20
    assert set(counts) <= set(pairs)
    observed = [counts.get(p, 0) for p in pairs]
    result = chisquare(observed)
    assert result.pvalue >= 0.01, f"chi2={result.statistic:.2f} p={result.pvalue:.4f}"
    report(8, f"10000 draws, chi2 p={result.pvalue:.3f} over 20 ordered pairs")


def test_criterion_9_run_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--minutes", "10", "--seed", "42", "--out", str(out_a)]) == 0
    assert main(["run", "--minutes", "10", "--seed", "42", "--out", str(out_b)]) == 0
    compared = []
    for name in ["events.log", "chain.txt"] + [f"historian{i}.txt" for i in range(1, 7)]:
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    assert len(compared) == 8
    report(9, "two seeded runs byte-identical across all artifacts")


def test_criterion_10_oracle_equivalence():
    # Tampered state: offline audit must flag exactly what the validator flags.
    rep = run_scenario_a()
    audit = audit_artifacts(dump_chain(rep.sim.chain_module.chain), rep.attacked_dumps)
    validator_flagged = {(1, f.key) for f in rep.findings if f.verdict != "intact"}
    audit_flagged = {(f.node_id, f.key) for f in audit.flagged()}
    assert audit_flagged == validator_flagged

    # Clean state plus sampled fresh mutations: verdicts agree record by record.
    sim = Simulation(SimConfig(seed=42))
    sim.run(3)
    chain = sim.chain_module.chain
    chain_text = dump_chain(chain)
    clean = audit_artifacts(chain_text,
                            {i: n.historian.dump() for i, n in sim.nodes.items()})
    assert clean.all_intact
    for node in sim.nodes.values():
        assert all(f.verdict == "intact" for f in node.validate_cycle(chain))

    sampled = [(i, r.key) for i, n in sim.nodes.items()
               for r in n.historian.records()][::4]
    for node_id, key in sampled:
        node = sim.nodes[node_id]
        original = node.historian.get(key)
        node.historian.tamper(key, tuple(v + 1 for v in original.values))
        dumps = {i: n.historian.dump() for i, n in sim.nodes.items()}
        offline = audit_artifacts(chain_text, dumps)
        offline_flagged = {(f.node_id, f.key) for f in offline.flagged()}
        online_flagged = set()
        for other_id, other in sim.nodes.items():
            online_flagged |= {(other_id, f.key)
                               for f in other.validate_cycle(chain)
                               if f.verdict != "intact"}
        assert offline_flagged == {(node_id, key)} == online_flagged
    report(10, f"audit agreed with the validator on {len(sampled)} tampered states")
