"""Golden fingerprints of every artifact a seeded run and the A/B/C scenarios write.

Criterion 9 only checks that two runs agree with each other; these pins also
catch a change that alters the output the same way in every run. A pin may
change only together with a CHANGES.md entry that says why the bytes moved.
"""

import hashlib
from pathlib import Path

import pytest

from histchain.attacks import run_scenario_a, run_scenario_b, run_scenario_c
from histchain.audit import audit_directory
from histchain.config import SimConfig
from histchain.ledger import dump_chain, parse_chain_dump
from histchain.sim import Simulation
from histchain.storage import Historian

RUN_10_MINUTES_SEED_42 = {
    "chain.txt": "4af0bde2da52c028535719f8def80f462327e959d7ec2a0b14b234225582848a",
    "events.log": "6ea69ee8de4d7b2a0fa9addd25cce611869571e58d1b5024d2871d86d5d7e844",
    "historian1.txt": "3df3449816925666776527b69e6360ec256c96602502ec987f24ba0f8cb6a3bd",
    "historian2.txt": "352b75f9cb955f9de898b0ce542601e4ae7054369f5ad9464777aabbeba4a012",
    "historian3.txt": "fecaaad35263aea688e7bf498fc645b555975a9155e0c9b88d9acdff0f651a3b",
    "historian4.txt": "14b3305bfad0d9fcf2ca3e7f4fab4294f7be27aaa008f75401daebde0ef2b777",
    "historian5.txt": "6aeaef352e477c4f57f337a0f72cf9e86ab37ac177bc99db8df26eb09397ad2c",
    "historian6.txt": "c4a696f6ed99f99f8018714200fa7d7b1e477f1fb7452d3eccb6a850c58b82cd",
    "wire_trace.txt": "7f900ce2589d358808b606d9c403d2aaff8d2fc3c20e1fa8565223cd00298b7d",
}

# Sensor noise, non-unit flow rates and a capacity that is not a whole number,
# which the seed-42 run above leaves unexercised.
NOISY_RUN_CONFIG = SimConfig(seed=1, sensor_noise=True, flow_rate_a1=0.7,
                             flow_rate_a2=1.3, flow_rate_a3=0.9, capacity=9.5)
RUN_25_MINUTES_NOISY = {
    "chain.txt": "d483997684a71fbce5d1cd1c8136c1ee4776bcc66f713703225841e9f4793908",
    "historian1.txt": "d299f95fb6a19dbaad061858eea98edd64f578dab756fdb5161867f660858e84",
    "historian2.txt": "0b689356496800256b766a33095a739ebd38adf64ee3aacfc76e1b2cc8c5cbe2",
    "historian3.txt": "ec07b2e8fe539ecb4c3f889202d96ace04f50562c49cdf2597b11c4c813fcc91",
    "historian4.txt": "091d9c932d3d9829e1b7be000f27b91884e4a6d130f22e1831386b102b540bea",
    "historian5.txt": "612e21e67f81f62e8012c4f8795c82e23a1277fcff9f7d76224d73faefa53c9a",
    "historian6.txt": "46a7eee7adaa1c4b58d74c7b90174a325560a1abd0e05006ad6e3a80d1801bd4",
}

# 240 minutes, 241 blocks: the pull order and every Historian's record order
# held over many blocks, not only over the short runs above.
RUN_240_MINUTES_SEED_42 = {
    "chain.txt": "c5378857e783714e3cb741f410466409f46beb4fb09e4049ab006e0176760ea7",
    "historian1.txt": "6b5d7eaed895120c3e4df422e20bc4fa03f0cb939bccc942f42ab36ee9348843",
    "historian2.txt": "191c19fc29ee81b5703f68548feebaf10a5fbb67e9d1fae6e21d4e46c061a431",
    "historian3.txt": "aa35593efb9783a5c93013173b2ce04d3040c7ec88d87696adbe299666afb897",
    "historian4.txt": "ea6bf0c4c3851e0fe31c4e1f0829832f4855a094579f84609b3ccd646f8eb2ae",
    "historian5.txt": "29575df85187b50023f65237640b834a62dc2d55ff7c6a5ee22c50233cf37860",
    "historian6.txt": "309f9443798cd36fdec53b22e37712264d08937e5206563eff4e50dd12d9976b",
}

# SHA-256 of audit_directory(...).to_text() over the run above.
AUDIT_10_MINUTES_SEED_42 = "94faefe4f4bc4bcfaf8dc24d997959120c56c85047de8bcb05fdbabb59a5c159"

SCENARIO_A = {
    "chain.txt": "4497b1093af43b3b05ebdbc2e7a597a34a5680511f43bcbb487a3b5b4e261d69",
    "events.log": "b29508abfaa562038c1a5fa86aafcd192a461c4483fa0f00b359f7778dc539b1",
    "historian1.tampered.txt": "25443ec8e3839243dcbc816b135337f01211e88699141b63d16d0c5163216237",
    "historian1.txt": "74f2455e9f1dc56c44a3d98ff18dffdd843d4dde71caa56dd2a9cd28218762b5",
    "historian2.tampered.txt": "014d9bbd4afd1a48694fdf570c950e18a5e84f6818d83adf34aa72873ca26c3b",
    "historian2.txt": "014d9bbd4afd1a48694fdf570c950e18a5e84f6818d83adf34aa72873ca26c3b",
    "historian3.tampered.txt": "cb1187a7dbfbf91676d60bc8cfa593805aac4622487a4f0e7993960046d0a980",
    "historian3.txt": "cb1187a7dbfbf91676d60bc8cfa593805aac4622487a4f0e7993960046d0a980",
    "historian4.tampered.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "historian4.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "historian5.tampered.txt": "30080f02ca2eea358c446e0858974a1c637c12f5f4f0414edc7ad20c7ce1962b",
    "historian5.txt": "30080f02ca2eea358c446e0858974a1c637c12f5f4f0414edc7ad20c7ce1962b",
    "historian6.tampered.txt": "ef51cb135934151c021aaaf334ba30d2a74b8cf6b879b2c06ffc6dcbccbd66e9",
    "historian6.txt": "ef51cb135934151c021aaaf334ba30d2a74b8cf6b879b2c06ffc6dcbccbd66e9",
    "scenario_report.txt": "bb899448b00078cf2403d83ae10c2636d7dc4d3eefb962498666c956e6305505",
}

SCENARIO_B = {
    "chain.txt": "d5897002b4482bbead09fd5ccff2bd6e304ede2026db120ec4285fd90d49f005",
    "events.log": "2a88e8374dadd265aed59791af4243058e0b2090af09f4f4ebb083f3a73b099f",
    "historian1.txt": "9f57b8ae775e5dab8ad5d0f42e1ffcf4151d09cdc7286f07582e10edf0781357",
    "historian2.txt": "3acd583825ebbefd36a0f062be2241feae3b18134b2fe5687b21cf9ae7558fd2",
    "historian3.txt": "3196897fb1ff88b0c8d1db0c3f26a41bd691c4a948a3212acc77409dd3cb02ed",
    "historian4.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "historian5.txt": "057f113e4d44ddbd39f05d1834164bd3c1c6ff5207753649366285a3d9d7f353",
    "historian6.txt": "03774b95cfa4559ffffeaac11afa4b81f0a90bd0d457a7d5fdafe0a49f621e4a",
    "scenario_report.txt": "162186fdb16f7c975dda535708372b3c4096676008022a4bdddfb69012b1a305",
}

SCENARIO_C = {
    "chain.txt": "d5f803af31cba05a28cd5a05a5d60fa512155df90f56c4bca8cae4ac1bfe2708",
    "events.log": "3c476fc3433f0676ffdc87e2f0f3e49a2c5367060e90f54274dc8a33cdf5202e",
    "historian1.txt": "fdeee8d616d0d23a5f78eb7812eed7e8efbb37ec7d26c9fd76403ed720a076d0",
    "historian2.txt": "3acd583825ebbefd36a0f062be2241feae3b18134b2fe5687b21cf9ae7558fd2",
    "historian3.txt": "d77119bd4e8c79133d52a59f583d2b1abe9bfb6bb0cccca0adc3e553a8b23e78",
    "historian4.txt": "d77119bd4e8c79133d52a59f583d2b1abe9bfb6bb0cccca0adc3e553a8b23e78",
    "historian5.txt": "291db487b77ceb760a98b57a99b9f31b6cba84d8ab23ace2f9bdf693c0a71f6b",
    "historian6.txt": "9bab33e62092d7b37d9add8c0c9c9394a13940e02377ac2ee1834ebec5210ffe",
    "scenario_report.txt": "8b394e4682c2573f50ddcd6302db18b0df569a245d541551464bdf26c1ad5414",
}


def fingerprints(outdir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


def test_clean_run_artifacts_pinned(tmp_path):
    sim = Simulation(SimConfig(seed=42, trace_wire=True))
    sim.run(10)
    sim.write_artifacts(tmp_path)
    assert fingerprints(tmp_path) == RUN_10_MINUTES_SEED_42


def test_noisy_run_with_uneven_flows_pinned(tmp_path):
    sim = Simulation(NOISY_RUN_CONFIG)
    sim.run(25)
    sim.write_artifacts(tmp_path)
    pinned = {name: digest for name, digest in fingerprints(tmp_path).items()
              if name in RUN_25_MINUTES_NOISY}
    assert pinned == RUN_25_MINUTES_NOISY


def test_long_run_chain_and_historians_pinned(tmp_path):
    sim = Simulation(SimConfig(seed=42))
    sim.run(240)
    sim.write_artifacts(tmp_path)
    pinned = {name: digest for name, digest in fingerprints(tmp_path).items()
              if name in RUN_240_MINUTES_SEED_42}
    assert pinned == RUN_240_MINUTES_SEED_42


def test_parsers_give_back_the_pinned_bytes(tmp_path):
    """Each reader of an artifact inverts its writer on the pinned run, and
    the offline audit of that run reads the same."""
    sim = Simulation(SimConfig(seed=42, trace_wire=True))
    sim.run(10)
    sim.write_artifacts(tmp_path)
    for node_id in sim.nodes:
        text = (tmp_path / f"historian{node_id}.txt").read_text(encoding="utf-8")
        assert Historian.load(node_id, text).dump() == text
    chain_text = (tmp_path / "chain.txt").read_text(encoding="utf-8")
    assert dump_chain(parse_chain_dump(chain_text)) == chain_text
    report = audit_directory(tmp_path).to_text().encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == AUDIT_10_MINUTES_SEED_42


@pytest.mark.parametrize("run_scenario, expected", [
    (run_scenario_a, SCENARIO_A),
    (run_scenario_b, SCENARIO_B),
    (run_scenario_c, SCENARIO_C),
], ids=["A", "B", "C"])
def test_scenario_artifacts_pinned(tmp_path, run_scenario, expected):
    run_scenario(outdir=tmp_path)
    assert fingerprints(tmp_path) == expected
