"""Byte-level goldens for session transcripts and CLI reports.

Each digest is the sha256 of canonical JSON, so any change in a printed
float, event or verdict shows up here. The digests were recorded with
numpy 2.4.6 on x86-64; a refactor of the protocol or consistency code
must leave every one of them unchanged.
"""

import hashlib
import itertools

import numpy as np
import pytest

from ctcsim import cli
from ctcsim.gates import GateSpec
from ctcsim.protocol import FORMALISMS, ProtocolConfig, run_session
from ctcsim.states import StateVector

INPUT = StateVector.qubit(np.cos(0.4), np.exp(-2.1j) * np.sin(0.4))
CTC_STATES = (StateVector.basis(0), StateVector.qubit(np.cos(0.9), np.exp(1.3j) * np.sin(0.9)))
GATES = {
    "swap": GateSpec("swap"),
    "cnot": GateSpec("cnot"),
    "controlled_phase": GateSpec("controlled_phase", 0.7),
}

SESSION_DIGESTS = {
    "nominal/wavefunction/swap": "72eebed984823d5cf2ec64a456ea65cbe5cb2c9ace64cc07d8a9fb7a198653f8",
    "nominal/wavefunction/cnot": "105477f9b2cc7d3f7857a964275e6af28532b6381fa5e6a138fb7f65a02ef48f",
    "nominal/wavefunction/controlled_phase": "6a1f8e97a754e0eb3dc2409cc6b6674c1dc00ac5f9bc0f9cf5dc748ac9ba1fcc",
    "nominal/density/swap": "7875b3c3ad6d0abd665d56eb16ebae4ccb27b43222b1bbc5141cb7a6a6a43b6e",
    "nominal/density/cnot": "eb5ccb7b747ca1f6bdcaa85de50065040132bf860b5571c920c3c7de825a944b",
    "nominal/density/controlled_phase": "b9626e3d3f6be8646ddab13784808bb0b4272328a1e90f7909b32314bec59924",
    "bob_skips/wavefunction/swap": "dbe9838b9ab5d1021f211b6c142cbd8c79b4c3bad15c22194de08ff83683e5fe",
    "bob_skips/wavefunction/cnot": "a38be0be2b97e4324ac81b7e6459e652ad7001d92952112f31035015834a6eee",
    "bob_skips/wavefunction/controlled_phase": "d802359da794d11852bc36b495b12430076ef11ca2b2eb8437406552cccf4379",
    "bob_skips/density/swap": "4f666a3b60660176323377e24c4fb85184a7074836cd2220753ef096817ba9a4",
    "bob_skips/density/cnot": "b431836dc138627ed0d69a91a856a7f54dd0a086923b9070db1584b4d17fdcb0",
    "bob_skips/density/controlled_phase": "a14779c1ee31d88d1ec73e7a2d1c558d5ced831651a2fa4d797b8537f4920f93",
    "self_signal/wavefunction/swap": "b61444955f572f915276ff2cc66fa26a8d58e7a6896865c8e67c66a88ec2b30c",
    "self_signal/wavefunction/cnot": "62150517d6a3afa8e29f26de35d4cfe7fe8271887db58fc8f98bc0b1b3259d0f",
    "self_signal/wavefunction/controlled_phase": "b97a52be32e24cc038cb1f08bdb24b2f7f9b6bb27a8fde953b16c38d4715fb20",
    "self_signal/density/swap": "f4f0e2a612006df1dbf0a22d76f7e89c018f2a0e63b8c7b9ff0450e67e4c5b25",
    "self_signal/density/cnot": "d9a34d7eeb8bb62e977318df9e03461d306456514293632cd60ef41c456eec39",
    "self_signal/density/controlled_phase": "30a6069c4b1d03821165c8a5e69f8ba08606db963eb4564c962cb956d8ee9ddb",
    "storage/wavefunction/swap": "2a586892184f8353c483196ede99abbdad2a4eeb02a70e4084d3a83a55888a67",
    "storage/wavefunction/cnot": "0f61688bae173d074d31d3fcde40da58d8e26a05fb9f05d73cf525789fc2c50f",
    "storage/wavefunction/controlled_phase": "4c4207f64df44e138671f78b89fdddf417972465bd341bc6fde7018ffc5782da",
    "storage/density/swap": "a01d3b989516c654813b5c37083163c6a3cf1ff63d6952a2d1d830d0e7664025",
    "storage/density/cnot": "1f53a1a5fb6c75ebf0b9b464431726d0d8950426517844bc9c7fe9a16e80606c",
    "storage/density/controlled_phase": "2176fe46a5444f001914416ddb5d0b98a7b89ab47ca99bee410f12fdcc186ea6",
}

CLI_DIGESTS = {
    "run_protocol": "7ba43ac1f54fc00b1798d17053fb0ed6e91ef785cad88a86bf3e28c553cfb910",
    "self_signal": "6532ef07d8b73475067b3839f2e567c6d584d6fc47028f1351befdd2b2daaee6",
    "fixed_point": "6c108f03c27a27e041ccf31d7dcde01f54723677d0164140807a9c543e0639a0",
    "beam": "a9da1a59abfd36dfe4a819aac6792367a20942293c44fc551d1aa3ba37f7693d",
    "teleport": "f6ae9d94d345e26d15f291ba24aa299c1664686e10cc1cc176f0ebbcce5fab6c",
    "topology": "bfac0ec4079e4df1494f0936325755d9552f6f24b0b7165f4fd4cb698a3d4c7f",
    "resources": "557bf0c4863fe71d54d8081b4137c89f4fcafadd2721701e222b8e8a146e31b0",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scenario", ("nominal", "bob_skips", "self_signal", "storage"))
@pytest.mark.parametrize("formalism", FORMALISMS)
@pytest.mark.parametrize("gate", tuple(GATES))
def test_session_transcripts_match_golden(scenario, formalism, gate):
    """One digest over bob_measures x {|0>, a generic pure CTC state}."""
    texts = []
    for bob_measures, ctc in itertools.product((False, True), CTC_STATES):
        config = ProtocolConfig(
            input_state=INPUT,
            ctc_initial=ctc,
            gate=GATES[gate],
            formalism=formalism,
            scenario=scenario,
            bob_measures=bob_measures,
            seed=11,
            storage_cycles=3,
        )
        texts.append(cli.canonical_json(run_session(config).to_json()))
    assert _sha("\n".join(texts)) == SESSION_DIGESTS[f"{scenario}/{formalism}/{gate}"]


CLI_ARGVS = {
    "run_protocol": ["run-protocol", "--state", "0.6,0,0.8,0", "--seed", "7"],
    "self_signal": ["run-protocol", "--scenario", "self_signal", "--bob-measures", "--seed", "3"],
    "fixed_point": ["fixed-point", "--unitary", "controlled_rotation", "--state", "0.6,0,0.8,0"],
    "beam": ["beam", "--trials", "40", "--seed", "11"],
    "teleport": ["teleport-baseline", "--state", "0.6,0,0,0.8", "--seed", "2"],
    "topology": ["topology-check", "--copies", "3"],
    "resources": ["resources", "--seed", "5"],
}


@pytest.mark.parametrize("name", tuple(CLI_ARGVS))
def test_cli_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    assert cli.main(CLI_ARGVS[name]) == 0
    assert _sha(capsys.readouterr().out) == CLI_DIGESTS[name]
