"""Byte-level goldens for session transcripts, beam reports and CLI reports.

Each digest is the sha256 of canonical JSON, so any change in a printed
float, event or verdict shows up here. The digests were recorded with
numpy 2.4.6 on x86-64; a refactor of the protocol or consistency code
must leave every one of them unchanged. Each digest is checked again with
the outputs of numpy's LAPACK calls moved by one ulp either way, as
another LAPACK build may move them.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from ctcsim import cli, consistency, protocol
from ctcsim.gates import GateSpec
from ctcsim.protocol import BEAM_POLICIES, FORMALISMS, ProtocolConfig, run_beam, run_session
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
    "fixed_point_swap": "4e69d12f98bd23b0ec6732b7be2ecc53846766efcf78008a2ea1b868dd3f5d61",
    "beam": "a9da1a59abfd36dfe4a819aac6792367a20942293c44fc551d1aa3ba37f7693d",
    "teleport": "f6ae9d94d345e26d15f291ba24aa299c1664686e10cc1cc176f0ebbcce5fab6c",
    "topology": "bfac0ec4079e4df1494f0936325755d9552f6f24b0b7165f4fd4cb698a3d4c7f",
    "resources": "557bf0c4863fe71d54d8081b4137c89f4fcafadd2721701e222b8e8a146e31b0",
    "beam_csv": "91e96305cdacba797b864fe8fc7b6baf9fe858afa974cc77f291a4277ced2475",
    "beam_cap": "cd9e447d5751c36661e9a8dadad575cb86acb35e5c5f4fd12232340a80d9cce1",
    "beam_cap_csv": "90bc9e220ec76126ab67cc6e86d7d344f234fd0eb2de6e9cf267aafdf3baefea",
    "grid_cap_identity": "ae4ce12794b600183e14693afd7d12492e3eb6d9298244c489195f264c90ca44",
    "grid_cap_swap": "2296aad3706efd20259dea9e490cd3f480e1b98720e242c705075e6aad0ca043",
    "storage_cap": "9992a7d76e4566434a5678a4f7e82609e3238c560a9c43306516f6d327cf3bf3",
    "storage_cap_csv": "ea89479c696911bec0c8ba27dc4da44d3a638631a7aa06b71f4baebf5e99f7c0",
}

#: Keyed by policy/random/seed/trials: each trial draws both of its bases.
BEAM_DIGESTS = {
    "collapse/random/0/1": "01f59e09d89e02468e5b75e8aa83a7cdca710ea0e91eca2e87c364d00154fa79",
    "collapse/random/0/37": "f42457b59dbc943cf6b154c11719a0d8d5a839c38e5d082fa40ad998c95f5b1c",
    "collapse/random/0/2000": "8ea6fa0120ef78e68e1088bfba665edd96a5c224b0d95bb0193fcb979c138250",
    "collapse/random/11/1": "13c5803d61ebdce48637e3b175699f7d2aa0ee2b543a51a2dcbd51224a6ae060",
    "collapse/random/11/37": "fb9f34c4e324cc58c84fc44b596d75c4e37d000a0518da11b9a87429f18f11ba",
    "collapse/random/11/2000": "a4aaa16a305a3193f88731da8765efafcbad24b39bf85a6b907efc89b96a2b9a",
    "collapse/random/7919/1": "7f3b5fb0d32f13314acb6ecde70556b47dec34fc4a2594f7e6cb15fe61bac668",
    "collapse/random/7919/37": "d95e1126051354f576d35156d6388addc53ec20b0362a7b7a957a7e615d513fd",
    "collapse/random/7919/2000": "f1320ea4ccf2363b2f9b4b9d3c99395c667fd4760b9abd8198f6ad243b65348b",
    "discard/random/0/1": "dea44d654868f2803cb1cc640acdcaf2caca03b44840dddcd2527438be1b6e59",
    "discard/random/0/37": "68952bf1d6317ecc3046a08dcaa86fb03d6752bc3258ab79dcb7273c4c343acc",
    "discard/random/0/2000": "40ec812e467031aa1b0845c7b4b5e2a63dee47301404951e4f5bc75a6f1d8fc3",
    "discard/random/11/1": "9910f508c8461cb57ec3abab3ed237b19116c5b97b14ee50c00fc48043cc146f",
    "discard/random/11/37": "7005c7550067fd914f0f7d04a6566f118f61202106dd4ee5bd9ea373cf50b455",
    "discard/random/11/2000": "23851754405969cef222ccecdc5bce6f7db4b678def0a30291a199b6600a4000",
    "discard/random/7919/1": "a5bfda031d4ec5c92c5594028de4f47245f7345f42e082623c0e135f335fe2ec",
    "discard/random/7919/37": "a25142d6807db2cfe2d91b37031e891c7c7ab12163774865ce5dd76a9251e244",
    "discard/random/7919/2000": "b9df5cc0b20d4655708116f30d2fc3b55c80a0893890e8700947b468da0e9974",
    "noise/random/0/1": "0d8a227d7e250ac9a5d638c2f826f4575d558d093322e551d288ab734d39c9e2",
    "noise/random/0/37": "5631407be506b5db9976394f298408b39de8186a77e86fdced6c4dd7d42e96e0",
    "noise/random/0/2000": "7eebebbe500bc4e3060ba02af94c0096e470bd1f42c4aaf269a32e92e573f9c9",
    "noise/random/11/1": "c1aed4c1bf6b4f34a2864313fc99fe7755e08d8335289670326be37fb6f63c6a",
    "noise/random/11/37": "83e6934d3826fd56c549617fa940777cbd2f8e354e0d3c7f7dc8b35cba33285f",
    "noise/random/11/2000": "3de9578e2b4fb753692588a6713edb7f1141a8e7d764c2f84a745b6ff2db6671",
    "noise/random/7919/1": "499baf59f11308281c571417d1df41d6f22569f729ff0dc6948df12d4bf07476",
    "noise/random/7919/37": "37f765a4ae722c24dbdd6f845ee76a127345fcb68e037b4ce4fdf1e6c7f64563",
    "noise/random/7919/2000": "0341b54daa0ac020186f7c9b3d74719c14507d4478f7755d49588c152c55e35a",
}


#: Seeds wider than one 32-bit word: SeedSequence reads a seed as its
#: little-endian 32-bit words, so these pin the beam's multi-word path.
MULTIWORD_SEEDS = (2**32, 2**64, 10**26)
MULTIWORD_BEAM_DIGESTS = {
    "collapse/random/4294967296/1": "a167df7b853e0d5608710a97f9c131212ac1aa20ceeaac70213a8dafb7d4d0d5",
    "collapse/random/4294967296/37": "8f24dcce61e36ee45c9c2b468dbc264b8e5ee4df19ed561b668012c0dca27b77",
    "collapse/random/4294967296/2000": "ab4e7f90b3405c1d9d05d380e6d69fc5ccbc7fba4708da007d9fc1eddadeaa6a",
    "collapse/random/18446744073709551616/1": "e70ad96f51cd41d06a45fb400dd141885a41b7e1a0557c17aaebd202fae1dca9",
    "collapse/random/18446744073709551616/37": "71e1c201bca8dd4b30db3110b175aad5f373be9bdfc4270af9f002f029c371f0",
    "collapse/random/18446744073709551616/2000": "4713becafcc2c2c3edfb564ff5cbdab3a5ba56bccdd9b13c65fd110df920b87c",
    "collapse/random/100000000000000000000000000/1": "64821bc5b05b6531241698dd0e8b4d25d948a19b9aa34dec54a76ac5c91aae5f",
    "collapse/random/100000000000000000000000000/37": "46c4bc25e89320143b8a57f39d7ae849f7419a866f5b3777dd493a3ec34e25a8",
    "collapse/random/100000000000000000000000000/2000": "dad928870c9b00641a0c9e2d26baca52b4174febf7ac8505002de6412e3d821c",
    "discard/random/4294967296/1": "5def7a8935730c61b433e4cadfbc62b6c9df4b42b5de2362c4daaaac624bb79e",
    "discard/random/4294967296/37": "d4f0e67509854b74346faa128dae9029c58340402ba70311afd0c4a7f6ab646e",
    "discard/random/4294967296/2000": "0fcfe66268dbf1f6f84bf845d0e5a8255cdd73fee36171a86968a8d7f0379a71",
    "discard/random/18446744073709551616/1": "598e1cc26afc744dcd1a03197e9da5cf3d96d52f7880be8690fae1e448c2cd67",
    "discard/random/18446744073709551616/37": "515de34709992d9e543e70c3af63443264a42695b5a6c21a7602247922a64892",
    "discard/random/18446744073709551616/2000": "54437f33d2ebcc13af52ea89fdc789354a87e9ca4ea90c14e4aadcdaa360cf1d",
    "discard/random/100000000000000000000000000/1": "8388778f7198a35aac96570ebe684cabc2a6c03d8eb8a18e4f05b8de709ff5da",
    "discard/random/100000000000000000000000000/37": "9ef69a9894eafcba7440b20f9620298bdc31aef182332f1dd444297985ba3aee",
    "discard/random/100000000000000000000000000/2000": "95953107477b0bc0b8564f16107616dc4753ebf4742208f436bca6e5279c4213",
    "noise/random/4294967296/1": "10080938fccd988b63e7c1d0cdab09308ad0bbfc39aa007e15a2ad47593644e0",
    "noise/random/4294967296/37": "bed5b36c0f855344e99330afaf043795566e9b78428312d5b7716759b88d83c0",
    "noise/random/4294967296/2000": "e0c34c61a3e955131529ba0a86f07015ec171a8115cdbdbe4b353d15e4e0fe9b",
    "noise/random/18446744073709551616/1": "4ffae90a2f8b83cd3171938b28dd065e8104257a9818ee2ccceff2927b42f599",
    "noise/random/18446744073709551616/37": "f3ae5f1fcbd7019496861a3598257a7c155bef8f4d4ba927a585fdd5fbff2d43",
    "noise/random/18446744073709551616/2000": "b9c28e630484aaaed36f0540e3425d8504223606a11523700e1bbd32e20fc705",
    "noise/random/100000000000000000000000000/1": "20c686c74a995973fd2e2c835267df7b85cbc79557f5486e92f4ad898188c305",
    "noise/random/100000000000000000000000000/37": "e5ed527c13342d969d1ac4f7dd111c358a76069d5d7ce24e1ea61cec9551952b",
    "noise/random/100000000000000000000000000/2000": "64aeb10153be010681c1d688d5a50fc7cebb279bd038a45305c29c2d5b0f2f7c",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _session_digest(key: str) -> str:
    """One digest over bob_measures x {|0>, a generic pure CTC state}."""
    scenario, formalism, gate = key.split("/")
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
    return _sha("\n".join(texts))


def _beam_digest(key: str) -> str:
    policy, _, seed, trials = key.split("/")
    return _sha(cli.canonical_json(run_beam(int(trials), policy, int(seed)).to_json()))


def _cli_digest(name: str, capsys) -> str:
    assert cli.main(CLI_ARGVS[name]) == 0
    return _sha(capsys.readouterr().out)


@pytest.mark.parametrize("scenario", ("nominal", "bob_skips", "self_signal", "storage"))
@pytest.mark.parametrize("formalism", FORMALISMS)
@pytest.mark.parametrize("gate", tuple(GATES))
def test_session_transcripts_match_golden(scenario, formalism, gate):
    key = f"{scenario}/{formalism}/{gate}"
    assert _session_digest(key) == SESSION_DIGESTS[key]


@pytest.mark.parametrize("policy", BEAM_POLICIES)
def test_beam_reports_match_golden(policy):
    keys = [f"{policy}/random/{seed}/{trials}" for seed in (0, 11, 7919) for trials in (1, 37, 2000)]
    assert {key: _beam_digest(key) for key in keys} == {key: BEAM_DIGESTS[key] for key in keys}


@pytest.mark.parametrize("policy", BEAM_POLICIES)
def test_multiword_seed_beam_reports_match_golden(policy):
    keys = [f"{policy}/random/{seed}/{trials}" for seed in MULTIWORD_SEEDS for trials in (1, 37, 2000)]
    assert {key: _beam_digest(key) for key in keys} == {key: MULTIWORD_BEAM_DIGESTS[key] for key in keys}


CLI_ARGVS = {
    "run_protocol": ["run-protocol", "--state", "0.6,0,0.8,0", "--seed", "7"],
    "self_signal": ["run-protocol", "--scenario", "self_signal", "--bob-measures", "--seed", "3"],
    "fixed_point": ["fixed-point", "--unitary", "controlled_rotation", "--state", "0.6,0,0.8,0"],
    # the swap's Bloch map is constant: its fixed point is rho_in, exact zeros included
    "fixed_point_swap": ["fixed-point", "--unitary", "swap", "--state", "1,0,0,0"],
    "beam": ["beam", "--trials", "40", "--seed", "11"],
    "teleport": ["teleport-baseline", "--state", "0.6,0,0,0.8", "--seed", "2"],
    "topology": ["topology-check", "--copies", "3"],
    "resources": ["resources", "--seed", "5"],
    "beam_csv": ["beam", "--trials", "10000", "--policy", "noise", "--seed", "3", "--output", "csv"],
    # the largest beam the CLI allows: 40 draw blocks
    "beam_cap": ["beam", "--trials", "40000", "--policy", "noise", "--seed", "3"],
    "beam_cap_csv": [
        "beam", "--trials", "40000", "--policy", "discard",
        "--seed", "99999999999999999999999999", "--output", "csv",
    ],
    # the largest scans the CLI allows: identity admits all 3,875,251 points
    "grid_cap_identity": ["classify-consistency", "--unitary", "identity", "--grid", "250"],
    "grid_cap_swap": ["classify-consistency", "--unitary", "swap", "--grid", "250"],
    # the largest storage run the CLI allows: its 300,000 cycles are written
    # from one template, whose cycle and event numbers count together
    "storage_cap": ["run-protocol", "--scenario", "storage", "--storage-cycles", "300000"],
    "storage_cap_csv": ["run-protocol", "--scenario", "storage", "--storage-cycles", "300000", "--output", "csv"],
}


@pytest.mark.parametrize("name", tuple(CLI_ARGVS))
def test_cli_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    assert _cli_digest(name, capsys) == CLI_DIGESTS[name]


def _moved_by_one_ulp(function, ulps: int):
    """``function`` whose float outputs have each non-zero real and imaginary
    part moved one ulp up (``ulps`` 1) or down (-1); zeros stay exact."""
    toward = math.copysign(math.inf, ulps)

    def move(out):
        if isinstance(out, tuple):
            parts = [move(part) for part in out]
            return out._make(parts) if hasattr(out, "_make") else tuple(parts)
        if not isinstance(out, np.ndarray) or out.dtype.kind not in "fc":
            return out
        if out.dtype.kind == "c":
            moved = np.empty_like(out)
            moved.real, moved.imag = move(out.real), move(out.imag)
            return moved
        return np.where(out == 0, out, np.nextafter(out, toward))

    return lambda *args, **kwargs: move(function(*args, **kwargs))


@pytest.mark.parametrize("table", ("session", "beam", "multiword_beam", "cli"))
@pytest.mark.parametrize("ulps", (1, -1), ids=("up", "down"))
def test_goldens_hold_with_lapack_outputs_moved_by_one_ulp(ulps, table, capsys, monkeypatch):
    """Every golden digest, with each output of ``np.linalg.eigvalsh``,
    ``eigh``, ``svd`` and ``lstsq`` moved by one ulp. This cannot move the
    products that ``@`` computes (BLAS), which a session uses most, so it
    bounds the reports' dependence on LAPACK's last bits from below."""
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    for name in ("eigvalsh", "eigh", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, _moved_by_one_ulp(getattr(np.linalg, name), ulps))
    # the beam's per-policy table holds trace distances, and the solver's fixed
    # space an SVD: none computed before the move may serve this test, nor one
    # computed under it a later test
    protocol._beam_table.cache_clear()
    consistency._fixed_space.cache_clear()
    try:
        if table == "session":
            digests, expected = {key: _session_digest(key) for key in SESSION_DIGESTS}, SESSION_DIGESTS
        elif table == "cli":
            digests, expected = {name: _cli_digest(name, capsys) for name in CLI_ARGVS}, CLI_DIGESTS
        else:
            expected = BEAM_DIGESTS if table == "beam" else MULTIWORD_BEAM_DIGESTS
            digests = {key: _beam_digest(key) for key in expected}
    finally:
        protocol._beam_table.cache_clear()
        consistency._fixed_space.cache_clear()
    assert digests == expected
