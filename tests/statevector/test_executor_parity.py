"""Every distributed executor against one recorded reference.

``GOLDEN_SCHEDULES`` and ``GOLDEN_AMPLITUDES`` hold SHA-256 digests of
the logged message schedule, the mid-circuit outcome record and the
amplitude bytes for a matrix of
circuits, rank counts and communication settings.  They were recorded
with the original serial executor (per-gate exchanges through the
point-to-point MPI emulation, before every executor ran the one step
interpreter), so they stay an independent reference: serial, the
shared-memory pool and the TCP pool must all reproduce them bit for bit.

Amplitude digests are per kernel backend (``REPRO_KERNELS``), because
the backends round differently.  The ``native`` digests were recorded
when the C kernels landed, on serial, and reproduced by the shm and TCP
pools; the ``strided`` and ``reference`` ones are unchanged.  Fusion is
pinned so ``REPRO_FUSION`` does not change the plan.

Since local SWAPs became qubit relabels, five ``random`` cases run some
single-qubit gates on renamed targets.  The reference backend applies a
2x2 gate with the same arithmetic on any target, so its digests (and
every schedule and outcome digest) did not move.  The strided backend
applies uncontrolled targets 1-3 through an embedded GEMM
(``gate_kernels._GEMM_TARGET_MAX``), which rounds differently from its
strided path, so those five strided digests were re-recorded;
``test_relabelled_strided_cases_match_reference`` holds them to the
reference amplitudes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.circuits import Circuit, qft_circuit, random_circuit, random_state
from repro.errors import SimulationError
from repro.gates import Gate
from repro.mpi import CommMode
from repro.parallel import shm_available
from repro.parallel.tcp import shutdown_tcp_pools
from repro.statevector import DistributedStatevector, Partition
from repro.statevector import gate_kernels
from repro.transpile import transpile
from repro.tune.workloads import build_workload

NUM_QUBITS = 8
LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"

#: case id -> (family, ranks, initial state, comm mode, halved_swaps,
#: max_message as a fraction of the slice (None: the 2 GiB cap),
#: grouped-transpile remap width g (0: no transpile)).
CASES = {
    "qft-r2": ("qft", 2, "zero", "blocking", False, None, 0),
    "qft-r4": ("qft", 4, "zero", "blocking", False, None, 0),
    "qft-r8": ("qft", 8, "zero", "blocking", False, None, 0),
    "qft-r4-nb": ("qft", 4, "random", "nonblocking", False, None, 0),
    "qft-r4-halved": ("qft", 4, "random", "blocking", True, None, 0),
    "qft-r8-nb-halved": ("qft", 8, "random", "nonblocking", True, None, 0),
    "qft-r4-halfmsg": ("qft", 4, "random", "blocking", False, 0.5, 0),
    "qft-r8-nb-halved-halfmsg": ("qft", 8, "zero", "nonblocking", True, 0.5, 0),
    "random-r2": ("random", 2, "random", "blocking", False, None, 0),
    "random-r4-nb": ("random", 4, "random", "nonblocking", False, None, 0),
    "random-r8-halved": ("random", 8, "random", "blocking", True, None, 0),
    "random-r8-nb-halfmsg": ("random", 8, "zero", "nonblocking", False, 0.5, 0),
    "random-r4-nb-halved-halfmsg": ("random", 4, "random", "nonblocking", True, 0.5, 0),
    "qaoa-r2": ("qaoa", 2, "zero", "blocking", False, None, 0),
    "qaoa-r4-nb": ("qaoa", 4, "zero", "nonblocking", False, None, 0),
    "qaoa-r8-halved-halfmsg": ("qaoa", 8, "zero", "blocking", True, 0.5, 0),
    "qaoa-r8-nb": ("qaoa", 8, "random", "nonblocking", False, None, 0),
    "qft-r8-g1": ("qft", 8, "random", "blocking", False, None, 1),
    "qft-r8-g2-nb": ("qft", 8, "zero", "nonblocking", False, None, 2),
    "random-r4-g2-halfmsg": ("random", 4, "random", "blocking", False, 0.5, 2),
    "random-r8-g1-nb-halved": ("random", 8, "zero", "nonblocking", True, None, 1),
}

#: case id -> SHA-256 of (message_log, measure_outcomes), recorded with
#: the original serial executor.  The schedule and the (exact-integer)
#: outcome decisions do not depend on the kernel backend.
GOLDEN_SCHEDULES = {
    "qaoa-r2": (
        "c8efbdf94e8ac19ef2c83ab5a428dab65acc80dc907d8454adb215838e841cf8",
        "c1c9eadc27d3be6fc75a0c428a76b7254dcc072f8a21e668ee6e7768405e6813",
    ),
    "qaoa-r4-nb": (
        "110ecb0a0d8e5466249073a8809149cd27990b15d7adb713c5d357e136812be0",
        "c1c9eadc27d3be6fc75a0c428a76b7254dcc072f8a21e668ee6e7768405e6813",
    ),
    "qaoa-r8-halved-halfmsg": (
        "8934e1b9dc7b93ce409451e12e21e64f590a80f92b1993c7ef91c6439e7c1582",
        "c1c9eadc27d3be6fc75a0c428a76b7254dcc072f8a21e668ee6e7768405e6813",
    ),
    "qaoa-r8-nb": (
        "5368dbb461114bef0978797daa23e39dc3bbc027d9fa8e398048ed0dcbda35bc",
        "c1c9eadc27d3be6fc75a0c428a76b7254dcc072f8a21e668ee6e7768405e6813",
    ),
    "qft-r2": (
        "30af48a32b69ed50fe2f33a69f1e3d4decf1a445175f268d612cb0c67088bda0",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r4": (
        "2980dd90eba318fcd482b0aac1430a96375015528059eed12e19534bdf12158e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r4-halfmsg": (
        "a8a541e18a37a112ace97a16e13e765583c9e9fed092dca3e5b7f4ca4b72cb27",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r4-halved": (
        "0ce21a0759cda9fa369d8c321028d5c662d522d0503fd7c9d6a25cf3afd5e61a",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r4-nb": (
        "2980dd90eba318fcd482b0aac1430a96375015528059eed12e19534bdf12158e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r8": (
        "38e3d5c6d3df223eacddc756ce2f717fa73e9ad9ca8f2bf91968a08b3c4b3f88",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r8-g1": (
        "45f11f092e91a4e36474b4ab6eed4b16ede0f02f6968979fc245de3f4c8b7e10",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r8-g2-nb": (
        "14b7e9b06b52a9556de32a26d091762c70b75bc36eca2dfb76e856b7462126fb",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r8-nb-halved": (
        "00d58ba06e9abb929590443fdfb1f39d81033135493b6b974712f79bd089fc54",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "qft-r8-nb-halved-halfmsg": (
        "d22fd2b4e4143e4d3f7a08e774d216244c6b0ddacffa7461d17ad8558d8f863b",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r2": (
        "af7a5d8839bb873f583032c9ad9c32b5aef04760f17042a0f45968966c7661b3",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r4-g2-halfmsg": (
        "26ce47ccd40cfacf1ccefacb8287e769d10a49200b22739434a46c7b7b4ad32a",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r4-nb": (
        "720821ca3b12f112e573c84ef566dd384d57f6f8fdea03d1d9afcffdd2d8aadd",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r4-nb-halved-halfmsg": (
        "ad02e5361cf5b4d32e98b40872387880cbfef8f159ae18fe52a6b7dd08b098ae",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r8-g1-nb-halved": (
        "7b5c097be7c8826328f5be9ccf87d4df7414e0c6a5b775807ad2e5acaf27b5ee",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r8-halved": (
        "8d233575f5b3489f3ac3f9a6f88c0b7d3a72eb56faf6f1b970bc786a34f1170f",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "random-r8-nb-halfmsg": (
        "c541165f605c8230ffdbd9dc6f44b2957bc7d77f64fc1dedc93c1ff02acc63cc",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}

#: kernel backend -> case id -> SHA-256 of the gathered amplitude bytes.
GOLDEN_AMPLITUDES = {
    "strided": {
        "qaoa-r2": "a5b209ea53961fb34349e7b710f8d1a3b90cf2e1c49b515e4782e0d6f2182a5c",
        "qaoa-r4-nb": "a5b209ea53961fb34349e7b710f8d1a3b90cf2e1c49b515e4782e0d6f2182a5c",
        "qaoa-r8-halved-halfmsg": "a5b209ea53961fb34349e7b710f8d1a3b90cf2e1c49b515e4782e0d6f2182a5c",
        "qaoa-r8-nb": "187ea925681761d2a0b8c55e6378ddf71a585917d9226406a73a1f0d0a45dd43",
        "qft-r2": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r4": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r4-halfmsg": "39fb5576e6ef70ff49b76844af76ab5f17f079e8e15045bfd68dea98b97d7c36",
        "qft-r4-halved": "39fb5576e6ef70ff49b76844af76ab5f17f079e8e15045bfd68dea98b97d7c36",
        "qft-r4-nb": "39fb5576e6ef70ff49b76844af76ab5f17f079e8e15045bfd68dea98b97d7c36",
        "qft-r8": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r8-g1": "b34af6b812dbfc1e816c3ca3f81ac8f0deff4f263d15f9786678046d3a0a0bab",
        "qft-r8-g2-nb": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r8-nb-halved": "243c16e6920454342da409cb35956ecaf246d74eef085b8efdb4747dc4ea409c",
        "qft-r8-nb-halved-halfmsg": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "random-r2": "a7f56de5c61960b2c8371c07546b6f44cb4ccc38d085e0dcce177f0a4cd26be9",
        "random-r4-g2-halfmsg": "46ea836b8726bedeb4801fac15436cd8c6b44efa2b302a544df397735b4253d9",
        "random-r4-nb": "9196e12f41451f0a467d28a9fe7dcad1ddae3e3a24f29c45f136892681ac30d3",
        "random-r4-nb-halved-halfmsg": "9196e12f41451f0a467d28a9fe7dcad1ddae3e3a24f29c45f136892681ac30d3",
        "random-r8-g1-nb-halved": "ccda25bc0bfb02a1d04da2bd302e2d68ae46d3c8422e9864eef0b8387db2321f",
        "random-r8-halved": "0cf025c6b532654da8fe1f92a5a58e59eb07741dc33ec51c835e93383c1deb14",
        "random-r8-nb-halfmsg": "ab6fa7a103404823a2025f3e65123c064fb7bbd1b0cf3b11108382200f1d5e62",
    },
    "reference": {
        "qaoa-r2": "a5b209ea53961fb34349e7b710f8d1a3b90cf2e1c49b515e4782e0d6f2182a5c",
        "qaoa-r4-nb": "a5b209ea53961fb34349e7b710f8d1a3b90cf2e1c49b515e4782e0d6f2182a5c",
        "qaoa-r8-halved-halfmsg": "a5b209ea53961fb34349e7b710f8d1a3b90cf2e1c49b515e4782e0d6f2182a5c",
        "qaoa-r8-nb": "1637d8fd5bdd9df8b5a182d23e435c92f52099f471c6871d6e407a7262e64a56",
        "qft-r2": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r4": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r4-halfmsg": "8f1225c709a141e7072f5e0ccca1de8a08a874ad523821189fb58c3f73cc9e12",
        "qft-r4-halved": "8f1225c709a141e7072f5e0ccca1de8a08a874ad523821189fb58c3f73cc9e12",
        "qft-r4-nb": "8f1225c709a141e7072f5e0ccca1de8a08a874ad523821189fb58c3f73cc9e12",
        "qft-r8": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r8-g1": "9c5e44b1180c053ba3d9ed48d608b49e11d354f1fec5409036a9223b8f6a9c1b",
        "qft-r8-g2-nb": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r8-nb-halved": "648c3dcbc288b3962766527113ed4d911794eed2e767e5c7dec141cd2f92e81d",
        "qft-r8-nb-halved-halfmsg": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "random-r2": "3c99d4c44ef9e04676745a37f6558cc649aae5b11180953426b6fc911cc8aebd",
        "random-r4-g2-halfmsg": "450654f061c125142262a66a7a28585e6bf7802bb1374ca2122452bd0ae2c7a2",
        "random-r4-nb": "6495a8b0bd0bee25d84cf48228deff1df95ce2446290fd6291bfa381ce5e713a",
        "random-r4-nb-halved-halfmsg": "6495a8b0bd0bee25d84cf48228deff1df95ce2446290fd6291bfa381ce5e713a",
        "random-r8-g1-nb-halved": "48ecb11f3ad88c46d77994f8f88f599574017c303b9274585d7264597461558a",
        "random-r8-halved": "2354ea8fccfc1f30a4b504e4009471d2d685632a57f24d7dd208f95cf3bc1939",
        "random-r8-nb-halfmsg": "6e8bee14d32d011c293620a18a0f1a55a4b30c0fbaa948ed4fcc88fae04b787f",
    },
    "native": {
        "qaoa-r2": "1e5c039bcd9e4338b4e6c5c2bc723512a1659e58ea98e27b1f6d0545150081e2",
        "qaoa-r4-nb": "1e5c039bcd9e4338b4e6c5c2bc723512a1659e58ea98e27b1f6d0545150081e2",
        "qaoa-r8-halved-halfmsg": "1e5c039bcd9e4338b4e6c5c2bc723512a1659e58ea98e27b1f6d0545150081e2",
        "qaoa-r8-nb": "cd2dd2c645cb89dc8b09e9a91e0450cf55272a6f0f9ddf7cc9c8e0ce7edcf5b8",
        "qft-r2": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r4": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r4-halfmsg": "3d0459090c8c91662ff5549c191b193bcf163a3c2d595d2957744405c49af339",
        "qft-r4-halved": "3d0459090c8c91662ff5549c191b193bcf163a3c2d595d2957744405c49af339",
        "qft-r4-nb": "3d0459090c8c91662ff5549c191b193bcf163a3c2d595d2957744405c49af339",
        "qft-r8": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r8-g1": "b6af7a976d8429a7f41a7cbad92bc5e5de11d1a9f503e1d3b5542b6265d1e464",
        "qft-r8-g2-nb": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "qft-r8-nb-halved": "8bcabdb3d72455157740e9be698a82ed27645c502afb4eee18c89c50eaa4602f",
        "qft-r8-nb-halved-halfmsg": "ee232ce48d5cc119981dd127c3326e9d1c4997c64ce020338865fd4783c38020",
        "random-r2": "7a44c2d17b04349b15bb28dfff5c506354e6b21893402aca9f03e18ad059caf6",
        "random-r4-g2-halfmsg": "d5240c231d05f23ca4c55d9a13f996bbe1365f2f78c5f7d22da59d0d286cb45b",
        "random-r4-nb": "5d786f55b53b630d5fbca07e6d9d40489e3708b35895c23c13f0a1b94096ff68",
        "random-r4-nb-halved-halfmsg": "5d786f55b53b630d5fbca07e6d9d40489e3708b35895c23c13f0a1b94096ff68",
        "random-r8-g1-nb-halved": "dbb0235f1454eed1d13ff56c691db15e8b939873f2238298a188834f4fd45485",
        "random-r8-halved": "d51af4d8245ecb6f1c48a743b8ce593472094bff7736975e77a305bae5781a95",
        "random-r8-nb-halfmsg": "01ea9729bec43493087de0e2592ec9595b615535bc37d6e96dd61e650649c356",
    },
}


def _circuit(family: str, ranks: int, g: int) -> Circuit:
    if family == "qft":
        circuit = qft_circuit(NUM_QUBITS)
    elif family == "random":
        circuit = random_circuit(NUM_QUBITS, 40, seed=21)
    else:
        circuit = build_workload("qaoa-sampled", NUM_QUBITS, seed=3).circuit
    if g:
        partition = Partition(NUM_QUBITS, ranks)
        circuit = transpile(
            circuit, partition, strategy="grouped", max_remap_pairs=g
        ).circuit
    return circuit


def run_case(case: str, **executor) -> DistributedStatevector:
    """Apply one case's circuit on the executor named by ``executor``."""
    family, ranks, init, mode, halved, msg, g = CASES[case]
    partition = Partition(NUM_QUBITS, ranks)
    kwargs = dict(
        comm_mode=CommMode(mode),
        halved_swaps=halved,
        fusion="diag",
        measure_seed=5,
        **executor,
    )
    if msg is not None:
        kwargs["max_message"] = int(partition.local_bytes * msg)
    if init == "zero":
        state = DistributedStatevector(partition, **kwargs)
    else:
        psi = random_state(NUM_QUBITS, seed=ranks)
        state = DistributedStatevector.from_amplitudes(psi, ranks, **kwargs)
    state.apply_circuit(_circuit(family, ranks, g))
    return state


def digests(state: DistributedStatevector) -> tuple[str, str, str]:
    """(amplitudes, message_log, measure_outcomes) SHA-256 hex digests."""
    log = [(m.source, m.dest, m.tag, m.nbytes) for m in state.comm.message_log]
    return (
        hashlib.sha256(state.gather().tobytes()).hexdigest(),
        hashlib.sha256(repr(log).encode()).hexdigest(),
        hashlib.sha256(repr(state.measure_outcomes).encode()).hexdigest(),
    )


EXECUTORS = {
    "serial": {"executor": "serial"},
    "shm": {"executor": "pool"},
    "tcp": {"executor": "pool", "hosts": LOOPBACK2},
}


def _executor(name: str) -> dict:
    if name == "shm" and not shm_available():
        pytest.skip("named shared memory unavailable on this host")
    return EXECUTORS[name]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_tcp_pools()


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_recorded_serial_reference(case, executor):
    state = run_case(case, **_executor(executor))
    amplitudes, schedule, outcomes = digests(state)
    assert (schedule, outcomes) == GOLDEN_SCHEDULES[case]
    assert amplitudes == GOLDEN_AMPLITUDES[gate_kernels.get_backend()][case]


#: Cases whose strided digest moved when local SWAPs became relabels.
RELABEL_RECORDED = (
    "random-r2",
    "random-r4-nb",
    "random-r4-nb-halved-halfmsg",
    "random-r8-halved",
    "random-r8-nb-halfmsg",
)


@pytest.mark.parametrize("case", RELABEL_RECORDED)
def test_relabelled_strided_cases_match_reference(case):
    amps = {}
    for backend in ("strided", "reference"):
        with gate_kernels.using_backend(backend):
            amps[backend] = run_case(case, executor="serial").gather()
    assert np.allclose(amps["strided"], amps["reference"], rtol=0, atol=1e-12)


def test_cases_cover_the_matrix():
    rows = CASES.values()
    assert {r[0] for r in rows} == {"qft", "random", "qaoa"}
    assert {r[1] for r in rows} == {2, 4, 8}
    assert {r[3] for r in rows} == {"blocking", "nonblocking"}
    assert {r[4] for r in rows} == {False, True}
    assert {r[5] for r in rows} == {None, 0.5}
    assert {r[6] for r in rows} == {0, 1, 2}


def test_grouped_cases_contain_two_pair_remaps():
    circuit = _circuit("qft", 8, 2)
    m = Partition(NUM_QUBITS, 8).local_qubits
    widths = {
        sum(b >= m for _a, b in gate.swap_pairs())
        for gate in circuit
        if gate.name == "remap"
    }
    assert 2 in widths


# -- validation before any step runs -------------------------------------------


def _prepared(executor: dict) -> DistributedStatevector:
    state = DistributedStatevector.zero_state(6, 4, **executor)
    state.apply_gate(Gate.named("h", (0,)))
    return state


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize(
    "bad",
    [
        Gate.remap(((4, 5),)),
        Gate.named("swap", (0, 5), controls=(1,)),
    ],
    ids=["remap-two-distributed", "controlled-distributed-swap"],
)
def test_invalid_later_step_leaves_state_untouched(executor, bad):
    state = _prepared(_executor(executor))
    before = state.gather().copy()
    log_before = list(state.comm.message_log)
    circuit = Circuit(6, [Gate.named("x", (1,)), bad])
    with pytest.raises(SimulationError):
        state.apply_circuit(circuit)
    assert state.gather().tobytes() == before.tobytes()
    assert state.comm.message_log == log_before


# -- same spans on every executor ----------------------------------------------


def _step_kinds(executor: dict) -> list[str]:
    """Step kinds of one traced run, in plan order, from one process."""
    was_enabled = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        state = DistributedStatevector.from_amplitudes(
            random_state(NUM_QUBITS, seed=1), 4, fusion="diag", **executor
        )
        state.apply_circuit(_circuit("random", 4, 0))
        spans = obs.spans()
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    steps = [s for s in spans if s.name == "worker.step"]
    first = min(s.pid for s in steps)
    ours = [s for s in steps if s.pid == first]
    return [s.attrs["kind"] for s in sorted(ours, key=lambda s: s.attrs["step"])]


def test_serial_and_shm_emit_the_same_step_spans():
    if not shm_available():
        pytest.skip("named shared memory unavailable on this host")
    serial = _step_kinds({"executor": "serial"})
    shm = _step_kinds({"executor": "pool"})
    assert serial and serial == shm
    assert set(serial) >= {"diagonal", "local", "distributed_single"}
