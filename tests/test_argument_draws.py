"""Pinned argument draws.

Every kernel input is drawn from a seeded ``random.Random``; the oracle
answers, the cycle goldens and the replay manifests all rest on those
exact values.  :func:`repro.workloads.kernels.draw_ints` draws them in
bulk through ``getrandbits`` instead of one ``randint`` call per value,
so these digests (recorded from the one-``randint``-per-value code) hold
it to the same numbers: the 14 built-in kernels, the generator's
argument builder and the application runner's per-port draws.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.app import AppRunner
from repro.arch import vliw4
from repro.gen import APP_TOPOLOGIES, WorkloadPopulation, sample_application
from repro.workloads.kernels import KERNELS, draw_ints

SIZES = (None, 32, 24)
SEEDS = (1, 2, 7, 1234)

#: sha256 of ``repr`` of the argument tuples of every (size, seed) pair.
KERNEL_DIGESTS = {
    "alpha_blend": "4f836ba63f9e1bdb87fecfece4f06b0beab819003447f9a47a2e67180aab8001",
    "crc32": "d1763a0383ebd4380e6ee5329631c19e5f91964cacfcc9132d544756594f7b2a",
    "dct_stage": "86b46478eb6a8e716805d091ed04fac5bbda6cf99b3d83d7678f774b1c92c3bd",
    "dot_product": "789bb597aa48538f4b3f462ceb483d3fe9ece9d37ff918f9a66c562ede5830ed",
    "fir_filter": "d804cf445012535805c214d9014fd087dbbf3d9d1bb3d9168d647cb801c9fcdc",
    "histogram": "1303882454e1182acab560f14e659f8bdaa66da7045cc9ad05f3826b863785bc",
    "iir_biquad": "4a8ffc38076a6cfddd3bdff0b2646022790b3e639b490d762eeb9cbc4d26b19b",
    "ip_checksum": "826c41e631bbb940e871c013324b3d80b7cc1dbcd56e0c4715d3794c0ba496f9",
    "matmul4": "ba6261f08e2d9cb27b43ad73d344be0e145353f122f36e609cc51bf3bd737d03",
    "popcount_buffer": "a4fbf79e90464758d352d3607468b0aaf8a298fa1fd7d10b891a41bd4cbe1ad4",
    "rgb_to_gray": "4f836ba63f9e1bdb87fecfece4f06b0beab819003447f9a47a2e67180aab8001",
    "sad16": "40ff7eba7544b6e5f7febb0ac57cc7f7c0f65a9060854e42fa4c5ef16dd7bb96",
    "saturated_add": "0ad76a9a181d4736c8503f48a5652a4a2122c3c88291308ee27bda58183ad758",
    "viterbi_acs": "3f702f1cbffac641249284ec2f6fa19a760b068e2ea69c27f8f37df012f7966f",
}

#: the same, for the kernels of ``WorkloadPopulation.generate(6, seed=7)``.
GENERATED_DIGESTS = {
    "gen_streaming_dsp_9424ed8738": "b0bed9ab5411370d57abe4fc202f03c32a6de9e6d2beff7494eff79c1c5e5c84",
    "gen_control_heavy_7e964ecb24": "a32dda9f2a69ae2b3525be81e8ac021390de1f5208b4498fa8783734fd6506e1",
    "gen_table_lookup_9c73f79a9f": "888228ee86109489e19e206f87dc40834398ab72b49ed7794e895da5d3b4b76d",
    "gen_reduction_d79ef86f81": "d7d8dc022b368cc4a67ed6e0def66567c258f6a3e760d02597aab0419d3525f8",
    "gen_memory_mixed_ecf279889c": "5375bab2e4f1ff7bed41f89c09c8e00a17f03507fd2cb730deee7e2ec26bb316",
    "gen_streaming_dsp_7090831a98": "bc671c82d23151a593b7c9b96c405e6eaadac97470639c9d1edf8be704853bf8",
}

#: sha256 of the bound arguments of every (window, node) of a 4-window
#: application (app seed 11), in window order and topological node order.
APP_DIGESTS = {
    "chain": "b9d2043aa7d04990027181d22bb184c580ae4eeab320d24d2bcc84cf6fb478ee",
    "fan_in": "9854dcd7db23e7b2d8176eb39f2426647c06eb6fba09c7e9571cb1cc1196bfb7",
    "diamond": "17ddf302ffe59b0d2c69b8877bd50de074faeab37ea5c569b3d92bcdc1f35857",
}


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _all_arguments(kernel) -> str:
    return _digest([kernel.arguments(size, seed)
                    for size in SIZES for seed in SEEDS])


@pytest.mark.parametrize("name", sorted(KERNEL_DIGESTS))
def test_builtin_kernel_arguments_are_pinned(name):
    assert _all_arguments(KERNELS[name]) == KERNEL_DIGESTS[name]


def test_generated_kernel_arguments_are_pinned():
    population = WorkloadPopulation.generate(6, seed=7)
    assert {gk.name: _all_arguments(gk.kernel)
            for gk in population} == GENERATED_DIGESTS


@pytest.mark.parametrize("topology", APP_TOPOLOGIES)
def test_application_arguments_are_pinned(topology):
    spec = sample_application(topology, 11, windows=4, deadline_us=30.0,
                              period_us=30.0)
    runner = AppRunner(spec, vliw4())
    drawn = []
    for window in range(spec.stream.windows):
        produced = {}
        for node in runner.order:
            drawn.append(runner.bind_args(window, node.name, produced))
            runner._oracle_step(window, node.name, produced)
    assert _digest(drawn) == APP_DIGESTS[topology]


@pytest.mark.parametrize("low,high", [
    (0, 0), (5, 6), (0, 255), (-128, 127), (0, 256), (-1000, 1000),
    (0, 65535), (0, 2**31 - 1), (0, 2**32 - 2),
])
def test_bulk_draw_matches_randint(low, high):
    # Powers of two (width 256, 2**31) reject about half their tries.
    for seed in (0, 3, "port:seed"):
        for count in (0, 1, 7, 300):
            rng = random.Random(seed)
            assert draw_ints(seed, count, low, high) == [
                rng.randint(low, high) for _ in range(count)]


def test_bulk_draw_rejects_ranges_wider_than_a_word():
    with pytest.raises(ValueError):
        draw_ints(1, 4, 0, 2**32 - 1)
