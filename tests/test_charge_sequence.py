"""The sequence of ``thread.charge`` calls, pinned.

Host-side samplers hook every charge (``vm.threads.samplers``), so what
they can observe is the whole ordered sequence of ``(thread, cycles,
tag)`` triples, not just the totals the tables print.  A zero-cost
recorder digests that sequence for the seven JVM98 programs and the
concurrency family in the template tier under the default policy; the
digests below were recorded before the template emitter moved its
pending-cycle updates to block exits, and any change to where or how
much the template tier charges shows up here first.

Regenerate (only for a change that is *meant* to move charges) with::

    PYTHONPATH=src:tests python -c "import test_charge_sequence as t; t.print_digests()"
"""

import hashlib

import pytest

from repro.harness.config import RunConfig
from repro.harness.runner import execute
from repro.jvm.machine import VMConfig
from repro.workloads import get_workload


class ChargeRecorder:
    """Records every charge into a running sha256; costs nothing."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self.charges = 0

    def install(self, vm) -> None:
        vm.threads.samplers.append(self)

    def on_charge(self, thread, cycles: int, tag) -> int:
        self._digest.update(
            f"{thread.thread_id} {cycles} {tag.name}\n".encode())
        self.charges += 1
        return 0  # no sampling interrupt: the run is unperturbed

    def report(self):
        return {"charges": self.charges,
                "sha256": self._digest.hexdigest()}


#: (workload, cores) -> (charge count, sha256 of the charge sequence)
#: at scale 1, template tier, default JIT policy.
PINNED = {
    ("compress", 1): (26569,
        "4cd18249effd9545b6bd572972322a1430fcd5de122c91cdf1eb454ad33d408d"),
    ("jess", 1): (17813,
        "cb6a5aa09a0ad2cf2d239426d50c941b3f766e825a900d244ace2800cdba92a2"),
    ("db", 1): (5678,
        "4cfd26ec09729634f40cb6a0e46e37dc4a3d9b1c39cea1207d94cfa7e2c2b921"),
    ("javac", 1): (50338,
        "896ba3e6366d73f46a50c90b42b589908315dd326f19e5f95cee9e735d73da10"),
    ("mpegaudio", 1): (123207,
        "4019f416cf920e9884c209e7730e31b8748a2f907ac5d7b866739a66144f723e"),
    ("mtrt", 1): (126252,
        "719a53770a3cb2404076e721922bc9f6f52f2a928f82cd000a6970884d5d8f50"),
    ("jack", 1): (26875,
        "0679ee29610334ce0b0ba259fa4e4aabbf87e81e2cc50c4a9736e010adde538f"),
    ("fj-kmeans", 2): (10291,
        "7edbed98e01090b0089f61dd09616eea3565f84ee132ec70f6fc04c5aa9555ba"),
    ("actors", 2): (1035,
        "4ff7ad6a8105c9ce52eacc9d20483bc5db7264cc53101aee06563890b193beeb"),
    ("reactors", 2): (848,
        "b5df787a58a35444922dd299066fcb331b6c1163d41c60d249c7296120f9c2b0"),
}


def charge_digest(name: str, cores: int):
    config = RunConfig(vm_config=VMConfig(cores=cores),
                       sampler=ChargeRecorder)
    result = execute(get_workload(name), config)
    report = result.sampler_report
    return report["charges"], report["sha256"]


def print_digests() -> None:
    for name, cores in PINNED:
        charges, digest = charge_digest(name, cores)
        print(f'    ({name!r}, {cores}): ({charges}, "{digest}"),')


@pytest.mark.parametrize("name,cores", sorted(PINNED))
def test_charge_sequence_is_pinned(name, cores):
    assert charge_digest(name, cores) == PINNED[(name, cores)]


def test_recorder_does_not_perturb_the_run():
    plain = execute(get_workload("db"), RunConfig())
    recorded = execute(get_workload("db"),
                       RunConfig(sampler=ChargeRecorder))
    assert recorded.cycles == plain.cycles
    assert recorded.ground_truth == plain.ground_truth
    assert recorded.instructions == plain.instructions
