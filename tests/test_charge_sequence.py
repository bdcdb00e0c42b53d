"""The sequence of ``thread.charge`` calls, pinned.

Host-side samplers hook every charge (``vm.threads.samplers``), so what
they can observe is the whole ordered sequence of ``(thread, cycles,
tag)`` triples, not just the totals the tables print.  A zero-cost
recorder digests that sequence for the seven JVM98 programs and the
concurrency family in the template tier under the default policy; the
digests below were recorded before the template emitter moved its
pending-cycle updates to block exits, and any change to where or how
much the template tier charges shows up here first.

A second table pins the same raw sequence under the method-event
agents.  An attached sampler makes the JVMTI host charge each
delivery's dispatch cost and the agent's declared work one by one
(DESIGN.md §3), so these digests pin the raw sequence: merging must
never show while a sampler watches.

Regenerate (only for a change that is *meant* to move charges) with::

    PYTHONPATH=src:tests python -c "import test_charge_sequence as t; t.print_digests()"
"""

import hashlib

import pytest

from repro.agents.counting import CountingAgent
from repro.harness.config import AgentSpec, RunConfig
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


AGENTS = {
    "none": AgentSpec.none(),
    "spa": AgentSpec.spa(),
    "callchain": AgentSpec.callchain(),
    "counting": AgentSpec("counting", CountingAgent),
    "offcpu": AgentSpec.offcpu(),
}

#: (workload, agent, cores) -> (charge count, sha256), as PINNED.
PINNED_AGENTS = {
    ("jess", "spa", 1): (70177,
        "1dfc596c43bfdcbbd0a55c20a3b06abd858e328b97eab53e9ec3cb70d7163782"),
    ("db", "spa", 1): (18197,
        "6b87cc6927603b306e000a8a31570a9ad3f0860bdbba7d49b7f8a03c88ccdd28"),
    ("jack", "spa", 1): (104808,
        "409db513561feb8f4ffe203080d7039efdc408793e410799610a23392c954dad"),
    ("fj-kmeans", "spa", 2): (40349,
        "788743104512c792a276787fc9c015ab6b834594675ca41aff9979e382200f0b"),
    ("jack", "callchain", 1): (97171,
        "5d025a514ee361f4db35daa061fa22ba0b6b5b480d0298f3205ce1da35292de3"),
    ("actors", "callchain", 2): (3892,
        "149296ef23d72b73e9dd7897d829ba9c462ce7438214a105fc05f3d236249138"),
    ("compress", "counting", 1): (53058,
        "b82e7ef400729076b37cd3641650e20d6f81a2a7f8692646e8b53851a1af519e"),
    ("io-kv", "offcpu", 1): (9719,
        "1c667e26e810ffd1a46e51c96092ad8b561c56b7aca7434a5e8ccd68fea51ddb"),
}


def charge_digest(name: str, cores: int, agent: str = "none"):
    config = RunConfig(agent=AGENTS[agent],
                       vm_config=VMConfig(cores=cores),
                       sampler=ChargeRecorder)
    result = execute(get_workload(name), config)
    report = result.sampler_report
    return report["charges"], report["sha256"]


def print_digests() -> None:
    for name, cores in PINNED:
        charges, digest = charge_digest(name, cores)
        print(f'    ({name!r}, {cores}): ({charges}, "{digest}"),')
    for name, agent, cores in PINNED_AGENTS:
        charges, digest = charge_digest(name, cores, agent)
        print(f'    ({name!r}, {agent!r}, {cores}): '
              f'({charges}, "{digest}"),')


@pytest.mark.parametrize("name,cores", sorted(PINNED))
def test_charge_sequence_is_pinned(name, cores):
    assert charge_digest(name, cores) == PINNED[(name, cores)]


@pytest.mark.parametrize("name,agent,cores", sorted(PINNED_AGENTS))
def test_method_event_charge_sequence_is_pinned(name, agent, cores):
    assert charge_digest(name, cores, agent) == \
        PINNED_AGENTS[(name, agent, cores)]


def test_recorder_does_not_perturb_the_run():
    plain = execute(get_workload("db"), RunConfig())
    recorded = execute(get_workload("db"),
                       RunConfig(sampler=ChargeRecorder))
    assert recorded.cycles == plain.cycles
    assert recorded.ground_truth == plain.ground_truth
    assert recorded.instructions == plain.instructions
