"""One pre-warmed VM: load/verify/compile once, run many requests.

Warm-up protocol (once per ``WarmVM``):

1. build the VM with the batch harness's builder
   (:func:`repro.harness.runner._build_vm`: runtime + workload
   archives, stdlib + workload native libraries, no agents);
2. **eager-load** every class in every archive on a throwaway
   bootstrap thread — all ``<clinit>`` initializers run here, and the
   loading/verification cycles are charged to a thread that is
   discarded before the first request;
3. snapshot the statics (:mod:`repro.service.snapshot`) — the pristine
   post-``<clinit>`` state every request starts from;
4. run **priming rounds** of the workload (each preceded by a request
   reset) until the JIT state settles: no new methods compiled, no new
   templates translated or invalidated between consecutive rounds.
   After settling, every subsequent request executes identically.

Per-request reset (:meth:`WarmVM._reset`) restores isolation without
discarding warmth: :class:`~repro.jvm.machine.RunState` declares what
a run starts fresh, and its docstring says how the reset treats the
state kept outside it.

Warm reuse is restricted to ``cores=1``: the preemptive scheduler is
created at VM construction and bound into template closures, so
multi-core requests take the cold path (:func:`run_cold`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Optional

from repro.errors import ServiceError
from repro.harness import runner
from repro.harness.config import RunConfig
from repro.jit.policy import JitPolicy
from repro.jvm.machine import JavaVM, RunState, VMConfig
from repro.jvm.threads import ThreadState
from repro.jvmti.host import JVMTIHost
from repro.observability import logging as obs_logging
from repro.workloads import get_workload
from repro.workloads.base import MetricKind, Workload

log = obs_logging.get_logger("service")

#: Priming rounds before giving up on JIT settlement (each round is
#: one full workload run; two rounds suffice for every shipped
#: workload — the cap only guards against pathological archives).
MAX_PRIMING_ROUNDS = 6


def _console_checksum(console) -> str:
    """Digest of the run's console output — the per-request
    determinism witness (workloads print their checksums here)."""
    digest = hashlib.sha256("\n".join(console).encode("utf-8"))
    return digest.hexdigest()[:16]


def _jit_state(vm: JavaVM) -> tuple:
    return (vm.jit.compile_count, vm.jit.templates_translated,
            vm.jit.code_cache.invalidated)


def _collect_outcome(vm: JavaVM, workload: Workload, warm: bool,
                     host_seconds: float,
                     templates_delta: int,
                     compiles_delta: int) -> Dict:
    """The JSON-safe per-request result document."""
    check = workload.validate(vm)
    operations = None
    if workload.metric is MetricKind.THROUGHPUT:
        operations = workload.operations(vm)
    ok = check.ok and not vm.thread_deaths
    detail = check.detail
    if vm.thread_deaths:
        detail = "; ".join(vm.thread_deaths)
    return {
        "workload": workload.name,
        "ok": ok,
        "detail": detail,
        "warm": warm,
        "cycles": vm.total_cycles,
        "instructions": vm.instructions_retired,
        "operations": operations,
        "checksum": _console_checksum(vm.console),
        "classes_loaded": vm.classes_loaded,
        "methods_verified": vm.methods_verified,
        "templates_translated": templates_delta,
        "methods_compiled": compiles_delta,
        "host_seconds": round(host_seconds, 6),
    }


def _build_vm(workload: Workload, tier: str, verify: str,
              cores: int = 1) -> JavaVM:
    return runner._build_vm(workload, RunConfig(vm_config=VMConfig(
        jit_policy=JitPolicy(template_tier=(tier == "template")),
        verify=verify, cores=cores)))


def run_cold(name: str, scale: int = 1, tier: str = "template",
             verify: str = "structural", cores: int = 1,
             workload: Optional[Workload] = None) -> Dict:
    """One cold request: fresh VM, lazy loading, discarded afterwards.

    The pool's path for multi-core requests and for the
    ``--cold-start-baseline`` experiment; produces the same outcome
    document as :meth:`WarmVM.run` so the two are directly comparable.
    """
    workload = workload or get_workload(name, scale=scale)
    started = time.perf_counter()
    vm = _build_vm(workload, tier, verify, cores)
    vm.launch(workload.main_class)
    return _collect_outcome(
        vm, workload, warm=False,
        host_seconds=time.perf_counter() - started,
        templates_delta=vm.jit.templates_translated,
        compiles_delta=vm.jit.compile_count)


class WarmVM:
    """A single pre-warmed VM serving one (workload, scale, tier,
    verify) configuration, one request at a time."""

    def __init__(self, name: str, scale: int = 1,
                 tier: str = "template", verify: str = "structural"):
        self.name = name
        self.scale = scale
        self.tier = tier
        self.verify = verify
        self.workload = get_workload(name, scale=scale)
        self.priming_rounds = 0
        self.settled = False
        self._vm: Optional[JavaVM] = None
        self._statics = None

    # -- warm-up --------------------------------------------------------------

    def warmup(self) -> "WarmVM":
        """Build, eager-load, snapshot, and prime; returns self."""
        vm = _build_vm(self.workload, self.tier, self.verify, cores=1)
        self._vm = vm
        self._eager_load(vm)
        from repro.service.snapshot import snapshot_statics
        self._statics = snapshot_statics(vm.loader)
        self._prime(vm)
        return self

    def _eager_load(self, vm: JavaVM) -> None:
        """Load every archive class on a throwaway bootstrap thread.

        After this, no request can trigger a class load: anything the
        classpath can resolve (including VM-synthesized exception
        classes) is already loaded, verified, and initialized.
        """
        bootstrap = vm.threads.create("warmup")
        bootstrap.state = ThreadState.RUNNING
        vm.threads.current = bootstrap
        for group in (vm.loader.bootclasspath_prepend,
                      vm.loader.bootclasspath, vm.loader.classpath):
            for archive in group:
                for class_name in archive.names():
                    vm.loader.load(class_name)
        # a <clinit> could in principle start threads; drain them so
        # the warm state is quiescent
        while vm.threads.has_queued:
            vm.run_thread(vm.threads.dequeue())
        vm.threads.current = None

    def _prime(self, vm: JavaVM) -> None:
        """Run the workload until the JIT stops changing state.

        Each round starts from a request reset, so the rounds are the
        same runs requests will perform; once a round compiles or
        translates nothing new, every later request is uniform.
        """
        previous = None
        for round_number in range(1, MAX_PRIMING_ROUNDS + 1):
            self.priming_rounds = round_number
            outcome = self.run(primed=False)
            if not outcome["ok"]:
                raise ServiceError(
                    f"warm-up run of {self.name!r} failed validation: "
                    f"{outcome['detail']}")
            state = _jit_state(vm)
            if state == previous:
                self.settled = True
                break
            previous = state
        if not self.settled:
            log.warning("warm VM did not settle", workload=self.name,
                        rounds=self.priming_rounds)

    # -- per-request execution ------------------------------------------------

    def _reset(self) -> None:
        """Per-request isolation: fresh mutable state, shared warmth,
        as :class:`~repro.jvm.machine.RunState` declares."""
        from repro.service.snapshot import restore_statics

        vm = self._vm
        RunState.__init__(vm)
        vm.jvmti = JVMTIHost(vm, vm.config.jvmti_version)
        vm.heap.reset()
        restore_statics(vm.loader, self._statics)
        self.workload.install_files(vm)
        # per-method hotness counters restart so every request crosses
        # (or does not cross) JIT thresholds identically
        for cls in vm.loader.loaded_classes():
            for method in cls.methods.values():
                method.invocation_count = 0
                method.backedge_count = 0
                method.template_deopt_count = 0
                method.osr_entry_count = 0

    def run(self, primed: bool = True) -> Dict:
        """Serve one request on the warm VM."""
        vm = self._vm
        if vm is None:
            raise ServiceError(
                f"WarmVM for {self.name!r} was never warmed up")
        started = time.perf_counter()
        self._reset()
        templates_before = vm.jit.templates_translated
        compiles_before = vm.jit.compile_count
        vm.launch(self.workload.main_class)
        return _collect_outcome(
            vm, self.workload, warm=primed,
            host_seconds=time.perf_counter() - started,
            templates_delta=(vm.jit.templates_translated
                             - templates_before),
            compiles_delta=vm.jit.compile_count - compiles_before)
