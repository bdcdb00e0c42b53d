"""The JIT compiler: compilation decisions and accounting."""

from __future__ import annotations

from typing import Dict, List

from repro.jit.codecache import TemplateCodeCache
from repro.jit.policy import JitPolicy
from repro.jit.template import translate
from repro.jvm.costmodel import ChargeTag


class JitCompiler:
    """Per-VM JIT state.

    ``enabled`` combines the policy switch with the JVMTI veto: when any
    agent holds the ``can_generate_method_entry_events`` /
    ``can_generate_method_exit_events`` capabilities, compilation is off
    for the whole run — the behaviour the paper observed on HotSpot and
    the root cause of SPA's overhead.

    Whether a hot method runs as a template is a host decision, separate
    from the simulated compile: with the JIT off, a hot method is still
    translated, and its template charges the interpreted costs.
    """

    def __init__(self, vm, policy: JitPolicy):
        self._vm = vm
        self.policy = policy
        self._vetoed = False
        #: every method that crossed a hotness threshold, in order
        self.hot_methods: List = []
        # template tier (second execution tier) state
        self.code_cache = TemplateCodeCache()
        #: translator bail-out reason -> count (no silent fallback)
        self.template_bailouts: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.policy.enabled and not self._vetoed

    @property
    def vetoed(self) -> bool:
        return self._vetoed

    def veto(self) -> None:
        """Disable compilation for the rest of the run (JVMTI method
        events requested)."""
        self._vetoed = True

    def compile(self, thread, method) -> None:
        """``method`` crossed a hotness threshold: mark it hot and, if
        the JIT is enabled, compile it (charge VM cycles and swap its
        cost array).  Either way the template tier translates it.

        ``enabled`` only ever goes from true to false, so a method
        translated uncompiled is never compiled later and its
        template's interpreted costs never go stale."""
        if method.hot or method.info.code is None:
            return
        method.hot = True
        self.hot_methods.append(method)
        if self.enabled:
            cost = (self._vm.cost_model.jit_compile_per_instruction
                    * len(method.info.code))
            if thread is not None:
                thread.charge(cost, ChargeTag.VM)
            method.mark_compiled()
        if self.policy.template_tier:
            self._translate(method)

    def _translate(self, method) -> None:
        """Second tier: install a specialized Python function.

        Translation is host-only work — it charges no simulated cycles
        (the compile charge above, when there is one, models the whole
        compilation)."""
        func, source, reason = translate(method, self._vm,
                                         policy=self.policy)
        if func is None:
            self.template_bailouts[reason] = \
                self.template_bailouts.get(reason, 0) + 1
            return
        self.code_cache.install(method, func, source)

    def osr_template(self, method):
        """``method``'s OSR entry function, made at its first OSR entry:
        a structured template has no entry stubs, so a live frame
        enters the dispatch-form translation of the same method.  Host
        work only, like :meth:`_translate`.  Returns None (and stops
        offering OSR for the method) when that translation bails."""
        func, source, reason = translate(method, self._vm,
                                         policy=self.policy, osr=True)
        if func is None:
            self.template_bailouts[reason] = \
                self.template_bailouts.get(reason, 0) + 1
            method.osr_map = None
            return None
        self.code_cache.install_osr(method, func, source)
        return func

    def note_deopt(self, method, reason: str) -> None:
        """Record a template deoptimization; drop templates that keep
        bouncing back to the interpreter."""
        deopts = self._vm.template_deopts
        deopts[reason] = deopts.get(reason, 0) + 1
        method.template_deopt_count += 1
        if (method.template is not None
                and method.template_deopt_count
                >= self.policy.template_deopt_disable_threshold):
            self.code_cache.invalidate(method, reason)

    @property
    def methods_compiled(self) -> List:
        return [m for m in self.hot_methods if m.compiled]

    @property
    def compile_count(self) -> int:
        return len(self.methods_compiled)

    @property
    def templates_translated(self) -> int:
        return self.code_cache.installed

    # The per-run template counters live on the VM (RunState);
    # bench/tracing.py still reads these three names here.

    @property
    def template_entries(self) -> int:
        return self._vm.template_entries

    @property
    def osr_entries(self) -> int:
        return self._vm.osr_entries

    @property
    def template_deopts(self) -> Dict[str, int]:
        return self._vm.template_deopts
