"""The JIT compiler: compilation decisions and accounting."""

from __future__ import annotations

from typing import Dict, List

from repro.jit.codecache import TemplateCodeCache
from repro.jit.policy import JitPolicy
from repro.jit.template import SWITCH, translate
from repro.jvm.costmodel import ChargeTag

#: A method not yet hot gets its counting form at this fraction of
#: ``JitPolicy.backedge_threshold`` taken backedges (at least one): 62
#: of the default 1,500.
COUNTING_FRACTION = 24


class JitCompiler:
    """Per-VM JIT state.

    ``enabled`` combines the policy switch with the JVMTI veto: when any
    agent holds the ``can_generate_method_entry_events`` /
    ``can_generate_method_exit_events`` capabilities, compilation is off
    for the whole run — the behaviour the paper observed on HotSpot and
    the root cause of SPA's overhead.

    Which code runs a method is a host decision, separate from the
    simulated compile.  A hot method is translated whether or not the
    JIT may compile it (with the JIT off its template charges the
    interpreted costs).  Before that, a warm one gets a *counting
    form* at its ``counting_at``-th taken backedge: a template that
    charges the interpreted costs and keeps the JIT's backedge counter
    as the dispatch loop does, entered framed only, so calls into it
    still count the invocation and may compile it on entry.
    """

    def __init__(self, vm, policy: JitPolicy):
        self._vm = vm
        self.policy = policy
        self._vetoed = False
        #: the taken backedge of a method not yet hot that makes its
        #: counting form (0: never, without the template tier)
        self.counting_at = max(
            1, policy.backedge_threshold // COUNTING_FRACTION) \
            if policy.template_tier else 0
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
        if method.counting:
            # new activations take the hot form; a live counting one
            # runs on until its costs change
            method.counting = False
            method.osr_map = method.osr_template = None
        self.hot_methods.append(method)
        if self.enabled:
            cost = (self._vm.cost_model.jit_compile_per_instruction
                    * len(method.info.code))
            if thread is not None:
                thread.charge(cost, ChargeTag.VM)
            method.mark_compiled()
        if self.policy.template_tier:
            self._translate(method)

    def _translation(self, method, **form):
        """``translate`` in this VM under this policy: ``(func,
        source)``, or None with the bail-out reason counted.

        Translation is host-only work — it charges no simulated cycles
        (the compile charge, when there is one, models the whole
        compilation)."""
        func, source, reason = translate(method, self._vm,
                                         policy=self.policy, **form)
        if func is None:
            self.template_bailouts[reason] = \
                self.template_bailouts.get(reason, 0) + 1
            return None
        return func, source

    def _translate(self, method) -> None:
        """Second tier: install a specialized Python function."""
        made = self._translation(method)
        if made is not None:
            self.code_cache.install(method, *made)

    def translate_counting(self, method) -> None:
        """``method`` is warm: install its counting form, made once per
        method per VM (a bail-out or an invalidated form is not
        retried).  None while a sampler is attached, which must see
        each charge whole (OSR entries and switches split them)."""
        method.counting = False
        if self._vm.threads.samplers:
            return
        made = self._translation(method, osr=True, counting=True)
        if made is not None:
            self.code_cache.install_counting(method, *made)

    def osr_template(self, method):
        """``method``'s OSR entry function, made at its first OSR entry:
        a structured template has no entry stubs, so a live frame
        enters the dispatch-form translation of the same method.
        Returns None (and stops offering OSR for the method) when that
        translation bails."""
        made = self._translation(method, osr=True)
        if made is None:
            method.osr_map = None
            return None
        self.code_cache.install_osr(method, *made)
        return made[0]

    def note_deopt(self, method, reason: str) -> None:
        """Record a template deoptimization; drop templates (or counting
        forms) that keep bouncing back to the interpreter.  A counting
        activation leaving because its method was compiled is not the
        template's fault and does not count toward that."""
        deopts = self._vm.template_deopts
        deopts[reason] = deopts.get(reason, 0) + 1
        if reason == SWITCH:
            return
        method.template_deopt_count += 1
        if (method.template_deopt_count
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
        """Templates and counting forms installed (OSR entry functions
        apart)."""
        cache = self.code_cache
        return cache.installed + cache.counting_installed

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
