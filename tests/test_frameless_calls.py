"""Frameless template-to-template calls.

A templated INVOKE whose callee has a template calls it with plain
Python arguments: no Frame, no push/pop.  A Frame is built only where
something reads one — a handler that runs in a frameless activation, a
deopt inside one — and the race sanitizer keeps every call framed.
Each test pins the tier contract (every simulated observable identical
with the template tier on or off) on one of those edges.
"""

import pytest

import repro.jit.compiler as compiler_module
from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import Op
from repro.errors import StackOverflowSimError
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.jit.policy import JitPolicy
from repro.jit.template import translate
from repro.jni.library import NativeLibrary
from repro.jvm.costmodel import CostModel
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm
from repro.observability.flamegraph import folded_lines
from repro.workloads import get_workload

from helpers import build_app, expr_main, run_main

#: Low thresholds so tiny programs reach their templates quickly.
HOT = dict(invoke_threshold=5, backedge_threshold=50)


def _vm(tier, cost_model=None, libraries=(), **policy):
    kwargs = dict(HOT)
    kwargs.update(policy)
    config = VMConfig(jit_policy=JitPolicy(template_tier=tier, **kwargs))
    if cost_model is not None:
        config.cost_model = cost_model
    vm = create_vm(config)
    for library in libraries:
        vm.native_registry.register(library, preload=True)
    return vm


def _observables(vm):
    return {
        "console": list(vm.console),
        "total_cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions_retired": vm.instructions_retired,
        "method_invocations": vm.method_invocations,
        "native_invocations": vm.native_invocations,
        "jni_invocations": vm.jni_invocations,
        "ic_hits": vm.ic_hits,
        "ic_misses": vm.ic_misses,
    }


def _spy_framed_entries(vm):
    """Count ``_enter_bytecode_method`` calls per method name."""
    counts = {}
    original = vm.interpreter._enter_bytecode_method

    def spy(thread, method, args):
        counts[method.info.name] = counts.get(method.info.name, 0) + 1
        return original(thread, method, args)

    vm.interpreter._enter_bytecode_method = spy
    return counts


def _throw(m, class_name, message):
    m.new(class_name).dup().ldc(message)
    m.invokespecial(class_name, "<init>", "(Ljava.lang.String;)V")
    m.athrow()


# -- exceptions through frameless activations ---------------------------------


def _chain_app():
    """main (interpreted root) -> a (framed template) -> b -> c -> d,
    where b, c and d run frameless once hot.  From i = 40 on, d throws
    one of four exceptions, caught by d itself, by c, by b, or by main;
    every handler computes its result from its own locals."""
    c = ClassAssembler("fl.Chain")
    with c.method("d", "(I)I", static=True) as m:
        m.iload(0).iconst(3).imul().istore(1)            # t = 3x
        m.iload(0).iconst(4).irem().istore(2)            # k = x % 4
        m.label("try")
        m.iload(0).ldc(40).if_icmplt("ok")
        m.iload(2).ifne("not0")
        _throw(m, "java.lang.NumberFormatException", "own")
        m.label("not0")
        m.iload(2).iconst(1).if_icmpne("not1")
        _throw(m, "java.lang.IllegalStateException", "middle")
        m.label("not1")
        m.iload(2).iconst(2).if_icmpne("not2")
        m.iload(0).iconst(0).idiv().ireturn()            # synthesized
        m.label("not2")
        _throw(m, "java.lang.IllegalArgumentException", "root")
        m.label("ok")
        m.iload(1).iconst(1).iadd().ireturn()
        m.label("try_end")
        m.label("handler")
        m.pop().iload(1).iload(2).iadd().ldc(1000).iadd().ireturn()
        m.try_catch("try", "try_end", "handler",
                    "java.lang.NumberFormatException")
    with c.method("c", "(I)I", static=True) as m:
        m.iload(0).iconst(7).iadd().istore(1)            # y = x + 7
        m.label("try")
        m.iload(0).invokestatic("fl.Chain", "d", "(I)I")
        m.iload(1).iadd().ireturn()
        m.label("try_end")
        m.label("handler")
        m.pop().iload(1).iconst(2).imul().ireturn()
        m.try_catch("try", "try_end", "handler",
                    "java.lang.IllegalStateException")
    with c.method("b", "(I)I", static=True) as m:
        m.iload(0).iconst(5).imul().istore(1)            # z = 5x
        m.label("try")
        m.iload(0).invokestatic("fl.Chain", "c", "(I)I")
        m.iload(1).isub().ireturn()
        m.label("try_end")
        m.label("handler")
        m.pop().iload(1).ineg().ireturn()
        m.try_catch("try", "try_end", "handler",
                    "java.lang.ArithmeticException")
    with c.method("a", "(I)I", static=True) as m:
        m.iload(0).invokestatic("fl.Chain", "b", "(I)I")
        m.iconst(1).iadd().ireturn()

    main = ClassAssembler("fl.ChainM")
    with main.method("main", "()V", static=True) as m:
        m.iconst(0).istore(0)                            # sum
        m.iconst(0).istore(1)                            # i
        m.label("t")
        m.iload(1).ldc(80).if_icmpge("e")
        m.iload(1).ldc(11).imul().istore(2)              # w = 11i
        m.label("try")
        m.iload(1).invokestatic("fl.Chain", "a", "(I)I")
        m.iload(0).iadd().istore(0)
        m.label("try_end")
        m.goto("next")
        m.label("handler")
        m.pop().iload(0).iload(2).iadd().istore(0)
        m.label("next")
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.getstatic("java.lang.System", "out").iload(0)
        m.invokevirtual("java.io.PrintStream", "println", "(I)V")
        m.return_()
        m.try_catch("try", "try_end", "handler",
                    "java.lang.IllegalArgumentException")
    return build_app(c, main)


def _chain_expected():
    total = 0
    for i in range(80):
        k = i % 4
        late = i >= 40
        if late and k == 3:
            total += 11 * i
            continue
        d = 3 * i + 1000 if late and k == 0 else 3 * i + 1
        c = (i + 7) * 2 if late and k == 1 else d + i + 7
        b = -5 * i if late and k == 2 else c - 5 * i
        total += b + 1
    return total


class TestExceptions:
    def test_three_frameless_levels_deep(self):
        runs = {}
        for tier in (True, False):
            # osr off: main stays an interpreted root frame
            vm = _vm(tier, osr=False)
            framed = _spy_framed_entries(vm)
            run_main(_chain_app(), "fl.ChainM", vm=vm)
            runs[tier] = (vm, framed)
        templated, framed = runs[True]
        assert _observables(templated) == _observables(runs[False][0])
        assert templated.console[-1] == str(_chain_expected())
        chain = templated.loader.loaded_class("fl.Chain")
        for name in ("a", "b", "c", "d"):
            method = chain.find_declared(name, "(I)I")
            assert method.template is not None, name
            assert method.invocation_count == 80, name
        # a is called from the interpreted root, so it always gets a
        # Frame; its hot callees mostly do not
        assert framed["a"] == 80
        for name in ("b", "c", "d"):
            assert framed[name] < 10, (name, framed[name])
        thread = templated.threads.all_threads[0]
        assert thread.frames == [] and thread.frameless == 0

    def test_handlers_resume_in_rebuilt_frames(self):
        vm = _vm(True, osr=False)
        built = []
        interp = vm.interpreter
        original = interp._finish_frameless

        def spy(thread, frame):
            built.append((frame.method.info.name, frame.pc,
                          list(frame.locals)))
            return original(thread, frame)

        interp._finish_frameless = spy
        run_main(_chain_app(), "fl.ChainM", vm=vm)
        names = {name for name, _, _ in built}
        # d catches its own exception, c and b catch escaping ones
        assert names == {"b", "c", "d"}
        for name, _, locals_ in built:
            x = locals_[0]
            assert x >= 40
            expected = {"d": 3 * x, "c": x + 7, "b": 5 * x}[name]
            assert locals_[1] == expected, (name, locals_)


# -- deopt inside a frameless callee ------------------------------------------


def _deopt_app():
    c = ClassAssembler("fl.Sq")
    with c.method("f", "(I)I", static=True) as m:
        m.iload(0).iload(0).imul().iconst(1).iadd().ireturn()
    with c.method("g", "(I)I", static=True) as m:
        m.iload(0).invokestatic("fl.Sq", "f", "(I)I")
        m.iload(0).iconst(1).iadd().invokestatic("fl.Sq", "f", "(I)I")
        m.iadd().ireturn()

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(60).if_icmpge("e")
        m.iload(1).invokestatic("fl.Sq", "g", "(I)I")
        m.iload(0).iadd().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(c, expr_main("fl.SqM", body))


class TestDeopt:
    def test_deopt_inside_frameless_callee(self, monkeypatch):
        def crippled(method, target_vm, policy=None,
                     exclude_ops=frozenset()):
            if method.info.name == "f":
                exclude_ops = frozenset({int(Op.IMUL)})
            return translate(method, target_vm, policy=policy,
                             exclude_ops=exclude_ops)

        monkeypatch.setattr(compiler_module, "translate", crippled)
        runs = {}
        frameless_deopts = []
        for tier in (True, False):
            vm = _vm(tier, template_deopt_disable_threshold=12)
            if tier:
                interp = vm.interpreter
                original = interp._template_deopt

                def spy(thread, frame, *rest):
                    frameless_deopts.append(frame is None)
                    return original(thread, frame, *rest)

                interp._template_deopt = spy
            runs[tier] = run_main(_deopt_app(), "fl.SqM", vm=vm)
        templated = runs[True]
        assert _observables(templated) == _observables(runs[False])
        assert templated.console[-1] == str(
            sum(i * i + 1 + (i + 1) * (i + 1) + 1 for i in range(60)))
        assert templated.jit.template_deopts["unsupported_op:imul"] == 12
        assert templated.jit.code_cache.invalidated == 1
        # g is templated early, so most of f's deopts are frameless
        assert frameless_deopts.count(True) >= 8
        assert templated.threads.all_threads[0].frameless == 0


# -- stack overflow across framed, frameless and JNI activations --------------


def _deep_app():
    c = ClassAssembler("fl.Deep")
    c.native_method("viaJni", "(I)I", static=True)
    with c.method("down", "(I)I", static=True) as m:
        # every seventh level re-enters through a native + JNI callback
        m.iload(0).iconst(7).irem().ifne("direct")
        m.iload(0).iconst(1).iadd()
        m.invokestatic("fl.Deep", "viaJni", "(I)I").ireturn()
        m.label("direct")
        m.iload(0).iconst(1).iadd()
        m.invokestatic("fl.Deep", "down", "(I)I").ireturn()

    def body(m):
        m.iconst(1).invokestatic("fl.Deep", "down", "(I)I")

    return build_app(c, expr_main("fl.DeepM", body))


def _deep_library():
    lib = NativeLibrary("fldeep")

    @lib.native_method("fl.Deep", "viaJni")
    def via_jni(env, value):
        env.charge(15)
        mid = env.get_static_method_id("fl.Deep", "down", "(I)I")
        return env.call_static_int_method(mid, value)

    return lib


class TestStackOverflow:
    def test_same_depth_and_cycles_in_both_tiers(self):
        outcomes = {}
        for tier in (True, False):
            vm = _vm(tier, cost_model=CostModel(max_frames=300),
                     libraries=(_deep_library(),))
            vm.loader.add_classpath_archive(_deep_app())
            with pytest.raises(StackOverflowSimError):
                vm.launch("fl.DeepM")
            thread = vm.threads.all_threads[0]
            outcomes[tier] = (_observables(vm), thread.depth)
            if tier:
                # the chain really mixed both kinds of activation
                assert 0 < thread.frameless < thread.depth
                assert len(thread.frames) > 1
        assert outcomes[True] == outcomes[False]
        assert outcomes[True][1] == 300


# -- JVMTI, schedulers and the sanitizer --------------------------------------


class TestObservers:
    def test_callchain_cct_matches_interp_tier(self):
        folded = {}
        for tier in (True, False):
            result = execute(get_workload("mtrt"), RunConfig(
                agent=AgentSpec.callchain(),
                vm_config=VMConfig(jit_policy=JitPolicy(
                    template_tier=tier))))
            folded[tier] = folded_lines(result.agent_object.roots)
        assert folded[True] and folded[True] == folded[False]

    def test_gate_reads_the_current_jvmti_host(self, monkeypatch):
        """A warm reset replaces the JVMTI host; templates translated
        before it must see the new host's method-event flags."""
        import repro.service.warm as warm_module
        from repro.jvmti.host import JVMTIHost
        from repro.service import WarmVM

        warm = WarmVM("db").warmup()
        plain = warm.run()
        counts = {"entry": 0, "exit": 0}

        class EventHost(JVMTIHost):
            def __init__(self, vm, version):
                super().__init__(vm, version)
                self.method_entry_enabled = True
                self.method_exit_enabled = True

            def dispatch_method_entry(self, thread, method):
                counts["entry"] += 1

            def dispatch_method_exit(self, thread, method, by_exception):
                counts["exit"] += 1

        monkeypatch.setattr(warm_module, "JVMTIHost", EventHost)
        events = warm.run()
        vm = warm._vm
        assert events["checksum"] == plain["checksum"]
        assert events["cycles"] == plain["cycles"]
        calls = vm.method_invocations + vm.native_invocations
        assert counts == {"entry": calls, "exit": calls}

    @pytest.mark.parametrize("cores", [2, 4])
    def test_scheduled_runs_repeat_and_match_across_tiers(self, cores):
        seen = set()
        for tier in (True, False, True):
            result = execute(get_workload("fj-kmeans"), RunConfig(
                agent=AgentSpec.none(),
                vm_config=VMConfig(cores=cores, jit_policy=JitPolicy(
                    template_tier=tier))))
            assert result.validation_ok and not result.thread_deaths
            seen.add((result.cycles, result.instructions,
                      tuple(result.core_clocks), tuple(result.console)))
        assert len(seen) == 1

    @pytest.mark.parametrize("name, field, prior, current", [
        ("racy-counter", "count",
         "racy.counter.Worker.run()V@11", "racy.counter.Worker.run()V@8"),
        ("racy-lockorder", "value",
         "racy.order.Worker.run()V@23", "racy.order.Worker.run()V@40"),
    ])
    def test_sanitizer_stacks_match_interp_tier(self, name, field, prior,
                                                current):
        races = {}
        for tier in (True, False):
            result = execute(get_workload(name), RunConfig(
                agent=AgentSpec.none(),
                vm_config=VMConfig(sanitize="race", jit_policy=JitPolicy(
                    template_tier=tier))))
            races[tier] = result.races
        assert races[True] == races[False]
        (race,) = races[True]
        assert race["field"] == field
        assert race["prior"]["stack"] == [prior]
        assert race["current"]["stack"] == [current]
