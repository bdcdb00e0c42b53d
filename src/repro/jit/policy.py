"""JIT policy knobs."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class JitPolicy:
    """Tunable compilation policy.

    ``enabled=False`` models ``-Xint``; the JVMTI layer additionally
    forces the JIT off for the whole run when an agent requests the
    method-entry/exit event capabilities (see
    :class:`repro.jvmti.capabilities.Capabilities`).  Neither switch
    touches the template tier: hot methods are translated either way,
    and an uncompiled method's template charges its interpreted costs.
    """

    #: Master switch (the JVMTI capability veto is separate).
    enabled: bool = True
    #: Compile after this many invocations of a method.
    invoke_threshold: int = 40
    #: Compile after this many taken backward branches (the simulator's
    #: on-stack-replacement stand-in: the switched cost array takes
    #: effect on the next cost lookup).
    backedge_threshold: int = 1500
    #: Second execution tier: translate hot methods, compiled or not, to
    #: specialized Python (``repro.jit.template``: Java locals as Python
    #: locals, pure operands forwarded into their consumers, plain
    #: returns).  Host-speed only — simulated cycle accounting is
    #: bit-identical with the tier off.  Code generation has no knobs.
    template_tier: bool = True
    #: Drop a method's template after this many deoptimizations (the
    #: template keeps falling back to the interpreter, so it is not
    #: paying for itself).  The method keeps its cost array; only the
    #: host-speed template is discarded.
    template_deopt_disable_threshold: int = 50
    #: Methods longer than this many instructions are not translated
    #: (bail-out reason ``too_long``) — bounds generated-source size.
    template_code_limit: int = 2000
    #: On-stack replacement: transfer a live interpreter frame into the
    #: method's template at a hot loop backedge instead of waiting for
    #: the next invocation.  Host-speed only — cycle accounting is
    #: bit-identical with OSR off.
    osr: bool = True
    #: Polymorphic inline cache depth for invokevirtual sites: up to
    #: this many (class, method) pairs are cached per site before the
    #: site goes megamorphic (plain vtable lookup).  Depth 1 is the old
    #: monomorphic cache.
    pic_depth: int = 4

    def copy(self) -> "JitPolicy":
        # dataclasses.replace copies every field by name; a field added
        # above can no longer be silently dropped here.
        return replace(self)
