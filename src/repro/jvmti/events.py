"""JVMTI event kinds."""

from __future__ import annotations

import enum


class JvmtiEvent(enum.Enum):
    """The events the host can deliver (the paper's subset, plus
    VM_INIT and CLASS_FILE_LOAD_HOOK which IPA's dynamic-instrumentation
    variant uses)."""

    VM_INIT = "VMInit"
    VM_DEATH = "VMDeath"
    THREAD_START = "ThreadStart"
    THREAD_END = "ThreadEnd"
    METHOD_ENTRY = "MethodEntry"
    METHOD_EXIT = "MethodExit"
    CLASS_FILE_LOAD_HOOK = "ClassFileLoadHook"

    # Members are singletons and compare by identity, so identity
    # hashing is equivalent to Enum's value-string hash — and C-level
    # fast.  Every delivery tests ``event in env.enabled_events``; no
    # set of events is ever iterated, so no order depends on the hash.
    __hash__ = object.__hash__
