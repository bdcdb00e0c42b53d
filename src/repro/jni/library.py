"""Native libraries and the per-VM native registry.

A :class:`NativeLibrary` is a named bag of host callables keyed by
mangled JNI symbol.  Implementations have the signature
``fn(env, *args)`` where ``env`` is a :class:`~repro.jni.function_table.JNIEnv`
bound to the invoking thread; for instance methods ``args[0]`` is the
receiver.  Implementations are responsible for charging their own
simulated cycles through ``env.charge(...)``.

The :class:`NativeRegistry` models ``System.loadLibrary`` plus native
method resolution, including the JVMTI 1.1 *native method prefixing*
retry: if direct resolution of a (renamed) method like ``_ipa_foo``
fails, each registered prefix is stripped in turn and resolution is
retried — this is how instrumented wrappers link against unchanged
library symbols.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import JNIError, UnsatisfiedLinkError
from repro.jni.mangling import mangle


class NativeLibrary:
    """One loadable native library."""

    def __init__(self, name: str):
        if not name:
            raise JNIError("library name must be non-empty")
        self.name = name
        self._symbols: Dict[str, Callable] = {}

    def export(self, symbol: str, fn: Callable) -> Callable:
        """Register ``fn`` under a raw mangled ``symbol``."""
        if symbol in self._symbols:
            raise JNIError(
                f"duplicate symbol {symbol!r} in library {self.name!r}")
        self._symbols[symbol] = fn
        return fn

    def native_method(self, class_name: str,
                      method_name: str) -> Callable:
        """Decorator: export the implementation of
        ``class_name.method_name``.

        >>> lib = NativeLibrary("demo")
        >>> @lib.native_method("demo.Main", "nativeAdd")
        ... def native_add(env, a, b):
        ...     env.charge(10)
        ...     return a + b
        """
        symbol = mangle(class_name, method_name)

        def decorator(fn: Callable) -> Callable:
            return self.export(symbol, fn)

        return decorator

    def lookup(self, symbol: str) -> Optional[Callable]:
        return self._symbols.get(symbol)

    def symbols(self) -> List[str]:
        return list(self._symbols)

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<NativeLibrary {self.name!r} ({len(self._symbols)} syms)>"


class NativeRegistry:
    """Per-VM registry of available and loaded native libraries."""

    def __init__(self, vm):
        self._vm = vm
        self._available: Dict[str, NativeLibrary] = {}
        self._loaded: List[NativeLibrary] = []

    # -- configuration (host side, before/at launch) ---------------------------

    def register(self, library: NativeLibrary,
                 preload: bool = False) -> None:
        """Make ``library`` available for ``System.loadLibrary``;
        ``preload=True`` links it immediately (core JDK natives)."""
        if library.name in self._available:
            raise JNIError(f"library {library.name!r} already registered")
        self._available[library.name] = library
        if preload:
            self._loaded.append(library)

    # -- runtime behaviour --------------------------------------------------------

    def load_library(self, name: str) -> None:
        """``System.loadLibrary(name)``."""
        library = self._available.get(name)
        if library is None:
            raise UnsatisfiedLinkError(f"no library {name!r} available")
        if library not in self._loaded:
            self._loaded.append(library)

    def is_loaded(self, name: str) -> bool:
        return any(lib.name == name for lib in self._loaded)

    def _lookup(self, symbol: str) -> Optional[Callable]:
        for library in self._loaded:
            fn = library.lookup(symbol)
            if fn is not None:
                return fn
        return None

    def resolve(self, method) -> Optional[Callable]:
        """Resolve a native :class:`~repro.jvm.classloader.LoadedMethod`.

        Tries the direct mangled name first; on failure retries with each
        JVMTI-registered prefix stripped from the method name (most
        recently registered prefix first, per the JVMTI contract).
        Returns ``None`` when unresolved (the interpreter turns that into
        ``UnsatisfiedLinkError`` at the Java level).
        """
        class_name = method.owner.name
        method_name = method.info.name
        fn = self._lookup(mangle(class_name, method_name))
        if fn is not None:
            return fn
        for prefix in reversed(self._vm.jvmti.native_method_prefixes):
            if prefix and method_name.startswith(prefix):
                stripped = method_name[len(prefix):]
                fn = self._lookup(mangle(class_name, stripped))
                if fn is not None:
                    return fn
        return None
