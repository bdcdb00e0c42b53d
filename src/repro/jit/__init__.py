"""JIT compilation model.

Models the HotSpot server compiler at the fidelity the paper needs:
hot methods (by invocation or backedge count) switch from interpreted to
compiled per-instruction costs, compilation itself costs VM cycles, and
— crucially — requesting the JVMTI ``MethodEntry``/``MethodExit``
capabilities disables compilation entirely, which is the mechanism
behind SPA's 1 500 % – 42 000 % overhead.

The template tier (``repro.jit.template``) additionally translates
hot methods, compiled or not, and warm methods' counting forms into
specialized Python functions — a real second execution tier for host
throughput.  It is accounting-invariant by
construction: simulated cycle totals, charge boundaries, and event
sequences are bit-identical with the tier on or off.
"""

from repro.jit.codecache import TemplateCodeCache
from repro.jit.compiler import JitCompiler
from repro.jit.policy import JitPolicy
from repro.jit.template import translate

__all__ = ["JitPolicy", "JitCompiler", "TemplateCodeCache", "translate"]
