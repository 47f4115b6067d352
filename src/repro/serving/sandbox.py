"""Quality-handler sandboxing; :class:`HandlerSandbox` lives in
:mod:`repro.core.sandbox`.

The quality manager that runs every handler through the sandbox is in
``core``, below ``serving``; this module keeps the name importable from
the serving package.
"""

from ..core.sandbox import HandlerSandbox

__all__ = ["HandlerSandbox"]
