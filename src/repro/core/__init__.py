"""PaRiS core: the client side of the paper's protocol, messages, metrics.

The server side is :mod:`repro.protocols`.
"""

from .cache import WriteCache
from .client import PaRiSClient, ReadResult, TransactionHandle, TransactionStateError
from .metrics import ServerMetrics

__all__ = [
    "PaRiSClient",
    "ReadResult",
    "ServerMetrics",
    "TransactionHandle",
    "TransactionStateError",
    "WriteCache",
]
