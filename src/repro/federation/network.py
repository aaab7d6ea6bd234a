"""The network model between federation sites.

Deliberately simple: one base round-trip latency between any two sites
plus a transfer cost.  Local transfers (same site) are free.

Transfer is charged per byte (:meth:`Network.transfer_seconds_bytes`):
the data plane ships encoded column batches, so a well-encoded column is
genuinely cheaper to move than its raw rows.  The default rate puts a
typical ~40-byte row at about 1e-5 seconds.
"""

from __future__ import annotations


class Network:
    """Latency and transfer accounting between named sites."""

    def __init__(
        self,
        base_latency: float = 0.02,
        seconds_per_byte: float = 2.5e-7,
    ) -> None:
        self.base_latency = base_latency
        self.seconds_per_byte = seconds_per_byte

    def latency(self, site_a: str, site_b: str) -> float:
        return 0.0 if site_a == site_b else self.base_latency

    def transfer_seconds_bytes(self, site_a: str, site_b: str, nbytes: int) -> float:
        """Total seconds to move ``nbytes`` of encoded payload."""
        if site_a == site_b:
            return 0.0
        return self.latency(site_a, site_b) + nbytes * self.seconds_per_byte
