"""The network model between federation sites.

Deliberately simple: a base round-trip latency per site pair (overridable
for specific pairs -- cross-enterprise WAN links cost more than machine-room
hops) plus a transfer cost.  Local transfers (same site) are free.

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
        self._pair_latency: dict[tuple[str, str], float] = {}

    def set_latency(self, site_a: str, site_b: str, latency: float) -> None:
        """Override the latency for one (unordered) pair of sites."""
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        self._pair_latency[self._key(site_a, site_b)] = latency

    def latency(self, site_a: str, site_b: str) -> float:
        if site_a == site_b:
            return 0.0
        return self._pair_latency.get(self._key(site_a, site_b), self.base_latency)

    def transfer_seconds_bytes(self, site_a: str, site_b: str, nbytes: int) -> float:
        """Total seconds to move ``nbytes`` of encoded payload."""
        if site_a == site_b:
            return 0.0
        return self.latency(site_a, site_b) + nbytes * self.seconds_per_byte

    @staticmethod
    def _key(site_a: str, site_b: str) -> tuple[str, str]:
        return (site_a, site_b) if site_a <= site_b else (site_b, site_a)
