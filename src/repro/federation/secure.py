"""Secure channels between federation components.

§4: "Cohera optionally provides full SSL encryption between its
components, to allow for secure E-Business communication across public
channels."  Two halves are reproduced:

* **Cost model** -- :class:`SecureNetwork` wraps the network model: the
  first transfer between a site pair pays a handshake, and every transfer
  pays an encryption throughput factor.  Benchmarks can thus price the
  privacy of cross-enterprise links.
* **Envelope semantics** -- :func:`seal` / :func:`unseal` implement a *toy*
  stream cipher with an integrity tag.  It is a simulation stand-in for
  TLS, NOT real cryptography (the keystream is a seeded PRNG); what it
  gives the reproduction is the *behaviour* that matters to the system:
  payloads are unreadable without the session key, and tampering is
  detected at unseal time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.core.errors import ContentIntegrationError
from repro.federation.network import Network


class TamperedPayloadError(ContentIntegrationError):
    """An envelope failed its integrity check."""


@dataclass(frozen=True)
class SessionKey:
    """A shared secret between two components (post-handshake)."""

    key_id: str
    secret: int


def establish_session(site_a: str, site_b: str, shared_secret: int) -> SessionKey:
    """Derive the pair's session key (the handshake's output)."""
    pair = "|".join(sorted((site_a, site_b)))
    digest = hashlib.sha256(f"{pair}:{shared_secret}".encode()).digest()
    return SessionKey(key_id=pair, secret=int.from_bytes(digest[:8], "big"))


def _keystream(key: SessionKey, length: int) -> bytes:
    rng = random.Random(key.secret)
    return bytes(rng.randrange(256) for _ in range(length))


def _tag(key: SessionKey, ciphertext: bytes) -> bytes:
    return hashlib.sha256(
        key.secret.to_bytes(8, "big") + ciphertext
    ).digest()[:16]


def seal(payload: str, key: SessionKey) -> bytes:
    """Encrypt-and-tag a payload for the wire."""
    data = payload.encode("utf-8")
    ciphertext = bytes(
        b ^ k for b, k in zip(data, _keystream(key, len(data)))
    )
    return _tag(key, ciphertext) + ciphertext


def unseal(envelope: bytes, key: SessionKey) -> str:
    """Verify integrity and decrypt; raises on tampering or wrong key."""
    if len(envelope) < 16:
        raise TamperedPayloadError("envelope too short to carry a tag")
    tag, ciphertext = envelope[:16], envelope[16:]
    if _tag(key, ciphertext) != tag:
        raise TamperedPayloadError("integrity tag mismatch")
    data = bytes(
        b ^ k for b, k in zip(ciphertext, _keystream(key, len(ciphertext)))
    )
    return data.decode("utf-8")


class SecureNetwork(Network):
    """The network model with per-pair handshakes and encryption overhead.

    The first transfer between two sites performs the handshake (a fixed
    latency); the session is then cached, so steady-state cost is just the
    ``encryption_factor`` on transfer time -- the familiar TLS cost shape.
    """

    def __init__(
        self,
        base_latency: float = 0.02,
        seconds_per_byte: float = 2.5e-7,
        handshake_seconds: float = 0.08,
        encryption_factor: float = 1.15,
        shared_secret: int = 0xC0FEE,
    ) -> None:
        super().__init__(base_latency, seconds_per_byte)
        if encryption_factor < 1.0:
            raise ValueError("encryption cannot speed transfers up")
        self.handshake_seconds = handshake_seconds
        self.encryption_factor = encryption_factor
        self.shared_secret = shared_secret
        self._sessions: dict[tuple[str, str], SessionKey] = {}
        self.handshakes_performed = 0

    def session_for(self, site_a: str, site_b: str) -> SessionKey:
        """The pair's session key, performing the handshake if new."""
        key = self._key(site_a, site_b)
        if key not in self._sessions:
            self._sessions[key] = establish_session(
                site_a, site_b, self.shared_secret
            )
            self.handshakes_performed += 1
        return self._sessions[key]

    @staticmethod
    def _key(site_a: str, site_b: str) -> tuple[str, str]:
        return (site_a, site_b) if site_a <= site_b else (site_b, site_a)

    def transfer_seconds_bytes(self, site_a: str, site_b: str, nbytes: int) -> float:
        if site_a == site_b:
            return 0.0
        handshake = 0.0
        if self._key(site_a, site_b) not in self._sessions:
            self.session_for(site_a, site_b)
            handshake = self.handshake_seconds
        return (
            handshake
            + super().transfer_seconds_bytes(site_a, site_b, nbytes)
            * self.encryption_factor
        )
