"""A toy ARX block cipher with a pluggable adder.

The paper motivates the ACA with ciphertext-only attacks: decryption is
dominated by modular addition, blocks are independent, and a corpus-level
frequency analysis is insensitive to a handful of wrongly decrypted
blocks.  To exercise that claim end-to-end we implement a small
add-rotate-xor Feistel cipher (TEA-flavoured, 64-bit blocks, 32-bit
words) whose *every addition goes through an injectable adder function* —
the exact adder for encryption, and either the exact adder or the
functional ACA model for decryption.

This is a teaching cipher for the reproduction, not a secure design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

__all__ = ["AdderFn", "exact_adder", "aca_adder", "ArxCipher"]

#: An adder takes two 32-bit words and returns a 32-bit sum (mod 2^32).
AdderFn = Callable[[int, int], int]

_MASK32 = 0xFFFFFFFF
_GOLDEN = 0x9E3779B9  # TEA's key schedule constant


def exact_adder(a: int, b: int) -> int:
    """Reference 32-bit modular addition."""
    return (a + b) & _MASK32


def aca_adder(window: int) -> AdderFn:
    """A 32-bit adder backed by the functional ACA with the given window."""
    from ..families.aca import aca_add

    def add(a: int, b: int) -> int:
        result, _ = aca_add(a & _MASK32, b & _MASK32, 32, window)
        return result

    return add


def _rotl(x: int, r: int) -> int:
    r %= 32
    return ((x << r) | (x >> (32 - r))) & _MASK32


@dataclass
class ArxCipher:
    """Feistel ARX cipher: 64-bit blocks, 32-bit round keys.

    Args:
        key: Master key (any non-negative int; folded to 64 bits).
        rounds: Feistel rounds (default 8).

    The round function is ``F(x, k) = rotl(x + k, 4) ^ (x + delta_r)``
    where every ``+`` is the injected adder.  Encryption always uses the
    exact adder (ciphertext must be canonical); decryption accepts an
    adder override so the attack can run speculatively.
    """

    key: int
    rounds: int = 8

    def __post_init__(self):
        if self.rounds < 2:
            raise ValueError("need at least 2 rounds")
        self._subkeys = self._schedule(self.key & 0xFFFFFFFFFFFFFFFF)

    def _schedule(self, key: int) -> List[int]:
        k0 = key & _MASK32
        k1 = (key >> 32) & _MASK32
        subkeys = []
        state = k0
        for r in range(self.rounds):
            state = exact_adder(_rotl(state, 5) ^ k1,
                                exact_adder(_GOLDEN, r))
            subkeys.append(state)
        return subkeys

    def _round(self, x: int, r: int, add: AdderFn) -> int:
        t1 = add(x, self._subkeys[r])
        t2 = add(x, (_GOLDEN * (r + 1)) & _MASK32)
        return _rotl(t1, 4) ^ t2

    def encrypt_block(self, block: int) -> int:
        """Encrypt one 64-bit block (always exact arithmetic)."""
        left = (block >> 32) & _MASK32
        right = block & _MASK32
        for r in range(self.rounds):
            left, right = right, left ^ self._round(right, r, exact_adder)
        return (left << 32) | right

    def decrypt_block(self, block: int, add: AdderFn = exact_adder) -> int:
        """Decrypt one 64-bit block using the supplied adder.

        With :func:`exact_adder` this inverts :meth:`encrypt_block`
        exactly; with an ACA adder a small fraction of blocks decrypt
        incorrectly — the trade the paper's attack scenario makes.
        """
        left = (block >> 32) & _MASK32
        right = block & _MASK32
        for r in range(self.rounds - 1, -1, -1):
            left, right = right ^ self._round(left, r, add), left
        return (left << 32) | right

    # ------------------------------------------------------------------
    def encrypt_bytes(self, data: bytes) -> bytes:
        """ECB-encrypt *data* (zero-padded to a multiple of 8 bytes)."""
        if len(data) % 8:
            data = data + b"\x00" * (8 - len(data) % 8)
        out = bytearray()
        for i in range(0, len(data), 8):
            block = int.from_bytes(data[i:i + 8], "big")
            out += self.encrypt_block(block).to_bytes(8, "big")
        return bytes(out)

    def decrypt_bytes(self, data: bytes,
                      add: AdderFn = exact_adder) -> bytes:
        """ECB-decrypt *data* with the supplied adder."""
        if len(data) % 8:
            raise ValueError("ciphertext must be a multiple of 8 bytes")
        out = bytearray()
        for i in range(0, len(data), 8):
            block = int.from_bytes(data[i:i + 8], "big")
            out += self.decrypt_block(block, add).to_bytes(8, "big")
        return bytes(out)
