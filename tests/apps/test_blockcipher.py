"""Toy ARX cipher: round-trips, adder injection, padding."""

import pytest

from repro.apps import ArxCipher, aca_adder, exact_adder, sample_corpus


def test_block_round_trip(rng):
    cipher = ArxCipher(0xDEADBEEF)
    for _ in range(200):
        block = rng.getrandbits(64)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_bytes_round_trip():
    cipher = ArxCipher(42)
    msg = b"the quick brown fox jumps over the lazy dog!1234"
    assert cipher.decrypt_bytes(cipher.encrypt_bytes(msg)) == msg


def test_padding_applied():
    cipher = ArxCipher(1)
    ct = cipher.encrypt_bytes(b"abc")
    assert len(ct) == 8
    assert cipher.decrypt_bytes(ct).startswith(b"abc")
    with pytest.raises(ValueError):
        cipher.decrypt_bytes(b"short")


def test_different_keys_differ():
    msg = b"same plaintext body okay"
    assert (ArxCipher(1).encrypt_bytes(msg) !=
            ArxCipher(2).encrypt_bytes(msg))


def test_encryption_diffuses(rng):
    cipher = ArxCipher(77)
    block = rng.getrandbits(64)
    flipped = block ^ 1
    diff = cipher.encrypt_block(block) ^ cipher.encrypt_block(flipped)
    assert bin(diff).count("1") > 10  # avalanche


def test_aca_decryption_mostly_correct(rng):
    """Wide-window ACA decryption rarely corrupts a block."""
    cipher = ArxCipher(0xABCD)
    approx = aca_adder(16)
    wrong = 0
    blocks = 300
    for _ in range(blocks):
        block = rng.getrandbits(64)
        ct = cipher.encrypt_block(block)
        if cipher.decrypt_block(ct, add=approx) != block:
            wrong += 1
    assert wrong < blocks * 0.12


def test_window12_decryption_keeps_most_corpus_blocks():
    """Section 1's premise on English text: a window-12 ACA still
    decrypts more than 80 % of the blocks correctly."""
    plain = sample_corpus(2048, seed=5)
    cipher = ArxCipher(0x2B)
    out = cipher.decrypt_bytes(cipher.encrypt_bytes(plain), aca_adder(12))
    same = sum(out[i:i + 8] == plain[i:i + 8]
               for i in range(0, len(plain), 8))
    assert same > (len(plain) // 8) * 0.8


def test_aca_decryption_deterministic(rng):
    cipher = ArxCipher(0xABCD)
    approx = aca_adder(6)
    ct = cipher.encrypt_block(rng.getrandbits(64))
    assert (cipher.decrypt_block(ct, add=approx) ==
            cipher.decrypt_block(ct, add=approx))


def test_narrow_window_corrupts_more_than_wide(rng):
    cipher = ArxCipher(99)
    blocks = [rng.getrandbits(64) for _ in range(200)]
    cts = [cipher.encrypt_block(b) for b in blocks]

    def wrong(window):
        add = aca_adder(window)
        return sum(cipher.decrypt_block(ct, add=add) != b
                   for ct, b in zip(cts, blocks))

    assert wrong(4) > wrong(12)


def test_exact_adder_semantics():
    assert exact_adder(0xFFFFFFFF, 1) == 0
    assert exact_adder(5, 7) == 12


def test_rounds_validation():
    with pytest.raises(ValueError):
        ArxCipher(1, rounds=1)
