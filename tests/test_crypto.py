import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from tap3sim.crypto import (
    DIGEST_LEN,
    PseudonymChain,
    TrapdoorIndex,
    derive_pairwise_key,
    encode_node_id,
    hmac_tag,
    master_key,
    prf,
    trapdoor_check,
    verify_hmac,
)
from oracles import _DirectionIndex

# RFC 4231 HMAC-SHA-256 test vectors (cases 1-4).
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
]


@pytest.mark.parametrize("key,msg,tag_hex", RFC4231)
def test_prf_matches_rfc4231(key, msg, tag_hex):
    assert prf(key, msg).hex() == tag_hex
    assert hmac_tag(key, msg).hex() == tag_hex


def test_derive_pairwise_key_deterministic_and_distinct():
    k = master_key(1, 0)
    k2 = master_key(2, 0)
    a = derive_pairwise_key(k, 7)
    assert a == derive_pairwise_key(k, 7)
    assert len(a) == 32
    assert a != derive_pairwise_key(k, 8)
    assert a != derive_pairwise_key(k2, 7)


def test_keys_and_aliases_are_raw_digests():
    """Every key and alias is `bytes` of length `DIGEST_LEN`: the length
    check lives only where aliases come from outside (trace replay)."""
    def raw_digest(value):
        return type(value) is bytes and len(value) == DIGEST_LEN

    master = master_key(6, 2)
    key = derive_pairwise_key(master, 9)
    assert raw_digest(master)
    assert raw_digest(key)
    assert raw_digest(prf(key, b"payload"))
    chain = PseudonymChain.start(key, 2)
    index = TrapdoorIndex(chain, window=16)
    for _ in range(40):
        assert raw_digest(chain.key)
        assert raw_digest(chain.current)
        # each match slides the window, so the index grows past the chain
        assert trapdoor_check(index, chain.current) == chain.index
        chain = chain.advanced()
    assert len(index.entries) > 40
    assert all(raw_digest(alias) for alias in index.entries)


def test_prf_input_sensitivity():
    key = derive_pairwise_key(master_key(0, 0), 1)
    x = b"payload"
    assert prf(key, x) == prf(key, x)
    assert prf(key, x) != prf(key, x + b"\x00")


def test_chain_advance_matches_direct_prf():
    key = derive_pairwise_key(master_key(3, 9), 4)
    chain = PseudonymChain.start(key, 9)
    assert chain.index == 1
    assert chain.current == prf(key, encode_node_id(9))
    c2 = chain.advanced()
    assert c2.index == 2
    assert c2.current == prf(key, chain.current)
    c3 = c2.advanced()
    direct = prf(key, prf(key, chain.current))
    assert c3.current == direct


def test_chain_100_advances_distinct():
    key = derive_pairwise_key(master_key(5, 1), 2)
    chain = PseudonymChain.start(key, 1)
    seen = set()
    for _ in range(100):
        seen.add(chain.current)
        chain = chain.advanced()
    assert len(seen) == 100


def test_trapdoor_completeness_over_window():
    key = derive_pairwise_key(master_key(8, 2), 6)
    chain = PseudonymChain.start(key, 2)
    index = TrapdoorIndex(chain, window=16)
    c = chain
    for i in range(1, 17):
        match = trapdoor_check(index, c.current)
        assert match == i
        c = c.advanced()


def test_trapdoor_refill_extends_window():
    key = derive_pairwise_key(master_key(8, 3), 6)
    chain = PseudonymChain.start(key, 3)
    index = TrapdoorIndex(chain, window=8)
    c = chain
    # walk far past the initial window; refill keeps lookups matching
    for i in range(1, 41):
        assert trapdoor_check(index, c.current) == c.index == i
        c = c.advanced()


def test_trapdoor_soundness_random_candidates():
    key = derive_pairwise_key(master_key(8, 4), 6)
    index = TrapdoorIndex(PseudonymChain.start(key, 4), window=16)
    rng = random.Random(42)
    for _ in range(10 ** 5):
        candidate = rng.getrandbits(256).to_bytes(32, "big")
        assert trapdoor_check(index, candidate) is None


def test_trapdoor_wrong_key_no_match():
    k1 = derive_pairwise_key(master_key(1, 1), 5)
    k2 = derive_pairwise_key(master_key(1, 2), 5)
    index = TrapdoorIndex(PseudonymChain.start(k2, 5), window=8)
    chain = PseudonymChain.start(k1, 5)
    chain = chain.advanced().advanced()  # PD_3 under the other key
    assert trapdoor_check(index, chain.current) is None


_CHAIN_KEY = derive_pairwise_key(master_key(12, 1), 7)
_FOREIGN_KEY = derive_pairwise_key(master_key(12, 2), 7)


def _aliases(key, seed_identity, n):
    chain = PseudonymChain.start(key, seed_identity)
    out = [None]                # chain indices start at 1
    for _ in range(n):
        out.append(chain.current)
        chain = chain.advanced()
    return out


_OWN = _aliases(_CHAIN_KEY, 3, 900)
_FOREIGN = _aliases(_FOREIGN_KEY, 3, 40)


@settings(max_examples=200, deadline=None)
@given(window=st.integers(1, 20), start=st.integers(1, 5),
       ops=st.lists(st.tuples(
           st.sampled_from(["in", "ahead", "behind", "foreign"]),
           st.integers(0, 30)), max_size=40))
def test_one_chain_index_matches_per_direction_reference(window, start, ops):
    """Every match and every refill of the one-chain index equals the
    per-direction index's for aliases inside the window, past it, behind
    it (already consumed) and of another key's chain."""
    chain = PseudonymChain.start(_CHAIN_KEY, 3)
    for _ in range(start - 1):
        chain = chain.advanced()
    index = TrapdoorIndex(chain, window)
    ref = _DirectionIndex(window)
    ref.track(chain, "destination")
    for kind, offset in ops:
        low = ref._low["destination"]
        if kind == "in":
            candidate = _OWN[low + offset % window]
        elif kind == "ahead":
            candidate = _OWN[ref._chains["destination"].index + offset]
        elif kind == "behind":
            candidate = _OWN[max(1, low - 1 - offset)]
        else:
            candidate = _FOREIGN[1 + offset]
        expected = ref.check(candidate)
        got = trapdoor_check(index, candidate)
        assert got == (None if expected is None else expected[1])
        assert index.entries == {d: i for d, (_, i) in ref.entries.items()}


def test_unlinkability_bit_balance_and_prefixes():
    key = derive_pairwise_key(master_key(11, 0), 3)
    chain = PseudonymChain.start(key, 0)
    n = 10 ** 4
    counts = [0] * 256
    prefixes = set()
    for _ in range(n):
        d = chain.current
        prefixes.add(d[:8])
        v = int.from_bytes(d, "big")
        for bit in range(256):
            counts[bit] += (v >> bit) & 1
        chain = chain.advanced()
    assert len(prefixes) == n
    for c in counts:
        assert 0.45 <= c / n <= 0.55


def test_hmac_roundtrip_and_tamper():
    key = derive_pairwise_key(master_key(4, 4), 8)
    msg = b"route reply header"
    tag = hmac_tag(key, msg)
    assert verify_hmac(key, msg, tag)
    flipped = bytes([msg[0] ^ 1]) + msg[1:]
    assert not verify_hmac(key, flipped, tag)

    rng = random.Random(7)
    for _ in range(1000):
        m = bytearray(os.urandom(24))
        t = bytearray(hmac_tag(key, bytes(m)))
        if rng.random() < 0.5:
            i = rng.randrange(len(m) * 8)
            m[i // 8] ^= 1 << (i % 8)
        else:
            i = rng.randrange(len(t) * 8)
            t[i // 8] ^= 1 << (i % 8)
        assert not verify_hmac(key, bytes(m), bytes(t))
