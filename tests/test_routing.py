import random

from hypothesis import example, given, settings, strategies as st

from tap3sim.crypto import encode_node_id
from tap3sim.routing import (
    Packet,
    PacketKind,
    PathInfo,
    ProtocolKind,
    header_bytes,
    header_size,
    packet_size,
    pick_disjoint_paths,
    relayed_header,
    select_paths,
)

from oracles import loop_header_bytes


def rand_alias(rng):
    return bytes(rng.getrandbits(8) for _ in range(32))


def rand_packet(rng, pseudonymous=True):
    pkt = Packet(rng.choice([PacketKind.RREQ, PacketKind.RREP]),
                 flow_id=rng.randrange(8), packet_id=rng.randrange(100000),
                 round=rng.randrange(40), sseq=rng.randrange(1000),
                 oseq=rng.randrange(1000), dseq=rng.randrange(100000),
                 req_oseq=rng.randrange(1000), path_id=rng.randrange(4),
                 route_record=[rng.randrange(64)
                               for _ in range(rng.randrange(5))])
    if pseudonymous:
        pkt.forward_alias = rand_alias(rng)
        pkt.reverse_alias = rand_alias(rng)
        if rng.random() < 0.5:
            pkt.tag = bytes(rng.getrandbits(8) for _ in range(32))
    else:
        pkt.src_addr = rng.randrange(64)
        pkt.dst_addr = rng.randrange(64)
    return pkt


def test_headers_never_leak_node_id_encodings():
    """No 8-byte node-id encoding can appear in a pseudonymous header,
    whatever the field values: every serialized field is fenced by tag
    bytes >= 0x80 within any 8-byte span.  (The alias digests are random
    here.  The encoding leaves out the integrity tag: a forged all-zero tag
    does hold node 0's encoding.)"""
    rng = random.Random(7)
    encodings = [encode_node_id(i) for i in range(64)]
    for _ in range(500):
        hdr = header_bytes(rand_packet(rng, pseudonymous=True))
        for enc in encodings:
            assert enc not in hdr


def test_plaintext_headers_do_contain_addresses():
    rng = random.Random(8)
    pkt = rand_packet(rng, pseudonymous=False)
    hdr = header_bytes(pkt)
    assert encode_node_id(pkt.src_addr) in hdr
    assert encode_node_id(pkt.dst_addr) in hdr


def test_header_changes_with_sequence_fields():
    pkt = rand_packet(random.Random(9))
    base = header_bytes(pkt)
    bumped = pkt.copy()
    bumped.dseq += 1
    assert header_bytes(bumped) != base


WIDE = st.integers(-2 ** 40, 2 ** 40)     # negative and over 32 bits
ALIAS = st.none() | st.binary(min_size=32, max_size=32)
ADDRESS = st.none() | st.integers(0, 2 ** 64 - 1)
# short records of any ids, or records longer than 255 entries whose ids
# stride over 16 bits (drawn as start, stride, length: long lists are slow
# to draw element by element)
ROUTE = (st.lists(st.integers(-2 ** 20, 2 ** 20), max_size=6)
         | st.tuples(st.integers(0, 2 ** 20), st.integers(1, 4099),
                     st.integers(250, 300)).map(
             lambda t: [t[0] + i * t[1] for i in range(t[2])]))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(PacketKind)),
       seqs=st.tuples(*[WIDE] * 8),
       route=ROUTE, fwd=ALIAS, rev=ALIAS, src=ADDRESS, dst=ADDRESS,
       tag=st.binary(max_size=40))
@example(kind=PacketKind.RREQ, seqs=(-1, 2 ** 32, 2 ** 32 + 5, -2 ** 31,
                                     0, 7, 2 ** 40, -7),
         route=list(range(65530, 65530 + 257)),
         fwd=bytes(32), rev=None, src=None, dst=2 ** 63,
         tag=b"t" * 32)
@example(kind=PacketKind.RREP, seqs=(0,) * 8, route=[],
         fwd=bytes(32), rev=b"r" * 32, src=0,
         dst=2 ** 64 - 1, tag=b"t" * 32)
@example(kind=PacketKind.DATA, seqs=(0,) * 8, route=[],
         fwd=None, rev=None, src=None, dst=None, tag=b"")
def test_header_bytes_matches_field_by_field_encoding(
        kind, seqs, route, fwd, rev, src, dst, tag):
    sseq, oseq, dseq, req_oseq, packet_id, flow_id, rnd, path_id = seqs
    pkt = Packet(kind, flow_id, packet_id, round=rnd, forward_alias=fwd,
                 reverse_alias=rev, src_addr=src, dst_addr=dst, sseq=sseq,
                 oseq=oseq, dseq=dseq, req_oseq=req_oseq, path_id=path_id,
                 route_record=route, tag=tag)
    # the encoding is the header as sent without its trailing tag field
    assert header_bytes(pkt) == loop_header_bytes(pkt, include_tag=False)
    # sizing counts the header as sent, tag field included, without
    # encoding it
    assert header_size(pkt) == len(loop_header_bytes(pkt))


def test_packet_size_is_header_plus_payload():
    pkt = rand_packet(random.Random(10))
    pkt.payload_size = 256
    assert packet_size(pkt) == len(loop_header_bytes(pkt)) + 256


def test_copy_is_deep_for_route_record():
    pkt = rand_packet(random.Random(11))
    dup = pkt.copy()
    dup.route_record.append(99)
    assert 99 not in pkt.route_record


def test_copy_is_unsized_and_unencoded():
    pkt = rand_packet(random.Random(12))
    pkt.size, pkt.header = packet_size(pkt), header_bytes(pkt)
    dup = pkt.copy()
    assert dup.size is None and dup.header is None
    assert (pkt.size, pkt.header) == (packet_size(pkt), header_bytes(pkt))


@settings(max_examples=60, deadline=None)
@given(seqs=st.tuples(*[WIDE] * 8), route=ROUTE, fwd=ALIAS, rev=ALIAS,
       src=ADDRESS, dst=ADDRESS, relays=ROUTE.filter(bool))
@example(seqs=(0,) * 8, route=[], fwd=bytes(32), rev=b"r" * 32, src=None,
         dst=None, relays=[2 ** 16 + i for i in range(300)])
def test_relayed_header_matches_a_fresh_encoding(seqs, route, fwd, rev, src,
                                                  dst, relays):
    """Each relay of a route-request chain derives its copy's header from
    its parent's, as `Simulation.on_rreq` does; at every hop the result
    is the copy's encoding written out field by field.  A chain of more
    than 255 hops whose ids pass 2**16 wraps both the route-length byte
    and the entries."""
    sseq, oseq, dseq, req_oseq, packet_id, flow_id, rnd, path_id = seqs
    pkt = Packet(PacketKind.RREQ, flow_id, packet_id, round=rnd,
                 forward_alias=fwd, reverse_alias=rev, src_addr=src,
                 dst_addr=dst, sseq=sseq, oseq=oseq, dseq=dseq,
                 req_oseq=req_oseq, path_id=path_id, route_record=route)
    pkt.header = header_bytes(pkt)
    for nid in relays:
        fwd_pkt = pkt.copy()
        fwd_pkt.route_record.append(nid)
        fwd_pkt.header = relayed_header(pkt.header, fwd_pkt.route_record)
        assert fwd_pkt.header == loop_header_bytes(fwd_pkt, include_tag=False)
        pkt = fwd_pkt


def path(pid, relays, dseq, t=0.0, rnd=1, broken=False):
    return PathInfo(pid, rnd, list(relays), dseq, t, broken=broken)


def test_select_paths_trust_orders_by_hops_and_drops_flagged():
    paths = [path(0, [5, 6], dseq=40), path(1, [7], dseq=10),
             path(2, [], dseq=5), path(3, [8], dseq=50, broken=True)]
    got = select_paths(paths, flagged={6}, protocol=ProtocolKind.TAP3)
    assert [p.path_id for p in got] == [2, 1]


def test_select_paths_baseline_prefers_freshness():
    paths = [path(0, [], dseq=5), path(1, [7, 8], dseq=50),
             path(2, [9], dseq=50)]
    got = select_paths(paths, flagged={7}, protocol=ProtocolKind.MPRF)
    # no trust layer: flagged set ignored, highest dseq first, hops break ties
    assert [p.path_id for p in got] == [2, 1, 0]


def test_pick_disjoint_paths_properties():
    rng = random.Random(12)
    for _ in range(200):
        cands = []
        for i in range(rng.randrange(1, 10)):
            relays = rng.sample(range(20), rng.randrange(0, 4))
            cands.append((len(relays) + 1, rng.random(), relays))
        chosen = pick_disjoint_paths(cands, max_paths=3, hop_slack=1)
        assert len(chosen) <= 3
        if cands:
            best = min(c[0] for c in cands)
            assert chosen, "shortest candidate always admissible"
            assert len(chosen[0]) + 1 == best
            used = []
            for relays in chosen:
                assert len(relays) + 1 <= best + 1
                assert not set(relays) & set(used)
                used.extend(relays)


def test_pick_disjoint_paths_respects_slack():
    cands = [(2, 0.0, [1]), (3, 0.1, [2]), (5, 0.2, [3])]
    assert pick_disjoint_paths(cands, 3, hop_slack=1) == [[1], [2]]
    assert pick_disjoint_paths(cands, 3, hop_slack=3) == [[1], [2], [3]]


def test_protocol_kind_truth_table():
    """The two protocol facts the simulator reads, for every protocol."""
    table = {kind: (kind.uses_pseudonyms, kind.trust_layer)
             for kind in ProtocolKind}
    assert table == {ProtocolKind.TAP3: (True, True),
                     ProtocolKind.S_MPRF: (True, False),
                     ProtocolKind.MPRF: (False, False)}
    assert ProtocolKind("smprf") is ProtocolKind.S_MPRF
