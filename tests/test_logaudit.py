import contextlib
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tap3sim.cli import forwarded_pids
from tap3sim.logaudit import (
    EMPTY_ROOT,
    RELAY_EVENTS,
    AuditReport,
    DuplicateEntryError,
    EventKind,
    FELLOW,
    LEAF_TAG,
    LogEntry,
    MerkleTree,
    NOT_FELLOW,
    NodeLog,
    PublishedLog,
    TimestampRegressionError,
    apply_rules,
    audit_route,
    check_destination,
    detect_active_attacker,
    detect_passive_attackers,
    entry_from_list,
    entry_to_list,
    leaf_hash,
)

from oracles import (
    NaiveSnapshot,
    field_by_field_encoding,
    interior_nodes,
    reference_tree,
)


def alias(n: int) -> bytes:
    return bytes([n % 256]) * 32


def entry(node=1, pid=10, event=EventKind.RECEIVED, sseq=1, oseq=2, dseq=3,
          prev=0, ts=0.0):
    return LogEntry(alias(node), pid, event, sseq, oseq, dseq, alias(prev), ts)


def build_root(entries):
    return MerkleTree([leaf_hash(e) for e in entries]).root


# ---- Merkle construction ----------------------------------------------------

def test_empty_root_defined():
    assert build_root([]) == EMPTY_ROOT


def test_single_leaf_root():
    e = entry()
    assert build_root([e]) == leaf_hash(e)


SIGNED_64 = st.integers(-2 ** 63, 2 ** 63 - 1)
DIGESTS = st.binary(min_size=32, max_size=32)


@settings(max_examples=300, deadline=None)
@given(st.builds(LogEntry, DIGESTS, st.integers(0, 2 ** 64 - 1),
                 st.sampled_from(list(EventKind)), SIGNED_64, SIGNED_64,
                 SIGNED_64, DIGESTS, st.floats()))
@example(LogEntry(alias(255), 2 ** 64 - 1, EventKind.DROPPED, -2 ** 63,
                  2 ** 63 - 1, -1, alias(0), float("-inf")))
def test_leaf_hash_matches_field_by_field_encoding(e):
    assert leaf_hash(e) == hashlib.sha256(
        LEAF_TAG + field_by_field_encoding(e)).digest()


def test_root_order_sensitive():
    e1, e2 = entry(pid=1), entry(pid=2)
    assert build_root([e1, e2]) != build_root([e2, e1])


def test_root_changes_on_any_field():
    e1 = entry(pid=1, ts=1.0)
    e2 = entry(pid=1, ts=1.0, sseq=99)
    assert build_root([entry(), e1]) != build_root([entry(), e2])


def test_tamper_trials_change_root():
    rng = random.Random(11)
    entries = [entry(node=rng.randrange(200), pid=i,
                     event=rng.choice(list(EventKind)),
                     sseq=rng.randrange(1000), oseq=rng.randrange(1000),
                     dseq=rng.randrange(1000), ts=float(i))
               for i in range(1000)]
    root = build_root(entries)
    leaves = [leaf_hash(e) for e in entries]
    for _ in range(1000):
        i = rng.randrange(len(entries))
        raw = bytearray(field_by_field_encoding(entries[i]))
        bit = rng.randrange(len(raw) * 8)
        raw[bit // 8] ^= 1 << (bit % 8)
        # a flipped serialization must hash to a different leaf, hence root
        forged_leaves = list(leaves)
        forged_leaves[i] = hashlib.sha256(b"\x00" + bytes(raw)).digest()
        assert MerkleTree(forged_leaves).root != root


# 0, 1, the powers of two up to 64 and their neighbours
EDGE_SIZES = sorted({0, 1} | {m for k in range(1, 7)
                             for m in (2 ** k - 1, 2 ** k, 2 ** k + 1)})


@settings(max_examples=60, deadline=None)
@given(snapshots=st.lists(st.integers(0, 70), max_size=6),
       extra=st.integers(0, 9),
       events=st.lists(st.sampled_from(list(EventKind)), min_size=80,
                       max_size=80))
@example(snapshots=EDGE_SIZES, extra=3, events=[EventKind.RECEIVED] * 80)
def test_incremental_tree_equals_from_scratch(snapshots, extra, events):
    snapshots = sorted(set(snapshots))
    total = (snapshots[-1] if snapshots else 0) + extra
    entries = [entry(node=i % 7, pid=i, event=events[i], ts=float(i))
               for i in range(total)]
    leaves = [leaf_hash(e) for e in entries]
    log = NodeLog()
    published = {}
    for i, e in enumerate(entries):
        if i in snapshots:
            published[i] = log.publish()
        log.append(e)
    if total in snapshots:
        published[total] = log.publish()
    # every snapshot is checked after all the appends that follow it
    for n, pub in published.items():
        root, proofs = reference_tree(leaves[:n])
        scratch = MerkleTree(leaves[:n])
        assert pub.size == n
        assert pub.root == root == scratch.root
        assert log.tree.root_at(n) == root
        for i in range(n):
            assert log.tree.proof(i, n) == proofs[i] == scratch.proof(i)
            assert pub.proves(i, events[i])
        for i in range(n, total):
            assert not pub.proves(i, events[i])


EXTREME_ROW = (alias(255), 2 ** 64 - 1, EventKind.DROPPED, -2 ** 63,
               2 ** 63 - 1, -1, alias(0))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(DIGESTS, st.integers(0, 2 ** 64 - 1),
                               st.sampled_from(list(EventKind)), SIGNED_64,
                               SIGNED_64, SIGNED_64, DIGESTS, st.floats()),
                     max_size=40, unique_by=lambda row: row[1:3]),
       publish_at=st.sets(st.integers(0, 40)))
@example(rows=[EXTREME_ROW + (-math.inf,),
               (alias(1), 0, EventKind.RECEIVED, 0, 0, 0, alias(1), math.nan),
               EXTREME_ROW[:2] + (EventKind.REPLIED,) + EXTREME_ROW[3:]
               + (math.inf,)],
         publish_at={0, 1, 2, 3})
def test_publish_hashes_each_new_leaf_as_leaf_hash(rows, publish_at):
    """`NodeLog.tree` hashes the entries appended since the last publish
    in one batch; each leaf must equal `leaf_hash` of its entry, and the
    root the from-scratch root, for any field values an entry can hold.
    The timestamps are the drawn ones, the non-NaN ones put in order so
    that every append is accepted."""
    stamps = iter(sorted(row[7] for row in rows if not math.isnan(row[7])))
    log = NodeLog()
    for i in range(len(rows) + 1):
        if i in publish_at:
            published = log.publish()
            leaves = [leaf_hash(e) for e in log.entries]
            assert log.tree.blocks[0] == leaves
            assert published.root == reference_tree(leaves)[0]
        if i < len(rows):
            ts = rows[i][7]
            log.append(LogEntry(*rows[i][:7],
                                ts if math.isnan(ts) else next(stamps)))


@settings(max_examples=60, deadline=None)
@given(total=st.integers(0, 70),
       ops=st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 40)),
                              st.integers(0, 10 ** 6)),
                    max_size=40))
@example(total=70, ops=[70, 1, 64, 5, None, 65, 3, 70, 66, 64, 0, 65])
@example(total=70, ops=[(3,), 2, (13,), None, 16, (1,), 9, (35,), 52,
                        (40,), 70, 33])
def test_sizes_in_any_order_equal_from_scratch(total, ops):
    # None extends the tree by one more leaf, (m,) by the next m
    # leaves in one call, any other op asks for a size of the tree so far:
    # the right edge of one size is kept, so both the order of the sizes
    # and the appends in between must leave the answers unchanged
    leaves = [leaf_hash(entry(pid=i, ts=float(i))) for i in range(total)]
    tree = MerkleTree()
    for op in ops:
        if op is None:
            if len(tree) < total:
                tree.extend([leaves[len(tree)]])
            continue
        if isinstance(op, tuple):
            tree.extend(leaves[len(tree):len(tree) + op[0]])
            continue
        n = op % (len(tree) + 1)
        root, proofs = reference_tree(leaves[:n])
        assert tree.root_at(n) == root == MerkleTree(leaves[:n]).root
        for i in range(n):
            assert tree.proof(i, n) == proofs[i]
        assert tree.root == reference_tree(leaves[:len(tree)])[0]


def test_inclusion_proofs_verify():
    entries = [entry(pid=i, ts=float(i)) for i in range(13)]
    tree = MerkleTree([leaf_hash(e) for e in entries])
    for i, e in enumerate(entries):
        assert MerkleTree.verify(tree.root, leaf_hash(e), tree.proof(i))
    assert not MerkleTree.verify(tree.root, leaf_hash(entries[0]), tree.proof(1))


# ---- NodeLog ----------------------------------------------------------------

def test_append_updates_root_and_rejects_duplicates():
    log = NodeLog()
    log.append(entry(pid=1, ts=0.0))
    r1 = log.publish().root
    assert r1 == leaf_hash(entry(pid=1, ts=0.0))
    log.append(entry(pid=2, ts=1.0))
    r2 = log.publish().root
    assert r2 != r1
    with pytest.raises(DuplicateEntryError):
        log.append(entry(pid=1, ts=2.0))


def test_append_rejects_timestamp_regression():
    log = NodeLog()
    log.append(entry(pid=1, ts=5.0))
    with pytest.raises(TimestampRegressionError):
        log.append(entry(pid=2, ts=4.0))


# ---- rules ------------------------------------------------------------------

def test_apply_rules_empty():
    assert apply_rules([], forwarded_pids([entry()])) == []


def test_apply_rules_binds_per_packet():
    observed = [entry(pid=5, event=EventKind.FORWARDED, ts=0.0),
                entry(pid=9, event=EventKind.FORWARDED, ts=1.0),
                entry(pid=7, event=EventKind.RECEIVED, ts=2.0)]
    out = apply_rules((EventKind.RECEIVED,), forwarded_pids(observed))
    assert [p.packet_id for p in out] == [5, 9]
    assert all(p.event == EventKind.RECEIVED for p in out)


def test_apply_rules_unmatched_lhs_absent():
    # nothing is expected of packets the auditor never Forwarded
    assert apply_rules((EventKind.RECEIVED,),
                       forwarded_pids([entry(event=EventKind.RECEIVED)])) == []


def test_apply_rules_monotone():
    rng = random.Random(3)
    observed = [entry(pid=i, event=rng.choice(list(EventKind)), ts=float(i))
                for i in range(20)]
    small = apply_rules(RELAY_EVENTS, forwarded_pids(observed[:10]))
    big = apply_rules(RELAY_EVENTS, forwarded_pids(observed))
    assert set(small) <= set(big)


# ---- PublishedLog.proves ----------------------------------------------------

def honest_published(entries):
    log = NodeLog()
    for e in entries:
        log.append(e)
    return log.publish()


def test_hash_verify_completeness_and_soundness():
    entries = [entry(pid=i, event=EventKind.RECEIVED, ts=float(i)) for i in range(6)]
    pub = honest_published(entries)
    assert pub.proves(3, EventKind.RECEIVED)
    assert not any(pub.proves(99, event) for event in EventKind)


def test_hash_verify_detects_post_commit_tamper():
    log = NodeLog()
    for i in range(5):
        log.append(entry(pid=i, ts=float(i)))
    pub = log.publish()
    key = (2, EventKind.RECEIVED)
    index = log.claim_index(*key, pub.size)
    stale_proof = log.tree.proof(index, pub.size)
    assert pub.proves(*key)
    # node edits an entry afterwards, in place: the proof still comes from
    # the committed hashes, the leaf from the forged entry
    forged = entry(pid=2, sseq=777, ts=2.0)
    log.entries[index] = forged
    assert not pub.proves(*key)
    assert not MerkleTree.verify(pub.root, leaf_hash(forged), stale_proof)


def test_hash_verify_malformed_proof_is_failure():
    pub = honest_published([entry(pid=0, ts=0.0), entry(pid=1, ts=1.0)])
    key = (0, EventKind.RECEIVED)
    assert pub.proves(*key)
    verified = set(pub.verified)
    # the node answers with a malformed sibling, planted where the walk
    # reads it; `proves` must reject it, never raise, and keep no node of
    # the failed walk
    for malformed in (b"short", None, "text", b"x" * 32):
        pub.log.tree.blocks[0][1] = malformed
        assert not pub.proves(*key), malformed
        assert pub.verified == verified


@settings(max_examples=80, deadline=None)
@given(claims=st.lists(st.tuples(st.integers(0, 11),
                                 st.sampled_from(list(EventKind))),
                       min_size=1, max_size=40),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       ops=st.lists(st.tuples(st.sampled_from(("query", "entry", "block")),
                              st.integers(0, 10 ** 6),
                              st.integers(0, 10 ** 6), st.integers(0, 11),
                              st.sampled_from(list(EventKind))),
                    min_size=8, max_size=60))
# claim 0 shown with committed entry 4 and, as its sibling, leaf 5: the
# walk meets the parent of leaves 4 and 5 that proving claim 4 made known
@example(claims=[(pid, EventKind.RECEIVED) for pid in range(8)], sizes=[8],
         ops=[("query", 0, 0, 4, EventKind.RECEIVED),
              ("entry", 0, 8, 0, EventKind.RECEIVED),
              ("block", 1, 5, 0, EventKind.RECEIVED),
              ("query", 0, 0, 0, EventKind.RECEIVED)])
# claim 1 shown with an edited entry after proving claim 0 made leaf 1
# known: the known leaf must still be compared with the entry's hash
@example(claims=[(pid, EventKind.RECEIVED) for pid in range(4)], sizes=[4],
         ops=[("query", 0, 0, 0, EventKind.RECEIVED),
              ("entry", 1, 1, 0, EventKind.RECEIVED),
              ("query", 0, 0, 1, EventKind.RECEIVED)])
def test_memoized_proves_matches_plain_verify(claims, sizes, ops):
    # each op queries a snapshot, toggles one entry between its committed
    # value and an in-place forgery, or toggles one tree block, a leaf or
    # an interior node, between its committed value and the value of
    # another committed node: an adversarial prover serving committed
    # hashes at the wrong places
    log = NodeLog()
    for i, (pid, event) in enumerate(claims):
        with contextlib.suppress(DuplicateEntryError):
            log.append(entry(node=i % 3, pid=pid, event=event, ts=float(i)))
    committed = list(log.entries)
    leaves = [leaf_hash(e) for e in committed]
    tree = log.tree
    honest = MerkleTree(leaves)
    places = [(k, j) for k, level in enumerate(honest.blocks)
              for j in range(len(level))]
    published = [PublishedLog(log.tree.root_at(n), log, n)
                 for n in sorted({size % (len(committed) + 1)
                                   for size in sizes})]
    for op, a, b, pid, event in ops:
        if op == "entry":
            # the forgery is an edited entry or another committed one
            i = a % len(committed)
            forged = (committed[i]._replace(sseq=committed[i].sseq + 1)
                      if b % 2 else committed[b // 2 % len(committed)])
            log.entries[i] = (forged if log.entries[i] == committed[i]
                              else committed[i])
            continue
        if op == "block":
            k, j = places[a % len(places)]
            if tree.blocks[k][j] == honest.blocks[k][j]:
                k2, j2 = places[b % len(places)]
                tree.blocks[k][j] = honest.blocks[k2][j2]
            else:
                tree.blocks[k][j] = honest.blocks[k][j]
            # the right edge is folded afresh from the blocks as served
            tree._edge_size = -1
            continue
        pub = published[a % len(published)]
        if b % 2:
            # a claim the log holds, though perhaps not in this snapshot
            pid, event = claims[b // 2 % len(claims)]
        verdict = pub.proves(pid, event)
        # the plain walk over the proof as served, to the published root
        served = NaiveSnapshot(log, pub.size)
        served.root = pub.root
        if tree.blocks == honest.blocks:
            assert verdict == served.proves(pid, event)
        else:
            # a known node lets the memo skip a served sibling above it,
            # so it may prove a claim whose served proof fails; it never
            # proves one that the committed proof does not
            index = log.claim_index(pid, event, pub.size)
            sound = index is not None and MerkleTree.verify(
                pub.root, leaf_hash(log.entries[index]),
                honest.proof(index, pub.size))
            assert served.proves(pid, event) <= verdict <= sound
        # only nodes of the committed tree are ever known, never a leaf
        assert pub.verified <= interior_nodes(leaves[:pub.size])
        # and each known leaf is the committed leaf at its index
        assert all(i < pub.size and leaf == leaves[i]
                   for i, leaf in pub.leaves.items())


def test_proof_is_bound_to_its_claim():
    """A node copies a committed entry and its committed sibling over the
    first pair of its log.  The walk for claim 0 then hashes the copied
    leaf with the copied sibling into the known parent of leaves 4 and 5,
    where it stops: only the check that the entry shown carries the
    claim's packet id and event keeps the snapshot from proving claim 0
    with entry 4."""
    log = NodeLog()
    for i in range(8):
        log.append(entry(pid=i, ts=float(i)))
    pub = log.publish()
    assert pub.proves(4, EventKind.RECEIVED)
    log.entries[0] = log.entries[4]
    log.tree.blocks[0][1] = log.tree.blocks[0][5]
    assert not NaiveSnapshot(log, pub.size).proves(0, EventKind.RECEIVED)
    assert not pub.proves(0, EventKind.RECEIVED)


def test_claim_names_one_entry_in_snapshot():
    # a node logs under one alias; each (packet id, event) claim names one
    # entry, and a snapshot proves it only if the entry is inside it
    log = NodeLog()
    log.append(entry(node=1, pid=5, ts=0.0))
    first = log.publish()
    log.append(entry(node=1, pid=6, ts=1.0))
    second = log.publish()
    assert log.claim_index(6, EventKind.RECEIVED, first.size) is None
    assert log.claim_index(6, EventKind.RECEIVED, second.size) == 1
    assert not first.proves(6, EventKind.RECEIVED)
    assert first.proves(5, EventKind.RECEIVED)
    assert second.proves(6, EventKind.RECEIVED)
    # a repeated claim is refused whatever alias it carries
    for node in (1, 2):
        with pytest.raises(DuplicateEntryError):
            log.append(entry(node=node, pid=5, ts=2.0))
    assert len(log.entries) == 2
    # an entry edited in place after publishing no longer proves
    log.entries[1] = entry(node=1, pid=6, sseq=9, ts=1.0)
    assert first.proves(5, EventKind.RECEIVED)
    assert not second.proves(6, EventKind.RECEIVED)


def test_proof_outside_tree_is_an_error():
    tree = MerkleTree([leaf_hash(entry(pid=i)) for i in range(3)])
    for index, size in [(3, None), (-1, None), (2, 2), (0, 4)]:
        with pytest.raises(IndexError):
            tree.proof(index, size)
    with pytest.raises(IndexError):
        tree.root_at(4)


# ---- route audit scenarios --------------------------------------------------

def relay_log(position, pids, drop=(), forge=False, ts0=0.0):
    """Honest relays log Received+Forwarded per packet; droppers omit the
    dropped packets entirely; forgers commit corrupted packet ids."""
    log = NodeLog()
    t = ts0
    for pid in pids:
        if pid in drop:
            continue
        actual = pid + 100000 if forge else pid
        log.append(LogEntry(alias(position), actual, EventKind.RECEIVED,
                            1, 2, 3, alias(position - 1), t))
        log.append(LogEntry(alias(position), actual, EventKind.FORWARDED,
                            1, 2, 3, alias(position - 1), t))
        t += 0.001
    return log.publish()


def dest_log(pids, omit_reply=False):
    log = NodeLog()
    t = 0.0
    for pid in pids:
        log.append(LogEntry(alias(99), pid, EventKind.RECEIVED, 1, 2, 3,
                            alias(98), t))
        if not omit_reply:
            log.append(LogEntry(alias(99), pid, EventKind.REPLIED, 1, 2, 3,
                                alias(98), t))
        t += 0.001
    return log.publish()


def source_records(pids):
    return [LogEntry(alias(0), pid, EventKind.FORWARDED, 1, 2, 3, alias(0),
                     float(i)) for i, pid in enumerate(pids)]


def source_tau(pids):
    """What the audit takes from the source's records: the packet ids."""
    return forwarded_pids(source_records(pids))


def test_check_destination_honest_and_omission():
    pids = [1, 2, 3]
    tau_c = source_tau(pids)
    assert check_destination(tau_c, dest_log(pids)) == FELLOW
    assert check_destination(tau_c,
                             dest_log(pids, omit_reply=True)) == NOT_FELLOW
    assert check_destination(tau_c, None) == NOT_FELLOW


def test_check_destination_vacuous_without_rules():
    # no Forwarded packet in the source's records: nothing to prove
    received = forwarded_pids([e._replace(event=EventKind.RECEIVED)
                               for e in source_records([1])])
    assert check_destination(received, dest_log([])) == FELLOW
    assert check_destination([], None) == FELLOW


def make_active_scenario(n, forger):
    """Forger at position `forger` fabricated traffic: nodes before it hold
    consistent evidence, it and everything upstream of it do not."""
    pids = [1, 2]
    tau_c = source_tau(pids)
    logs = []
    for pos in range(1, n + 1):
        if pos < forger:
            logs.append(relay_log(pos, pids))
        elif pos == forger:
            logs.append(relay_log(pos, pids, forge=True))
        else:
            logs.append(relay_log(pos, []))
    return tau_c, logs


def test_detect_active_exhaustive_placement():
    for n in range(3, 9):
        for forger in range(1, n + 1):
            tau_c, logs = make_active_scenario(n, forger)
            got = detect_active_attacker(logs, tau_c)
            assert got == forger, (n, forger, got)


def test_detect_active_all_verify_returns_target():
    pids = [1, 2]
    tau_c = source_tau(pids)
    logs = [relay_log(p, pids) for p in range(1, 6)]
    assert detect_active_attacker(logs, tau_c) == len(logs) + 1


def test_detect_active_empty_route_returns_one():
    # with no relays the destination, at position 1, is the forger
    assert detect_active_attacker([], source_tau([1])) == 1


def passive_scenario(n, droppers):
    """Each dropper silently discards the odd packet ids it sees; packets
    already dropped upstream never reach later hops."""
    pids = list(range(1, 9))
    tau_c = source_tau(pids)
    logs = []
    surviving = list(pids)
    for pos in range(1, n + 1):
        if pos in droppers:
            dropped = set(surviving[::2])
            logs.append(relay_log(pos, surviving, drop=dropped))
            surviving = [p for p in surviving if p not in dropped]
        else:
            logs.append(relay_log(pos, surviving))
    return tau_c, logs


def test_detect_passive_honest_route_empty():
    tau_c, logs = passive_scenario(5, set())
    assert detect_passive_attackers(logs, tau_c) == []


def test_detect_passive_pair_positions():
    tau_c, logs = passive_scenario(5, {2, 4})
    assert detect_passive_attackers(logs, tau_c) == [2, 4]


def test_detect_passive_exhaustive_single_and_pairs():
    for n in range(1, 7):
        for singles in range(1, n + 1):
            tau_c, logs = passive_scenario(n, {singles})
            got = detect_passive_attackers(logs, tau_c)
            assert got == [singles], (n, singles, got)
        for pair in itertools.combinations(range(1, n + 1), 2):
            tau_c, logs = passive_scenario(n, set(pair))
            got = detect_passive_attackers(logs, tau_c)
            assert got == sorted(pair), (n, pair, got)


def test_detect_passive_link_break_is_not_an_accusation():
    # relay 2 received packet 2 but lost its link: it proves Dropped in
    # place of Forwarded, and relay 3 is not held to that packet
    pids = [1, 2, 3]
    logs = [relay_log(1, pids)]
    log = NodeLog()
    for i, pid in enumerate(pids):
        log.append(LogEntry(alias(2), pid, EventKind.RECEIVED, 1, 2, 3,
                            alias(1), float(i)))
        moved = EventKind.DROPPED if pid == 2 else EventKind.FORWARDED
        log.append(LogEntry(alias(2), pid, moved, 1, 2, 3, alias(1),
                            float(i)))
    logs.append(log.publish())
    logs.append(relay_log(3, [1, 3]))
    assert detect_passive_attackers(logs, source_tau(pids)) == []
    # without the Dropped record the same relay is accused
    logs[1] = relay_log(2, pids, drop={2})
    assert detect_passive_attackers(logs, source_tau(pids)) == [2]


def test_detect_passive_empty_route():
    assert detect_passive_attackers([], source_tau([1])) == []


def run_audit(n, active=None, passive=frozenset(), omit_reply=False):
    pids = [1, 2, 3]
    if active:
        tau_c_ctl, logs = make_active_scenario(n, active)
        tau_c_data = tau_c_ctl
        dest = dest_log([], omit_reply=True)
    else:
        tau_c_data, logs = passive_scenario(n, passive)
        tau_c_ctl = source_tau(pids)
        dest = dest_log(pids, omit_reply=omit_reply)
    return audit_route(logs, dest, tau_c_ctl, tau_c_data)


def test_audit_route_honest():
    report = run_audit(4)
    assert report.verdict == FELLOW
    assert report.active_attacker is None
    assert report.passive_attackers == []


def test_audit_route_active_forger():
    report = run_audit(5, active=2)
    assert report.verdict == NOT_FELLOW
    assert report.active_attacker == 2
    assert report.passive_attackers == ()


def test_audit_route_passive_dropper():
    report = run_audit(5, passive={5})
    assert report.verdict == FELLOW
    assert report.active_attacker is None
    assert report.passive_attackers == [5]


def test_audit_report_csv_row():
    r = AuditReport(FELLOW, passive_attackers=[2, 4])
    assert r.csv_row("f1") == "f1,FELLOW,,2;4"
    r2 = AuditReport(NOT_FELLOW, active_attacker=3)
    assert r2.csv_row(7) == "7,NOT_FELLOW,3,"


# ---- entry value semantics and plain-data form ------------------------------

def test_log_entry_is_frozen():
    e = entry()
    with pytest.raises(AttributeError):
        e.packet_id = 11
    assert e.packet_id == 10
    changed = e._replace(packet_id=11, event=EventKind.DROPPED)
    assert (changed.packet_id, changed.event) == (11, EventKind.DROPPED)
    assert changed._replace(packet_id=10, event=EventKind.RECEIVED) == e


def test_log_entries_with_equal_fields_are_equal():
    a = entry(pid=7, event=EventKind.FORWARDED, ts=2.5)
    b = LogEntry(alias(1), 7, EventKind.FORWARDED, 1, 2, 3, alias(0), 2.5)
    assert a == b and hash(a) == hash(b)
    assert a != entry(pid=7, event=EventKind.REPLIED, ts=2.5)
    assert len({a, b}) == 1


def test_entry_to_list_emits_plain_event_codes():
    for code, event in enumerate(EventKind, start=1):
        data = entry_to_list(entry(event=event))
        assert type(data[2]) is int and data[2] == code
    assert [int(e) for e in EventKind] == [1, 2, 3, 4]


def test_entry_from_list_round_trips_and_shares_aliases():
    aliases = {}
    a = entry(node=4, prev=9, event=EventKind.DROPPED, ts=3.25)
    b = entry(node=9, prev=4, pid=11, ts=4.0)
    got = [entry_from_list(entry_to_list(e), aliases) for e in (a, b)]
    assert got == [a, b]
    assert got[0].node_alias is got[1].prev_hop_alias
    assert got[0].prev_hop_alias is got[1].node_alias
    assert len(aliases) == 2
