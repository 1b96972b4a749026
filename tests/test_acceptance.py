"""End-to-end acceptance gate.

Each test exercises one headline claim of the system at desk scale and
prints a single PASS/FAIL line (visible with `pytest -s` or on failure).
The full protocol sweep runs once per session and feeds the metric-ordering
criteria.
"""

import itertools
import math
import random
import time

import pytest

from tap3sim import logaudit, seqmon
from tap3sim.crypto import hmac_tag
from tap3sim.logaudit import FELLOW, LogEntry, MerkleTree, NodeLog, leaf_hash
from tap3sim.metrics import SweepSpec, sweep
from tap3sim.routing import ProtocolKind
from tap3sim.sim import desk_profile
from tap3sim.cli import main as cli_main

from test_crypto import RFC4231
from test_logaudit import (
    alias,
    make_active_scenario,
    passive_scenario,
    run_audit,
)

PAUSES = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
SEEDS = [1, 2, 3, 4, 5]


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_sweep():
    spec = SweepSpec(desk_profile(), PAUSES, list(ProtocolKind), SEEDS)
    t0 = time.monotonic()
    result = sweep(spec)
    elapsed = time.monotonic() - t0
    table = {}
    for row in result.avg_rows:
        proto, pause, _, pdr, delay, ovh, *_ = row.split(",")
        table[(proto, float(pause))] = (float(pdr), float(delay), float(ovh))
    return result, table, elapsed


def grand_avg(table, proto, col):
    return sum(table[(proto, p)][col] for p in PAUSES) / len(PAUSES)


def test_criterion_1_pdr_ordering(desk_sweep):
    _, table, elapsed = desk_sweep
    ordered = sum(1 for p in PAUSES
                  if table[("tap3", p)][0] > table[("smprf", p)][0]
                  > table[("mprf", p)][0])
    margin = grand_avg(table, "tap3", 0) - grand_avg(table, "mprf", 0)
    ok = ordered >= 6 and margin >= 2.0 and elapsed < 180.0
    report(1, ok, f"PDR tap3>smprf>mprf at {ordered}/7 pause points, "
                  f"tap3-mprf margin {margin:.1f} pp, sweep {elapsed:.0f}s")


def test_criterion_2_overhead_ordering(desk_sweep):
    _, table, _ = desk_sweep
    lowest = sum(1 for p in PAUSES
                 if table[("tap3", p)][2] < table[("smprf", p)][2]
                 and table[("tap3", p)][2] < table[("mprf", p)][2])
    ratio = grand_avg(table, "mprf", 2) / grand_avg(table, "tap3", 2)
    ok = lowest >= 5 and ratio >= 1.2
    report(2, ok, f"tap3 lowest overhead at {lowest}/7 pause points, "
                  f"mprf/tap3 grand ratio {ratio:.2f}")


def test_criterion_3_delay_ordering(desk_sweep):
    _, table, _ = desk_sweep
    tap3 = grand_avg(table, "tap3", 1)
    smprf = grand_avg(table, "smprf", 1)
    mprf = grand_avg(table, "mprf", 1)
    ok = tap3 < smprf and tap3 < mprf
    report(3, ok, f"grand-average delay tap3 {tap3 * 1e3:.3f} ms vs "
                  f"smprf {smprf * 1e3:.3f} ms, mprf {mprf * 1e3:.3f} ms")


def test_criterion_4_sequence_anomaly_detection():
    rng = random.Random(42)

    def clean():
        return seqmon.SeqVector(rng.randint(0, 2), rng.randint(1, 4),
                                rng.randint(0, 3))

    window = seqmon.TrainingWindow(samples=[clean() for _ in range(200)])
    window.train()
    delta = math.ceil(3.0 * math.sqrt(window.threshold))
    forged = [seqmon.SeqVector(s.sseq, s.oseq, s.dseq_delta + delta)
              for s in (clean() for _ in range(500))]
    caught = sum(seqmon.classify(s, window).label is seqmon.Label.MALICIOUS
                 for s in forged) / len(forged)
    held_out = [clean() for _ in range(1000)]
    fp = sum(seqmon.classify(s, window).label is seqmon.Label.MALICIOUS
             for s in held_out) / len(held_out)
    ok = caught >= 0.95 and fp <= 0.05
    report(4, ok, f"inflation delta {delta}: {caught:.1%} forged replies "
                  f"flagged, {fp:.1%} false positives on clean hold-out")


def test_criterion_5_audit_localization():
    t0 = time.monotonic()
    active_ok = all(
        logaudit.detect_active_attacker(
            make_active_scenario(n, forger)[1],
            make_active_scenario(n, forger)[0]) == forger
        for n in range(3, 9) for forger in range(1, n + 1))
    passive_ok = True
    for n in range(1, 7):
        cases = ([{s} for s in range(1, n + 1)]
                 + [set(p) for p in itertools.combinations(range(1, n + 1), 2)])
        for droppers in cases:
            tau_c, logs = passive_scenario(n, droppers)
            got = logaudit.detect_passive_attackers(logs, tau_c)
            passive_ok = passive_ok and got == sorted(droppers)
    rng = random.Random(5)
    honest_ok = True
    for _ in range(100):
        rep = run_audit(rng.randint(3, 8))
        honest_ok = (honest_ok and rep.verdict == FELLOW
                     and rep.active_attacker is None
                     and rep.passive_attackers == [])
    elapsed = time.monotonic() - t0
    ok = active_ok and passive_ok and honest_ok and elapsed < 30.0
    report(5, ok, f"active forger localized on all routes of 3-8 hops: "
                  f"{active_ok}; single/pair droppers on routes <=6: "
                  f"{passive_ok}; 0 accusations in 100 honest scenarios: "
                  f"{honest_ok}; {elapsed:.1f}s")


def test_criterion_6_header_privacy(desk_sweep):
    result, _, _ = desk_sweep
    ok = result.privacy_checks > 0 and result.privacy_violations == 0
    report(6, ok, f"{result.privacy_checks} pseudonymous control headers "
                  f"scanned, {result.privacy_violations} endpoint-address "
                  f"leaks")


def test_criterion_7_crypto_vectors_and_log_tamper():
    vectors_ok = all(hmac_tag(key, msg).hex() == tag_hex
                     for key, msg, tag_hex in RFC4231)
    rng = random.Random(77)
    rejected = 0
    trials = 1000
    for _ in range(trials):
        entries = [LogEntry(alias(1), pid, logaudit.EventKind.RECEIVED,
                            1, 2, 3, alias(0), float(pid))
                   for pid in range(rng.randint(1, 12))]
        entries.append(LogEntry(alias(1), 999, logaudit.EventKind.FORWARDED,
                                1, 2, 3, alias(0), 99.0))
        tree = MerkleTree([leaf_hash(e) for e in entries])
        victim = entries[rng.randrange(len(entries))]
        tampered = victim._replace(dseq=victim.dseq + rng.randint(1, 1000))
        proof = tree.proof([leaf_hash(e) for e in entries].index(
            leaf_hash(victim)))
        if not MerkleTree.verify(tree.root, leaf_hash(tampered), proof):
            rejected += 1
    # The same tamper against the verifier live audits and `tap3sim audit`
    # run.  Earlier checks of the snapshot fill its verified nodes; then a
    # committed entry is edited in place, and its next two checks must
    # fail: the first must not leave the second a verified node to stop at.
    live_rejected = 0
    for _ in range(trials):
        log = NodeLog()
        for pid in range(rng.randint(2, 40)):
            event = rng.choice((logaudit.EventKind.RECEIVED,
                                logaudit.EventKind.FORWARDED))
            log.append(LogEntry(alias(1), pid, event, 1, 2, 3, alias(0),
                                float(pid)))
        published = log.publish()
        earlier = rng.sample(log.entries, rng.randint(1, len(log.entries)))
        honest = all(published.proves(e.packet_id, e.event) for e in earlier)
        index = rng.randrange(len(log.entries))
        victim = log.entries[index]
        log.entries[index] = victim._replace(
            dseq=victim.dseq + rng.randint(1, 1000))
        if (honest and published.verified
                and not published.proves(victim.packet_id, victim.event)
                and not published.proves(victim.packet_id, victim.event)):
            live_rejected += 1
    ok = vectors_ok and rejected == trials and live_rejected == trials
    report(7, ok, f"HMAC-SHA-256 matches all {len(RFC4231)} published "
                  f"vectors: {vectors_ok}; {rejected}/{trials} tampered "
                  f"log entries rejected; {live_rejected}/{trials} edited "
                  f"after earlier checks rejected by PublishedLog.proves")


def test_criterion_8_bitwise_reproducibility(tmp_path):
    cfg = tmp_path / "desk.conf"
    from tap3sim.sim import DESK_CONFIG_TEXT
    cfg.write_text(DESK_CONFIG_TEXT)
    outs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}.trace"
        rc = cli_main(["run", "--config", str(cfg), "--seed", "2",
                       "--out", str(csv), "--trace", str(trace)])
        assert rc == 0
        outs.append((csv.read_bytes(), trace.read_bytes()))
    ok = outs[0] == outs[1]
    report(8, ok, f"two runs of the same (config, seed): CSV bytes equal "
                  f"{outs[0][0] == outs[1][0]}, trace bytes equal "
                  f"{outs[0][1] == outs[1][1]}")


def test_criterion_9_classifier_numerics():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(500):
        samples = [seqmon.SeqVector(rng.uniform(0, 50), rng.uniform(0, 50),
                                    rng.uniform(0, 5000))
                   for _ in range(rng.randint(2, 60))]
        window = seqmon.TrainingWindow(samples=list(samples))
        window.train()
        # independent brute-force recomputation with compensated summation
        n = len(samples)
        mean = tuple(math.fsum(getattr(s, f) for s in samples) / n
                     for f in ("sseq", "oseq", "dseq_delta"))
        dists = [math.fsum(((s.sseq - mean[0]) ** 2,
                            (s.oseq - mean[1]) ** 2,
                            (s.dseq_delta - mean[2]) ** 2))
                 for s in samples]
        threshold = max(dists)
        probe = seqmon.SeqVector(rng.uniform(0, 50), rng.uniform(0, 50),
                                 rng.uniform(0, 5000))
        pairs = (list(zip(window.mean, mean))
                 + [(window.threshold, threshold),
                    (seqmon.distance(probe, window.mean),
                     math.fsum(((probe.sseq - mean[0]) ** 2,
                                (probe.oseq - mean[1]) ** 2,
                                (probe.dseq_delta - mean[2]) ** 2)))])
        for got, want in pairs:
            err = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, err)
    ok = worst <= 1e-9
    report(9, ok, f"mean/distance/threshold vs brute force on 500 random "
                  f"windows: worst relative error {worst:.2e}")
