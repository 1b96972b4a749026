import random

import pytest
from hypothesis import given, strategies as st

from tap3sim.seqmon import (
    Label,
    SeqVector,
    TrainingWindow,
    WindowNotTrainedError,
    advance_window,
    classify,
    distance,
    mean_vector,
)


def window_of(samples):
    w = TrainingWindow(samples=list(samples))
    w.train()
    return w


def test_mean_symmetric_pair():
    assert mean_vector([SeqVector(1, 1, 1), SeqVector(3, 3, 3)]) == (2, 2, 2)


def test_mean_single_sample():
    assert mean_vector([SeqVector(5, 2, 0)]) == (5, 2, 0)


def test_mean_empty_rejected():
    with pytest.raises(WindowNotTrainedError):
        mean_vector([])


def test_mean_matches_bruteforce_oracle():
    rng = random.Random(1)
    samples = [SeqVector(rng.uniform(-50, 50), rng.uniform(-50, 50),
                         rng.uniform(-50, 50)) for _ in range(1000)]
    sums = [0.0, 0.0, 0.0]
    for s in samples:
        sums[0] += s.sseq
        sums[1] += s.oseq
        sums[2] += s.dseq_delta
    oracle = tuple(v / 1000 for v in sums)
    got = mean_vector(samples)
    for g, o in zip(got, oracle):
        assert abs(g - o) <= 1e-9 * max(1.0, abs(o))


def test_distance_identity_and_arith():
    assert distance(SeqVector(2, 2, 2), (2, 2, 2)) == 0
    assert distance(SeqVector(4, 4, 4), (2, 2, 2)) == 12


def test_distance_matches_component_oracle():
    rng = random.Random(2)
    for _ in range(200):
        s = SeqVector(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9))
        m = (rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-9, 9))
        oracle = sum((a - b) ** 2 for a, b in zip((s.sseq, s.oseq, s.dseq_delta), m))
        assert distance(s, m) == oracle


def test_train_threshold_pair_and_degenerate():
    w = window_of([SeqVector(1, 1, 1), SeqVector(3, 3, 3)])
    assert w.mean == (2, 2, 2)
    assert w.threshold == 3
    assert window_of([SeqVector(4, 5, 6)]).threshold == 0


def test_train_threshold_matches_enumeration_oracle():
    rng = random.Random(3)
    for _ in range(20):
        samples = [SeqVector(rng.uniform(0, 100), rng.uniform(0, 100),
                             rng.uniform(0, 100)) for _ in range(500)]
        w = window_of(samples)
        mean = mean_vector(samples)
        oracle = max(distance(s, mean) for s in samples)
        assert abs(w.train() - oracle) <= 1e-9 * max(1.0, oracle)


def test_classify_training_samples_normal():
    rng = random.Random(4)
    samples = [SeqVector(rng.uniform(0, 20), rng.uniform(0, 20),
                         rng.uniform(0, 20)) for _ in range(50)]
    w = window_of(samples)
    for s in samples:
        assert classify(s, w).label is Label.NORMAL


def test_classify_outlier_and_boundary():
    w = window_of([SeqVector(1, 1, 1), SeqVector(3, 3, 3)])
    v = classify(SeqVector(10, 10, 10), w)
    assert v.distance == 192
    assert v.label is Label.MALICIOUS
    # a point at exactly d = Th stays Normal
    assert classify(SeqVector(1, 1, 1), w).label is Label.NORMAL


def test_classify_untrained_rejected():
    with pytest.raises(WindowNotTrainedError):
        classify(SeqVector(0, 0, 0), TrainingWindow())


def test_advance_window_merges_normal_batch():
    w = window_of([SeqVector(i, i, i) for i in range(1, 9)])
    batch = [SeqVector(4, 4, 4), SeqVector(5, 5, 5)]
    w2 = advance_window(w, batch)
    assert len(w2.samples) == len(w.samples)
    assert w2.samples[-2:] == batch
    assert w2.samples[:-2] == w.samples[2:]    # the oldest are evicted
    assert w2 is not w and w2.trained


def test_advance_window_idempotent_on_identical_batch():
    samples = [SeqVector(2, 4, 6), SeqVector(6, 4, 2)]
    w = window_of(samples)
    w2 = advance_window(w, list(samples))
    assert w2.mean == w.mean
    assert w2.threshold == w.threshold


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.builds(SeqVector, finite, finite, finite)


@given(st.lists(vectors, min_size=1, max_size=30))
def test_property_threshold_attained_and_samples_normal(samples):
    w = window_of(samples)
    dists = [distance(s, w.mean) for s in samples]
    assert any(abs(d - w.threshold) <= 1e-6 * max(1.0, w.threshold) for d in dists)
    for s in samples:
        assert classify(s, w).label is Label.NORMAL


@given(vectors, st.tuples(finite, finite, finite), finite)
def test_property_translation_consistency(sample, mean, c):
    shifted = SeqVector(sample.sseq + c, sample.oseq + c, sample.dseq_delta + c)
    shifted_mean = (mean[0] + c, mean[1] + c, mean[2] + c)
    d0 = distance(sample, mean)
    d1 = distance(shifted, shifted_mean)
    assert abs(d0 - d1) <= 1e-6 * max(1.0, abs(d0))


@given(st.lists(st.builds(SeqVector,
                          st.floats(-100, 100), st.floats(-100, 100),
                          st.floats(-100, 100)),
                min_size=2, max_size=12),
       st.floats(min_value=0.1, max_value=10))
def test_property_scale_invariance_of_labels(samples, k):
    w = window_of(samples)
    scaled = window_of([SeqVector(s.sseq * k, s.oseq * k, s.dseq_delta * k)
                        for s in samples])
    probe = SeqVector(samples[0].sseq + 7, samples[0].oseq - 3,
                      samples[0].dseq_delta + 1)
    sprobe = SeqVector(probe.sseq * k, probe.oseq * k, probe.dseq_delta * k)
    d, sd = distance(probe, w.mean), distance(sprobe, scaled.mean)
    assert abs(sd - k * k * d) <= 1e-6 * max(1.0, abs(k * k * d))
    assert abs(scaled.threshold - k * k * w.threshold) <= \
        1e-6 * max(1.0, k * k * w.threshold)


@given(st.lists(vectors, min_size=1, max_size=20),
       st.lists(vectors, min_size=0, max_size=40))
def test_property_advance_never_grows(samples, batch):
    w = window_of(samples)
    w2 = advance_window(w, batch)
    assert len(w2.samples) <= len(w.samples)
