"""Dynamic sequence-number anomaly detection.

Each node learns the normal behavior of the (SSeq, OSeq, DSeq-delta)
triple over a clean training window; a sample whose squared distance from
the window mean exceeds the trained maximum is judged malicious.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


class WindowNotTrainedError(Exception):
    """Raised when classification is attempted before a window has samples."""


class SeqVector(NamedTuple):
    sseq: float
    oseq: float
    dseq_delta: float


class Label(Enum):
    NORMAL = "Normal"
    MALICIOUS = "Malicious"


class Verdict(NamedTuple):
    label: Label
    distance: float


def mean_vector(samples: list[SeqVector]) -> tuple[float, float, float]:
    if not samples:
        raise WindowNotTrainedError("window not trained")
    n = len(samples)
    return (
        sum(s.sseq for s in samples) / n,
        sum(s.oseq for s in samples) / n,
        sum(s.dseq_delta for s in samples) / n,
    )


def distance(sample: SeqVector, mean: tuple[float, float, float]) -> float:
    """Squared Euclidean distance between a sample and the window mean."""
    dx = sample.sseq - mean[0]
    dy = sample.oseq - mean[1]
    dz = sample.dseq_delta - mean[2]
    return dx * dx + dy * dy + dz * dz


class TrainingWindow:
    def __init__(self, samples: Optional[list[SeqVector]] = None):
        self.samples = [] if samples is None else samples
        self.mean = (0.0, 0.0, 0.0)
        self.threshold = 0.0
        self.trained = False

    def train(self) -> float:
        """Recompute mean and threshold; returns the threshold."""
        self.mean = mean_vector(self.samples)
        self.threshold = max(distance(s, self.mean) for s in self.samples)
        self.trained = True
        return self.threshold


def classify(sample: SeqVector, window: TrainingWindow) -> Verdict:
    if not window.trained:
        raise WindowNotTrainedError("window not trained")
    d = distance(sample, window.mean)
    label = Label.MALICIOUS if d > window.threshold else Label.NORMAL
    return Verdict(label, d)


def advance_window(window: TrainingWindow,
                   new_samples: list[SeqVector]) -> TrainingWindow:
    """Merge a batch into the training set, evicting the oldest entries to
    keep the sample count fixed.  Callers pass samples that `window`
    judged normal, so the batch is not classified again."""
    merged = (window.samples + new_samples)[-len(window.samples):]
    out = TrainingWindow(samples=merged)
    out.train()
    return out

