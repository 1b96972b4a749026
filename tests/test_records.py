"""The record types: `ScenarioConfig` is the one dataclass, immutable
records are NamedTuples, and every other record is a plain class whose
`__init__` takes only the fields its callers pass and whose mutable
fields are fresh per instance."""

import dataclasses
import importlib
import inspect
from collections import deque

import pytest

from tap3sim import logaudit
from tap3sim.crypto import PseudonymChain, master_key
from tap3sim.logaudit import (AuditReport, EventKind, LogEntry, NodeLog,
                               PublishedLog)
from tap3sim.metrics import MetricsReport, SweepResult
from tap3sim.routing import Packet, PacketKind, ProtocolKind
from tap3sim.seqmon import Label, SeqVector, TrainingWindow, Verdict
from tap3sim.sim import (
    AttackerSpec,
    AttackKind,
    Flow,
    Monitor,
    RevEntry,
    Round,
    RoundCause,
    RunResult,
    desk_profile,
)

MODULES = ("crypto", "logaudit", "routing", "seqmon", "sim", "metrics", "cli")


def test_scenario_config_is_the_only_dataclass():
    """A dataclass costs about a millisecond to build at import; only
    `ScenarioConfig`, whose interface is `dataclasses.replace`, pays it."""
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"tap3sim.{name}")
        found |= {f"{obj.__module__}.{obj.__qualname__}"
                  for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {"tap3sim.sim.ScenarioConfig"}


IMMUTABLE = [
    AttackerSpec(3, AttackKind.BLACK_HOLE, 1.0),
    PseudonymChain.start(master_key(1, 2), 2),
    SeqVector(1.0, 2.0, 3.0),
    Verdict(Label.NORMAL, 0.5),
    RevEntry(4, 7),
    MetricsReport(ProtocolKind.TAP3, 0.0, 1, 0.9, 0.01, 2.0, 1, 0, 0),
    AuditReport(logaudit.FELLOW, 2, False, [3]),
]


@pytest.mark.parametrize("record", IMMUTABLE,
                         ids=[type(r).__name__ for r in IMMUTABLE])
def test_immutable_records_refuse_assignment(record):
    for name in type(record).__annotations__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_snapshots_hold_their_own_verified_sets():
    """A set shared between snapshots would let a proof walk stop at a
    node that was verified against another snapshot's root."""
    log = NodeLog()
    for pid in range(5):
        log.append(LogEntry(b"\x01" * 32, pid, EventKind.RECEIVED, 0, 0, 0,
                            b"\x00" * 32, float(pid)))
    first, second = log.publish(), log.publish()
    silent = logaudit._SILENT
    assert len({id(first.verified), id(second.verified),
                id(silent.verified)}) == 3
    assert first.proves(2, EventKind.RECEIVED)
    assert first.verified
    assert second.verified == set() and silent.verified == set()


def test_audit_reports_compare_by_value():
    report = AuditReport(logaudit.FELLOW, passive_attackers=[2, 4])
    assert report == AuditReport(logaudit.FELLOW, None, False, [2, 4])
    assert report != AuditReport(logaudit.FELLOW, passive_attackers=[2])
    assert report != AuditReport(logaudit.NOT_FELLOW, passive_attackers=[2, 4])
    assert AuditReport(logaudit.NOT_FELLOW, target_lied=True) != \
        AuditReport(logaudit.NOT_FELLOW)


def _containers(obj, seen=None) -> list:
    """Every list, set, dict and deque reachable through the plain
    records' attributes, records nested in a record included."""
    seen = [] if seen is None else seen
    for value in vars(obj).values():
        if isinstance(value, (list, set, dict, deque)):
            seen.append(value)
        elif isinstance(value, TrainingWindow):
            _containers(value, seen)
    return seen


def _flow() -> Flow:
    chain = PseudonymChain.start(master_key(1, 0), 0)
    return Flow(0, 0, 1, b"k" * 32, 1.0, chain, chain, None)


DEFAULT_BUILT = {
    "Flow": _flow,
    "Monitor": Monitor,
    "Round": lambda: Round(RoundCause.START, {}, None),
    "RunResult": lambda: RunResult(desk_profile()),
    "SweepResult": SweepResult,
    "TrainingWindow": TrainingWindow,
    "Packet": lambda: Packet(PacketKind.DATA, 0, 1),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_BUILT))
def test_default_built_records_share_no_container(name):
    a, b = DEFAULT_BUILT[name](), DEFAULT_BUILT[name]()
    mine, theirs = _containers(a), _containers(b)
    assert mine, f"{name} has no container field"
    assert not {id(c) for c in mine} & {id(c) for c in theirs}


# Every other field starts at one value, set in the body.
PARAMETERS = {
    Flow: "flow_id src dst key start_time ps_chain pd_chain trapdoor",
    Monitor: "",
    Round: "cause listeners control",
    RunResult: "config",
    SweepResult: "",
    TrainingWindow: "samples",
    PublishedLog: "root log size",
}


@pytest.mark.parametrize("cls", list(PARAMETERS),
                         ids=[c.__name__ for c in PARAMETERS])
def test_plain_records_take_only_what_callers_pass(cls):
    assert list(inspect.signature(cls).parameters) == PARAMETERS[cls].split()
