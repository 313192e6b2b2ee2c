"""Unit tests for canonical admission-request hashing."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ModelError
from repro.io import system_from_normalized, system_to_dict
from repro.model.system import System
from repro.model.task import CriticalSection, Subtask, Task
from repro.service.hashing import (
    canonical_payload,
    content_key,
    request_key,
    system_key,
)
from repro.service.requests import (
    AdmissionRequest,
    request_content,
    request_from_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system


def _pipeline(name: str = "pipeline") -> System:
    return System(
        (
            Task(
                period=10.0,
                subtasks=(
                    Subtask(2.0, "P1", priority=0),
                    Subtask(3.0, "P2", priority=0),
                ),
                name="pipe",
            ),
        ),
        name=name,
    )


class TestRequestKey:
    def test_equal_content_equal_key(self):
        a = AdmissionRequest(system=_pipeline())
        b = AdmissionRequest(system=_pipeline())
        assert a.system is not b.system
        assert request_key(a) == request_key(b)

    def test_key_is_hex_sha256(self):
        key = request_key(AdmissionRequest(system=_pipeline()))
        assert len(key) == 64
        int(key, 16)

    def test_request_id_excluded(self):
        a = AdmissionRequest(system=_pipeline(), request_id="alpha")
        b = AdmissionRequest(system=_pipeline(), request_id="beta")
        assert request_key(a) == request_key(b)

    def test_execution_time_changes_key(self):
        base = _pipeline()
        tweaked = System(
            (
                base.tasks[0].with_subtasks(
                    (
                        Subtask(2.0, "P1", priority=0),
                        Subtask(3.0000001, "P2", priority=0),
                    )
                ),
            ),
            name=base.name,
        )
        assert system_key(base) != system_key(tweaked)

    def test_options_change_key(self):
        system = _pipeline()
        assert system_key(system) != system_key(system, jitter_sensitive=True)
        assert system_key(system) != system_key(system, protocols=("DS",))
        assert system_key(system) != system_key(
            system, sa_ds_max_iterations=10
        )

    def test_protocol_order_is_canonicalized(self):
        system = _pipeline()
        assert system_key(system, protocols=("RG", "DS")) == system_key(
            system, protocols=("DS", "RG")
        )

    def test_name_is_content(self):
        assert system_key(_pipeline("a")) != system_key(_pipeline("b"))

    def test_clock_fields_change_key(self):
        base = AdmissionRequest(system=_pipeline())
        variants = (
            AdmissionRequest(system=_pipeline(), synchronized_clocks=False),
            AdmissionRequest(system=_pipeline(), clock_rate_bound=1e-4),
            AdmissionRequest(system=_pipeline(), clock_jump_bound=1.0),
        )
        keys = {request_key(base)} | {request_key(v) for v in variants}
        assert len(keys) == 4  # all distinct

    def test_payload_version_tag_is_v2(self):
        # v2 added the clock fields; stale persisted v1 caches must miss.
        payload = canonical_payload(AdmissionRequest(system=_pipeline()))
        assert payload["format"] == "repro-admission-key-v2"
        assert "synchronized_clocks" in payload
        assert "clock_rate_bound" in payload
        assert "clock_jump_bound" in payload

    def test_payload_has_no_request_id(self):
        payload = canonical_payload(
            AdmissionRequest(system=_pipeline(), request_id="x")
        )
        assert "request_id" not in payload

    def test_stable_across_processes(self):
        """sha256 over canonical JSON must not depend on hash salting."""
        config = WorkloadConfig(
            subtasks_per_task=3, utilization=0.6, tasks=4, processors=3
        )
        here = system_key(generate_system(config, seed=7))
        script = (
            "from repro.service.hashing import system_key\n"
            "from repro.workload.config import WorkloadConfig\n"
            "from repro.workload.generator import generate_system\n"
            "config = WorkloadConfig(subtasks_per_task=3, utilization=0.6,"
            " tasks=4, processors=3)\n"
            "print(system_key(generate_system(config, seed=7)))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        there = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert there == here


# ---------------------------------------------------------------------------
# Golden keys: literal digests recorded before the document key path
# existed.  A persisted cache stays valid only while these hold.
# ---------------------------------------------------------------------------

_PIPE_DOC = {
    "format": "repro-system-v1",
    "name": "pipeline",
    "tasks": [
        {
            "name": "pipe",
            "period": 10.0,
            "phase": 0.0,
            "deadline": None,
            "subtasks": [
                {"name": "", "execution_time": 2.0, "processor": "P1",
                 "priority": 0},
                {"name": "", "execution_time": 3.0, "processor": "P2",
                 "priority": 1},
            ],
        },
        # int literals, missing optional fields
        {"name": "", "period": 25, "phase": 1.5, "deadline": 20,
         "subtasks": [{"execution_time": 4, "processor": "P2",
                       "priority": 0}]},
    ],
}

_LOCKED_DOC = {
    "format": "repro-system-v1",
    "name": "locked",
    "tasks": [
        {"name": "a", "period": 12.0, "subtasks": [
            {"execution_time": 4.0, "processor": "P1", "priority": 0,
             "critical_sections": [  # unsorted on purpose
                 {"resource": "R2", "start": 2.5, "duration": 1.0},
                 {"resource": "R1", "start": 0.5, "duration": 1.0},
             ]},
            {"execution_time": 2.0, "processor": "P2", "priority": 0},
        ]},
        {"name": "b", "period": 30.0, "subtasks": [
            {"execution_time": 3.0, "processor": "P2", "priority": 1,
             "critical_sections": [
                 {"resource": "R1", "start": 0, "duration": 2},
             ]},
        ]},
    ],
}


def _request_doc(system: dict, **options) -> dict:
    return {
        "format": "repro-admission-request-v1",
        "system": system,
        **options,
    }


GOLDEN_KEYS = [
    (
        "plain",
        _request_doc(_PIPE_DOC),
        "repro-admission-key-v2",
        "335bded6e8fd5ceb8869cef7035c5ba1fb175da7752ebda3c5e14289fed5a88a",
    ),
    (
        "sectioned",
        _request_doc(_LOCKED_DOC),
        "repro-admission-key-v3",
        "840ba0b485e39ce8880a6454f08bc5dccb81d51fd5914d5799911b4c03f40f94",
    ),
    (
        "clock-skewed",
        _request_doc(
            _PIPE_DOC,
            synchronized_clocks=False,
            clock_rate_bound=1e-4,
            clock_jump_bound=0.25,
        ),
        "repro-admission-key-v2",
        "627c18411c4dd63af1859834c2aa399db11518965eb2361aa8af7061ef3bf192",
    ),
    (
        "protocols",
        _request_doc(
            _PIPE_DOC,
            protocols=["rg", "DS", "ds"],
            jitter_sensitive=True,
            sa_ds_max_iterations=50,
        ),
        "repro-admission-key-v2",
        "06829f1d0498cf532db090ce51b41aed4be8df35f7079f8364922f54f70dd4e3",
    ),
    (
        "declared-shared",
        _request_doc(_PIPE_DOC, shared_resources=True, protocols=["MPM"]),
        "repro-admission-key-v3",
        "e0867da8988ad13d0d6ef670d33ab27dbac458ea45d5267784608980bc2a5742",
    ),
    (
        "bare-system",
        _PIPE_DOC,
        "repro-admission-key-v2",
        # every option at its default: the same content as "plain"
        "335bded6e8fd5ceb8869cef7035c5ba1fb175da7752ebda3c5e14289fed5a88a",
    ),
]


class TestGoldenKeys:
    @pytest.mark.parametrize(
        "document, key_format, key",
        [case[1:] for case in GOLDEN_KEYS],
        ids=[case[0] for case in GOLDEN_KEYS],
    )
    def test_key_is_pinned(self, document, key_format, key):
        request = request_from_dict(document)
        assert canonical_payload(request)["format"] == key_format
        assert request_key(request) == key
        assert content_key(*request_content(document)) == key


# ---------------------------------------------------------------------------
# The document key: request_key(request_from_dict(doc)) without the build
# ---------------------------------------------------------------------------

_PROTOCOL_SPELLINGS = ("DS", "ds", "PM", "pm", "MPM", "Mpm", "RG", "rg")


def _number(draw, value: float):
    """``value`` as an int literal when integral and the draw says so."""
    if value == int(value) and draw(st.booleans()):
        return int(value)
    return value


def _maybe(draw, entry: dict, key: str, value, default) -> None:
    """Set ``entry[key]``, or leave it out when it is the default."""
    if value != default or draw(st.booleans()):
        entry[key] = value


@st.composite
def _sections(draw, execution_time: float) -> list:
    """Disjoint sections inside ``[0, execution_time]``, shuffled."""
    slots = draw(st.integers(0, 3))
    width = execution_time / max(slots, 1)
    sections = []
    for slot in range(slots):
        if not draw(st.booleans()):
            continue
        start = slot * width + draw(st.sampled_from([0.0, width / 4]))
        duration = draw(st.sampled_from([width / 4, width / 2]))
        sections.append({
            "resource": draw(st.sampled_from(["R1", "R2", "bus"])),
            "start": _number(draw, start),
            "duration": _number(draw, duration),
        })
    return draw(st.permutations(sections))


@st.composite
def _system_docs(draw) -> dict:
    processors = ["P1", "P2", "P3"]
    tasks = []
    for index in range(draw(st.integers(1, 4))):
        subtasks = []
        for _ in range(draw(st.integers(1, 3))):
            execution_time = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 8.0]))
            stage = {
                "execution_time": _number(draw, execution_time),
                "processor": draw(st.sampled_from(processors)),
            }
            _maybe(draw, stage, "priority", draw(st.integers(0, 5)), 0)
            _maybe(draw, stage, "name", draw(st.sampled_from(["", "s"])), "")
            sections = draw(_sections(execution_time))
            if sections or draw(st.booleans()):
                stage["critical_sections"] = sections
            subtasks.append(stage)
        task = {
            "period": _number(
                draw, draw(st.sampled_from([10.0, 25.0, 40.0, 12.5]))
            ),
            "subtasks": subtasks,
        }
        _maybe(draw, task, "phase",
               _number(draw, draw(st.sampled_from([0.0, 1.0, 0.5]))), 0.0)
        _maybe(draw, task, "deadline",
               draw(st.sampled_from([None, 30, 22.5])), None)
        _maybe(draw, task, "name", draw(st.sampled_from(["", f"T{index}"])),
               "")
        tasks.append(task)
    document = {"format": "repro-system-v1", "tasks": tasks}
    _maybe(draw, document, "name",
           draw(st.sampled_from(["system", "sys-a"])), "system")
    return document


@st.composite
def _request_docs(draw) -> dict:
    system = draw(_system_docs())
    if draw(st.booleans()):
        return system  # a bare system document
    document = {"format": "repro-admission-request-v1", "system": system}
    protocols = draw(
        st.lists(st.sampled_from(_PROTOCOL_SPELLINGS), min_size=1,
                 max_size=6)
    )
    if draw(st.booleans()):
        document["protocols"] = protocols
    for flag, default in (
        ("jitter_sensitive", False),
        ("wcets_trusted", True),
        ("clock_sync_available", False),
        ("strictly_periodic_arrivals", False),
        ("synchronized_clocks", True),
        ("shared_resources", False),
    ):
        _maybe(draw, document, flag, draw(st.booleans()), default)
    _maybe(draw, document, "clock_rate_bound",
           draw(st.sampled_from([0, 0.0, 1e-4, 0.01])), 0.0)
    _maybe(draw, document, "clock_jump_bound",
           draw(st.sampled_from([0, 0.0, 0.5, 2])), 0.0)
    _maybe(draw, document, "sa_ds_max_iterations",
           draw(st.sampled_from([300, 50, 1])), 300)
    _maybe(draw, document, "request_id",
           draw(st.sampled_from(["", "r1"])), "")
    _maybe(draw, document, "tenant", draw(st.sampled_from(["", "t"])), "")
    return document


class TestDocumentKey:
    @given(document=_request_docs())
    @settings(max_examples=150)
    def test_document_key_equals_request_key(self, document):
        request = request_from_dict(document)
        system, fields = request_content(document)
        assert system == system_to_dict(request.system)
        for name, value in fields.items():
            assert getattr(request, name) == value, name
        assert content_key(system, fields) == request_key(request)

    def test_request_content_does_not_validate_the_system(self):
        # Normalizes (so the wire path can key it) but belongs to no
        # valid request: building the same content fails.
        document = copy.deepcopy(_PIPE_DOC)
        document["tasks"][0]["subtasks"][0]["execution_time"] = -1
        system, _ = request_content(document)
        with pytest.raises(ModelError):
            system_from_normalized(system)
        with pytest.raises(ModelError):
            request_from_dict(document)


# ---------------------------------------------------------------------------
# Rejected documents: the key path must raise or miss, and the error a
# wire client sees must not change.
# ---------------------------------------------------------------------------

#: The exceptions the TCP server answered with an error line before the
#: document key path existed; anything else dropped the connection.
_REPLIED = (ConfigurationError, ValueError, KeyError, TypeError)


def _historical_request_from_dict(data):
    """Frozen copy of the request parser as it was before documents were
    keyed: system coercion and validation interleaved task by task, then
    the options.  Only its errors matter here."""
    def system(data):
        if data.get("format") != "repro-system-v1":
            raise ConfigurationError(
                f"not a repro-system-v1 document "
                f"(format={data.get('format')!r})"
            )
        tasks = []
        for entry in data["tasks"]:
            tasks.append(Task(
                period=float(entry["period"]),
                phase=float(entry.get("phase", 0.0)),
                deadline=(
                    None if entry.get("deadline") is None
                    else float(entry["deadline"])
                ),
                name=entry.get("name", ""),
                subtasks=tuple(
                    Subtask(
                        execution_time=float(stage["execution_time"]),
                        processor=str(stage["processor"]),
                        priority=int(stage.get("priority", 0)),
                        name=stage.get("name", ""),
                        critical_sections=tuple(
                            CriticalSection(
                                resource=str(section["resource"]),
                                start=float(section["start"]),
                                duration=float(section["duration"]),
                            )
                            for section in stage.get("critical_sections", ())
                        ),
                    )
                    for stage in entry["subtasks"]
                ),
            ))
        return System(tuple(tasks), name=data.get("name", "system"))

    if data.get("format") == "repro-system-v1":
        return AdmissionRequest(system=system(dict(data)))
    if data.get("format") != "repro-admission-request-v1":
        raise ConfigurationError(
            f"not a repro-admission-request-v1 document "
            f"(format={data.get('format')!r})"
        )
    built = system(data["system"])
    protocols = tuple(data.get("protocols", ("DS", "PM", "MPM", "RG")))
    options = dict(
        jitter_sensitive=bool(data.get("jitter_sensitive", False)),
        wcets_trusted=bool(data.get("wcets_trusted", True)),
        clock_sync_available=bool(data.get("clock_sync_available", False)),
        strictly_periodic_arrivals=bool(
            data.get("strictly_periodic_arrivals", False)
        ),
        synchronized_clocks=bool(data.get("synchronized_clocks", True)),
        clock_rate_bound=float(data.get("clock_rate_bound", 0.0)),
        clock_jump_bound=float(data.get("clock_jump_bound", 0.0)),
        shared_resources=bool(data.get("shared_resources", False)),
        sa_ds_max_iterations=int(data.get("sa_ds_max_iterations", 300)),
        request_id=str(data.get("request_id", "")),
        tenant=str(data.get("tenant", "")),
    )
    for protocol in protocols:
        protocol.upper()  # a non-string raised AttributeError here
    return AdmissionRequest(system=built, protocols=protocols, **options)


_BAD_VALUES = (
    -1, 0, -0.5, "abc", "", None, [], {}, [1], True, float("inf"),
    float("nan"), 1e400, "1e400",
)


def _locations(document) -> list:
    """Every (container, key) of a document, depth first."""
    found = []

    def walk(node):
        items = (
            node.items() if isinstance(node, dict)
            else enumerate(node) if isinstance(node, list)
            else ()
        )
        for key, value in list(items):
            found.append((node, key))
            walk(value)

    walk(document)
    return found


@st.composite
def _corrupted_docs(draw) -> dict:
    document = copy.deepcopy(draw(_request_docs()))
    for _ in range(draw(st.integers(1, 2))):
        container, key = draw(st.sampled_from(_locations(document)))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(st.sampled_from(_BAD_VALUES))
    return document


class TestRejectedDocuments:
    @given(document=_corrupted_docs())
    @settings(max_examples=300)
    def test_key_path_raises_or_misses_and_errors_are_unchanged(
        self, document
    ):
        try:
            request = request_from_dict(document)
        except Exception as exc:  # noqa: BLE001
            error = exc
        else:
            error = None
        try:
            _historical_request_from_dict(document)
        except Exception as exc:  # noqa: BLE001
            historical = exc
        else:
            historical = None
        try:
            key = content_key(*request_content(document))
        except Exception:  # noqa: BLE001 - the key path raised
            key = None

        assert (error is None) == (historical is None)
        if isinstance(historical, _REPLIED):
            # The wire reply is "bad request line: <str(exc)>".
            assert str(error) == str(historical)
        if error is None:
            # Still valid after the damage (e.g. a renamed field): keyed
            # exactly, or not keyable at all (a non-finite name).
            if key is None:
                with pytest.raises(ValueError):
                    request_key(request)
            else:
                assert key == request_key(request)
        elif key is not None:
            # Keyed anyway: the content belongs to no valid request, so
            # no cache can hold its key -- the wire path misses, builds
            # and reports the build's error.
            system, fields = request_content(document)
            with pytest.raises(Exception):
                AdmissionRequest(
                    system=system_from_normalized(system), **fields
                )
        int(key, 16)

    def test_request_id_excluded(self):
        a = AdmissionRequest(system=_pipeline(), request_id="alpha")
        b = AdmissionRequest(system=_pipeline(), request_id="beta")
        assert request_key(a) == request_key(b)

    def test_execution_time_changes_key(self):
        base = _pipeline()
        tweaked = System(
            (
                base.tasks[0].with_subtasks(
                    (
                        Subtask(2.0, "P1", priority=0),
                        Subtask(3.0000001, "P2", priority=0),
                    )
                ),
            ),
            name=base.name,
        )
        assert system_key(base) != system_key(tweaked)

    def test_options_change_key(self):
        system = _pipeline()
        assert system_key(system) != system_key(system, jitter_sensitive=True)
        assert system_key(system) != system_key(system, protocols=("DS",))
        assert system_key(system) != system_key(
            system, sa_ds_max_iterations=10
        )

    def test_protocol_order_is_canonicalized(self):
        system = _pipeline()
        assert system_key(system, protocols=("RG", "DS")) == system_key(
            system, protocols=("DS", "RG")
        )

    def test_name_is_content(self):
        assert system_key(_pipeline("a")) != system_key(_pipeline("b"))

    def test_clock_fields_change_key(self):
        base = AdmissionRequest(system=_pipeline())
        variants = (
            AdmissionRequest(system=_pipeline(), synchronized_clocks=False),
            AdmissionRequest(system=_pipeline(), clock_rate_bound=1e-4),
            AdmissionRequest(system=_pipeline(), clock_jump_bound=1.0),
        )
        keys = {request_key(base)} | {request_key(v) for v in variants}
        assert len(keys) == 4  # all distinct

    def test_payload_version_tag_is_v2(self):
        # v2 added the clock fields; stale persisted v1 caches must miss.
        payload = canonical_payload(AdmissionRequest(system=_pipeline()))
        assert payload["format"] == "repro-admission-key-v2"
        assert "synchronized_clocks" in payload
        assert "clock_rate_bound" in payload
        assert "clock_jump_bound" in payload

    def test_payload_has_no_request_id(self):
        payload = canonical_payload(
            AdmissionRequest(system=_pipeline(), request_id="x")
        )
        assert "request_id" not in payload

    def test_stable_across_processes(self):
        """sha256 over canonical JSON must not depend on hash salting."""
        config = WorkloadConfig(
            subtasks_per_task=3, utilization=0.6, tasks=4, processors=3
        )
        here = system_key(generate_system(config, seed=7))
        script = (
            "from repro.service.hashing import system_key\n"
            "from repro.workload.config import WorkloadConfig\n"
            "from repro.workload.generator import generate_system\n"
            "config = WorkloadConfig(subtasks_per_task=3, utilization=0.6,"
            " tasks=4, processors=3)\n"
            "print(system_key(generate_system(config, seed=7)))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        there = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert there == here


# ---------------------------------------------------------------------------
# Golden keys: literal digests recorded before the document key path
# existed.  A persisted cache stays valid only while these hold.
# ---------------------------------------------------------------------------

_PIPE_DOC = {
    "format": "repro-system-v1",
    "name": "pipeline",
    "tasks": [
        {
            "name": "pipe",
            "period": 10.0,
            "phase": 0.0,
            "deadline": None,
            "subtasks": [
                {"name": "", "execution_time": 2.0, "processor": "P1",
                 "priority": 0},
                {"name": "", "execution_time": 3.0, "processor": "P2",
                 "priority": 1},
            ],
        },
        # int literals, missing optional fields
        {"name": "", "period": 25, "phase": 1.5, "deadline": 20,
         "subtasks": [{"execution_time": 4, "processor": "P2",
                       "priority": 0}]},
    ],
}

_LOCKED_DOC = {
    "format": "repro-system-v1",
    "name": "locked",
    "tasks": [
        {"name": "a", "period": 12.0, "subtasks": [
            {"execution_time": 4.0, "processor": "P1", "priority": 0,
             "critical_sections": [  # unsorted on purpose
                 {"resource": "R2", "start": 2.5, "duration": 1.0},
                 {"resource": "R1", "start": 0.5, "duration": 1.0},
             ]},
            {"execution_time": 2.0, "processor": "P2", "priority": 0},
        ]},
        {"name": "b", "period": 30.0, "subtasks": [
            {"execution_time": 3.0, "processor": "P2", "priority": 1,
             "critical_sections": [
                 {"resource": "R1", "start": 0, "duration": 2},
             ]},
        ]},
    ],
}


def _request_doc(system: dict, **options) -> dict:
    return {
        "format": "repro-admission-request-v1",
        "system": system,
        **options,
    }


GOLDEN_KEYS = [
    (
        "plain",
        _request_doc(_PIPE_DOC),
        "repro-admission-key-v2",
        "335bded6e8fd5ceb8869cef7035c5ba1fb175da7752ebda3c5e14289fed5a88a",
    ),
    (
        "sectioned",
        _request_doc(_LOCKED_DOC),
        "repro-admission-key-v3",
        "840ba0b485e39ce8880a6454f08bc5dccb81d51fd5914d5799911b4c03f40f94",
    ),
    (
        "clock-skewed",
        _request_doc(
            _PIPE_DOC,
            synchronized_clocks=False,
            clock_rate_bound=1e-4,
            clock_jump_bound=0.25,
        ),
        "repro-admission-key-v2",
        "627c18411c4dd63af1859834c2aa399db11518965eb2361aa8af7061ef3bf192",
    ),
    (
        "protocols",
        _request_doc(
            _PIPE_DOC,
            protocols=["rg", "DS", "ds"],
            jitter_sensitive=True,
            sa_ds_max_iterations=50,
        ),
        "repro-admission-key-v2",
        "06829f1d0498cf532db090ce51b41aed4be8df35f7079f8364922f54f70dd4e3",
    ),
    (
        "declared-shared",
        _request_doc(_PIPE_DOC, shared_resources=True, protocols=["MPM"]),
        "repro-admission-key-v3",
        "e0867da8988ad13d0d6ef670d33ab27dbac458ea45d5267784608980bc2a5742",
    ),
    (
        "bare-system",
        _PIPE_DOC,
        "repro-admission-key-v2",
        # every option at its default: the same content as "plain"
        "335bded6e8fd5ceb8869cef7035c5ba1fb175da7752ebda3c5e14289fed5a88a",
    ),
]


class TestGoldenKeys:
    @pytest.mark.parametrize(
        "document, key_format, key",
        [case[1:] for case in GOLDEN_KEYS],
        ids=[case[0] for case in GOLDEN_KEYS],
    )
    def test_key_is_pinned(self, document, key_format, key):
        request = request_from_dict(document)
        assert canonical_payload(request)["format"] == key_format
        assert request_key(request) == key
        assert content_key(*request_content(document)) == key


# ---------------------------------------------------------------------------
# The document key: request_key(request_from_dict(doc)) without the build
# ---------------------------------------------------------------------------

_PROTOCOL_SPELLINGS = ("DS", "ds", "PM", "pm", "MPM", "Mpm", "RG", "rg")


def _number(draw, value: float):
    """``value`` as an int literal when integral and the draw says so."""
    if value == int(value) and draw(st.booleans()):
        return int(value)
    return value


def _maybe(draw, entry: dict, key: str, value, default) -> None:
    """Set ``entry[key]``, or leave it out when it is the default."""
    if value != default or draw(st.booleans()):
        entry[key] = value


@st.composite
def _sections(draw, execution_time: float) -> list:
    """Disjoint sections inside ``[0, execution_time]``, shuffled."""
    slots = draw(st.integers(0, 3))
    width = execution_time / max(slots, 1)
    sections = []
    for slot in range(slots):
        if not draw(st.booleans()):
            continue
        start = slot * width + draw(st.sampled_from([0.0, width / 4]))
        duration = draw(st.sampled_from([width / 4, width / 2]))
        sections.append({
            "resource": draw(st.sampled_from(["R1", "R2", "bus"])),
            "start": _number(draw, start),
            "duration": _number(draw, duration),
        })
    return draw(st.permutations(sections))


@st.composite
def _system_docs(draw) -> dict:
    processors = ["P1", "P2", "P3"]
    tasks = []
    for index in range(draw(st.integers(1, 4))):
        subtasks = []
        for _ in range(draw(st.integers(1, 3))):
            execution_time = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 8.0]))
            stage = {
                "execution_time": _number(draw, execution_time),
                "processor": draw(st.sampled_from(processors)),
            }
            _maybe(draw, stage, "priority", draw(st.integers(0, 5)), 0)
            _maybe(draw, stage, "name", draw(st.sampled_from(["", "s"])), "")
            sections = draw(_sections(execution_time))
            if sections or draw(st.booleans()):
                stage["critical_sections"] = sections
            subtasks.append(stage)
        task = {
            "period": _number(
                draw, draw(st.sampled_from([10.0, 25.0, 40.0, 12.5]))
            ),
            "subtasks": subtasks,
        }
        _maybe(draw, task, "phase",
               _number(draw, draw(st.sampled_from([0.0, 1.0, 0.5]))), 0.0)
        _maybe(draw, task, "deadline",
               draw(st.sampled_from([None, 30, 22.5])), None)
        _maybe(draw, task, "name", draw(st.sampled_from(["", f"T{index}"])),
               "")
        tasks.append(task)
    document = {"format": "repro-system-v1", "tasks": tasks}
    _maybe(draw, document, "name",
           draw(st.sampled_from(["system", "sys-a"])), "system")
    return document


@st.composite
def _request_docs(draw) -> dict:
    system = draw(_system_docs())
    if draw(st.booleans()):
        return system  # a bare system document
    document = {"format": "repro-admission-request-v1", "system": system}
    protocols = draw(
        st.lists(st.sampled_from(_PROTOCOL_SPELLINGS), min_size=1,
                 max_size=6)
    )
    if draw(st.booleans()):
        document["protocols"] = protocols
    for flag, default in (
        ("jitter_sensitive", False),
        ("wcets_trusted", True),
        ("clock_sync_available", False),
        ("strictly_periodic_arrivals", False),
        ("synchronized_clocks", True),
        ("shared_resources", False),
    ):
        _maybe(draw, document, flag, draw(st.booleans()), default)
    _maybe(draw, document, "clock_rate_bound",
           draw(st.sampled_from([0, 0.0, 1e-4, 0.01])), 0.0)
    _maybe(draw, document, "clock_jump_bound",
           draw(st.sampled_from([0, 0.0, 0.5, 2])), 0.0)
    _maybe(draw, document, "sa_ds_max_iterations",
           draw(st.sampled_from([300, 50, 1])), 300)
    _maybe(draw, document, "request_id",
           draw(st.sampled_from(["", "r1"])), "")
    _maybe(draw, document, "tenant", draw(st.sampled_from(["", "t"])), "")
    return document


class TestDocumentKey:
    @given(document=_request_docs())
    @settings(max_examples=150)
    def test_document_key_equals_request_key(self, document):
        request = request_from_dict(document)
        system, fields = request_content(document)
        assert system == system_to_dict(request.system)
        for name, value in fields.items():
            assert getattr(request, name) == value, name
        assert content_key(system, fields) == request_key(request)

    def test_request_content_does_not_validate_the_system(self):
        # Normalizes (so the wire path can key it) but belongs to no
        # valid request: building the same content fails.
        document = copy.deepcopy(_PIPE_DOC)
        document["tasks"][0]["subtasks"][0]["execution_time"] = -1
        system, _ = request_content(document)
        with pytest.raises(ModelError):
            system_from_normalized(system)
        with pytest.raises(ModelError):
            request_from_dict(document)


# ---------------------------------------------------------------------------
# Rejected documents: the key path must raise or miss, and the error a
# wire client sees must not change.
# ---------------------------------------------------------------------------

#: The exceptions the TCP server answered with an error line before the
#: document key path existed; anything else dropped the connection.
_REPLIED = (ConfigurationError, ValueError, KeyError, TypeError)


def _historical_request_from_dict(data):
    """Frozen copy of the request parser as it was before documents were
    keyed: system coercion and validation interleaved task by task, then
    the options.  Only its errors matter here."""
    def system(data):
        if data.get("format") != "repro-system-v1":
            raise ConfigurationError(
                f"not a repro-system-v1 document "
                f"(format={data.get('format')!r})"
            )
        tasks = []
        for entry in data["tasks"]:
            tasks.append(Task(
                period=float(entry["period"]),
                phase=float(entry.get("phase", 0.0)),
                deadline=(
                    None if entry.get("deadline") is None
                    else float(entry["deadline"])
                ),
                name=entry.get("name", ""),
                subtasks=tuple(
                    Subtask(
                        execution_time=float(stage["execution_time"]),
                        processor=str(stage["processor"]),
                        priority=int(stage.get("priority", 0)),
                        name=stage.get("name", ""),
                        critical_sections=tuple(
                            CriticalSection(
                                resource=str(section["resource"]),
                                start=float(section["start"]),
                                duration=float(section["duration"]),
                            )
                            for section in stage.get("critical_sections", ())
                        ),
                    )
                    for stage in entry["subtasks"]
                ),
            ))
        return System(tuple(tasks), name=data.get("name", "system"))

    if data.get("format") == "repro-system-v1":
        return AdmissionRequest(system=system(dict(data)))
    if data.get("format") != "repro-admission-request-v1":
        raise ConfigurationError(
            f"not a repro-admission-request-v1 document "
            f"(format={data.get('format')!r})"
        )
    built = system(data["system"])
    protocols = tuple(data.get("protocols", ("DS", "PM", "MPM", "RG")))
    options = dict(
        jitter_sensitive=bool(data.get("jitter_sensitive", False)),
        wcets_trusted=bool(data.get("wcets_trusted", True)),
        clock_sync_available=bool(data.get("clock_sync_available", False)),
        strictly_periodic_arrivals=bool(
            data.get("strictly_periodic_arrivals", False)
        ),
        synchronized_clocks=bool(data.get("synchronized_clocks", True)),
        clock_rate_bound=float(data.get("clock_rate_bound", 0.0)),
        clock_jump_bound=float(data.get("clock_jump_bound", 0.0)),
        shared_resources=bool(data.get("shared_resources", False)),
        sa_ds_max_iterations=int(data.get("sa_ds_max_iterations", 300)),
        request_id=str(data.get("request_id", "")),
        tenant=str(data.get("tenant", "")),
    )
    for protocol in protocols:
        protocol.upper()  # a non-string raised AttributeError here
    return AdmissionRequest(system=built, protocols=protocols, **options)


_BAD_VALUES = (
    -1, 0, -0.5, "abc", "", None, [], {}, [1], True, float("inf"),
    float("nan"), 1e400, "1e400",
)


def _locations(document) -> list:
    """Every (container, key) of a document, depth first."""
    found = []

    def walk(node):
        items = (
            node.items() if isinstance(node, dict)
            else enumerate(node) if isinstance(node, list)
            else ()
        )
        for key, value in list(items):
            found.append((node, key))
            walk(value)

    walk(document)
    return found


@st.composite
def _corrupted_docs(draw) -> dict:
    document = copy.deepcopy(draw(_request_docs()))
    for _ in range(draw(st.integers(1, 2))):
        container, key = draw(st.sampled_from(_locations(document)))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(st.sampled_from(_BAD_VALUES))
    return document


class TestRejectedDocuments:
    @given(document=_corrupted_docs())
    @settings(max_examples=300)
    def test_key_path_raises_or_misses_and_errors_are_unchanged(
        self, document
    ):
        try:
            request_from_dict(document)
        except Exception as exc:  # noqa: BLE001
            error = exc
        else:
            error = None
        try:
            _historical_request_from_dict(document)
        except Exception as exc:  # noqa: BLE001
            historical = exc
        else:
            historical = None

        assert (error is None) == (historical is None)
        if isinstance(historical, _REPLIED):
            # The wire reply is "bad request line: <str(exc)>".
            assert str(error) == str(historical)
        if error is None:
            return
        try:
            system, fields = request_content(document)
            key = content_key(system, fields)
        except Exception:  # noqa: BLE001 - the key path raised
            return
        # Keyed anyway: the content belongs to no valid request, so no
        # cache can hold its key -- the wire path misses and builds.
        with pytest.raises(Exception):
            AdmissionRequest(system=system_from_normalized(system), **fields)
        assert len(key) == 64
