"""Canonical content hashing of admission requests.

The decision cache must key on request *content*: the same system and
options must map to the same key in every process, on every run, on
every machine.  Python's built-in ``hash()`` offers none of that (it is
salted per process for strings and identity-ish for many objects), so
keys here are SHA-256 digests of a canonical JSON encoding:

* systems serialize through :func:`repro.io.system_to_dict`, which is
  lossless and positional (task order is significant in the model, so
  it is significant in the key);
* the option fields are emitted under fixed names;
* ``json.dumps`` runs with sorted keys and fixed separators, and floats
  serialize via ``repr``, which is exact for IEEE doubles -- two equal
  systems built independently hash equally, two systems differing in
  any execution time, period, phase, priority, placement or name do
  not;
* exact-timebase values (``fractions.Fraction``) canonicalize through
  :func:`repro.timebase.canonical_number` -- gcd-reduced ``"num/den"``
  strings, integral rationals collapsing to ints -- so a system touched
  by exact arithmetic keys stably too.  Plain floats never reach that
  path (``default=`` fires only for non-JSON types), keeping every
  historical float key byte-identical.

``request_id`` and ``tenant`` are deliberately excluded: they are
caller metadata (correlation tag, quota principal), not decision
content -- two tenants submitting identical systems share one cached
decision, and the sharded frontend routes them to the same shard.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.io import system_to_dict
from repro.model.system import System
from repro.service.requests import AdmissionRequest
from repro.timebase import canonical_number

__all__ = [
    "KEY_FORMAT",
    "KEY_FORMAT_V3",
    "canonical_payload",
    "content_key",
    "request_key",
    "system_key",
]

#: Version tag baked into every key; bump when the payload shape changes
#: so stale persisted caches miss instead of serving wrong answers.
#: v2: clock-quality fields (synchronized_clocks, clock_rate_bound,
#: clock_jump_bound) joined the decision content.
KEY_FORMAT = "repro-admission-key-v2"

#: Shared-resource requests key under v3: the payload gains the
#: ``shared_resources`` flag (and the system document carries the
#: critical sections), so a v2 cache entry -- computed by the base,
#: blocking-unaware analyses -- can never be silently served for a
#: resourceful task set.  Resource-free requests keep their exact v2
#: payload, so every historical key stays byte-identical.
KEY_FORMAT_V3 = "repro-admission-key-v3"


#: Option fields that are decision content, under their payload names.
_KEYED_OPTIONS: tuple[str, ...] = (
    "protocols",
    "jitter_sensitive",
    "wcets_trusted",
    "clock_sync_available",
    "strictly_periodic_arrivals",
    "synchronized_clocks",
    "clock_rate_bound",
    "clock_jump_bound",
    "sa_ds_max_iterations",
)


def _payload(
    system: dict[str, Any], fields: Mapping[str, Any]
) -> dict[str, Any]:
    resourceful = fields["shared_resources"]
    payload: dict[str, Any] = {
        "format": KEY_FORMAT_V3 if resourceful else KEY_FORMAT,
        "system": system,
    }
    for name in _KEYED_OPTIONS:
        payload[name] = fields[name]
    payload["protocols"] = list(fields["protocols"])
    if resourceful:
        payload["shared_resources"] = resourceful
    return payload


def canonical_payload(request: AdmissionRequest) -> dict[str, Any]:
    """The exact dictionary that gets hashed (useful for debugging)."""
    fields = {name: getattr(request, name) for name in _KEYED_OPTIONS}
    fields["shared_resources"] = (
        request.shared_resources or request.system.has_critical_sections
    )
    return _payload(system_to_dict(request.system), fields)


def _canonical_default(value: Any) -> Any:
    """Serialize non-JSON scalars (exact-timebase rationals) stably."""
    canonical = canonical_number(value)
    if canonical is value:  # not a rational -- genuinely unserializable
        raise TypeError(
            f"cannot canonicalize {type(value).__name__!r} for hashing"
        )
    return canonical


def _digest(payload: dict[str, Any]) -> str:
    encoded = json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=_canonical_default,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def request_key(request: AdmissionRequest) -> str:
    """The SHA-256 hex digest identifying a request's content."""
    return _digest(canonical_payload(request))


def content_key(system: dict[str, Any], fields: Mapping[str, Any]) -> str:
    """The key of a decoded request document, from its
    :func:`~repro.service.requests.request_content`.

    Equals ``request_key(request_from_dict(document))`` whenever that
    request builds; the wire path keys lines with it before (and, on a
    cache hit, instead of) building them.
    """
    return _digest(_payload(system, fields))


def system_key(system: System, **options) -> str:
    """Shorthand: the key of ``AdmissionRequest(system, **options)``."""
    return request_key(AdmissionRequest(system=system, **options))
