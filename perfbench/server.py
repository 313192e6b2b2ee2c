"""The admission server under test, in its own process.

Started by the benchmark client as::

    python3 perfbench/server.py --workload admit-cold|admit-hot --trace 0|1 --tag TAG

It builds the workload's ``AdmissionFrontend``, exposes it with
``serve_frontend`` on an ephemeral localhost port and prints
``{"port": N}``.  SIGTERM shuts it down; it then
prints one JSON line with the frontend's ``snapshot()``, its peak RSS
and, when traced, the span summary (spans go to a JSONL file).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

sys.path.insert(0, str(harness.ROOT / "src"))

import layers  # noqa: E402
from repro.service import batch as batch_module  # noqa: E402
from repro.service import engine as engine_module  # noqa: E402
from repro.service import frontend as frontend_module  # noqa: E402
from repro.service.frontend import AdmissionFrontend, FrontendConfig, serve_frontend  # noqa: E402
from spans import SpanRecorder, per_span_cost  # noqa: E402


def frontend_config(workload: str, tag: str) -> FrontendConfig:
    if workload == "admit-cold":
        cache_path = harness.OUT_DIR / f"cold-cache-{tag}.sqlite"
        for stale in harness.OUT_DIR.glob(f"{cache_path.name}*"):
            stale.unlink()
        return FrontendConfig(
            shards=1,
            executor="process",
            workers_per_shard=2,
            cache_backend="sqlite",
            cache_path=cache_path,
            region_backend="memory",
        )
    return FrontendConfig(
        shards=1,
        executor="thread",
        workers_per_shard=1,
        cache_backend="memory",
        region_backend="memory",
    )


def instrument(recorder: SpanRecorder, frontend: AdmissionFrontend, counters) -> None:
    """Wrap the public calls the request path makes, from outside."""
    from repro.service.hashing import request_key

    json_shim = types.SimpleNamespace(
        loads=recorder.wrap(json.loads, layers.JSON_LOADS),
        dumps=recorder.wrap(json.dumps, layers.JSON_DUMPS),
    )
    frontend_module.json = json_shim
    recorder.patch(frontend_module, "request_from_dict", layers.FROM_DICT)
    recorder.patch(frontend_module, "decision_to_dict", layers.TO_DICT)

    traced_key = recorder.wrap(
        request_key, layers.REQUEST_KEY, request=lambda request: request.request_id
    )

    def keyed(request):
        key = traced_key(request)
        # Anchored on the caller's (admit) span: shard workers see the
        # key, not that span's context.
        recorder.anchor(key)
        return key

    frontend_module.request_key = keyed
    frontend.admit = recorder.wrap_async(
        frontend.admit,
        layers.ADMIT,
        anchor_out=lambda request: (id(request),),
        request=lambda request: request.request_id,
    )
    cache = frontend.cache
    recorder.patch(cache, "get", layers.CACHE_GET, anchor_in=lambda key: key)
    put_name = (
        layers.SQLITE_PUT
        if type(cache).__name__ == "SqliteDecisionCache"
        else layers.CACHE_PUT
    )
    recorder.patch(cache, "put", put_name, anchor_in=lambda key, decision: key)
    regions = frontend.regions
    recorder.patch(
        regions, "lookup", layers.REGION_LOOKUP, anchor_in=lambda request: id(request)
    )
    recorder.patch(regions, "build", layers.REGION_BUILD)
    if frontend.config.executor == "thread":
        # Decisions computed on the frontend's own threads (warm-up).
        recorder.patch(
            batch_module,
            "compute_decision",
            layers.COMPUTE,
            anchor_in=lambda request: id(request),
        )
        recorder.patch(engine_module, "analyze_sa_pm", layers.SA_PM)
        recorder.patch(
            engine_module,
            "analyze_sa_ds",
            layers.SA_DS,
            observe=counters.analysis_observer(layers.SA_DS),
        )
        recorder.patch(engine_module, "analyze_sa_pm_blocking", layers.SA_PM_BLOCKING)
        recorder.patch(
            engine_module,
            "analyze_sa_ds_blocking",
            layers.SA_DS_BLOCKING,
            observe=counters.analysis_observer(layers.SA_DS_BLOCKING),
        )


async def serve(args) -> dict:
    frontend = AdmissionFrontend(frontend_config(args.workload, args.tag))
    recorder = SpanRecorder() if args.trace else None
    counters = layers.Counters()
    if recorder is not None:
        instrument(recorder, frontend, counters)
    await frontend.start()
    try:
        server = await serve_frontend(frontend, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        sys.stdout.write(json.dumps({"port": port}) + "\n")
        sys.stdout.flush()
        # A signal, not a stdin reader thread: a thread blocked on stdin
        # holds its lock, and a forked pool worker closing stdin at start
        # would then wait for it forever.
        stopping = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stopping.set)
        await stopping.wait()
        server.close()
        await server.wait_closed()
        snapshot = frontend.snapshot()
    finally:
        await frontend.stop()
    result = {"snapshot": snapshot, "rss_mb": harness.peak_rss_mb()}
    if recorder is not None:
        recorder.dump_jsonl(Path(args.spans))
        result["spans"] = recorder.summary()
        result["span_count"] = len(recorder.spans)
        result["span_cost_s"] = per_span_cost()
        result["counters"] = counters.values
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("admit-cold", "admit-hot"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="0")
    parser.add_argument("--spans", default=str(harness.OUT_DIR / "spans-server.jsonl"))
    args = parser.parse_args()
    harness.OUT_DIR.mkdir(exist_ok=True)
    result = asyncio.run(serve(args))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
