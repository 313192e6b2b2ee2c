"""The repository's benchmark: one seeded workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep|admit-cold|admit-hot \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` the same inputs run with spans recorded around the
program's public calls and it reports the per-layer metrics.  Human
readable report lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Outputs are
checked against ``perfbench/references``; any mismatch makes the run
exit 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up (used to time paper-sweep's set-up in a fresh process)",
    )
    args = parser.parse_args()

    source = harness.ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.ROOT / "src"))
    harness.OUT_DIR.mkdir(exist_ok=True)

    if args.setup_probe:
        import sweep

        sweep.setup_probe(args.seed, args.seconds)
        return 0

    facts = harness.machine_facts()
    harness.report(
        f"machine: nproc {facts['nproc']}, Python {facts['python']}, "
        f"numpy {facts['numpy']}, CPU {facts['cpu']}"
    )
    harness.report(
        f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
        f"trace {args.trace}"
    )
    trace = bool(args.trace)
    if args.workload == "paper-sweep":
        import sweep

        correct, attempted, failed, metrics = sweep.run(args.seed, args.seconds, trace)
    else:
        import admission

        runner = admission.run_cold if args.workload == "admit-cold" else admission.run_hot
        correct, attempted, failed, metrics = runner(args.seed, trace)
    harness.emit_result(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        trace=trace,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
