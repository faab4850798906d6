"""In-process replay of one workload, for the traced run of run.py.

    python3 perfbench/replay.py --workload NAME --seed N --work DIR --out FILE --spans FILE

Imports geckit.cli first (its time is ``cli.import_s``), then replays
the workload's set-up once and its round three times through
geckit.cli.main: round0 untraced (it also pays first-call costs), round1
inside a Tracer, round2 untraced again as the baseline for the tracing
overhead. Writes the exit codes, the per-layer metrics, self times and the
round times to --out, and every span to --spans. run.py starts this script
with the same pinned environment as its CLI children and checks the outputs.
"""

from __future__ import annotations

import time

_start = time.perf_counter()
import geckit.cli as cli  # noqa: E402  (timed: nothing heavy is imported before it)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def replay(steps) -> list[int]:
    codes = []
    for step in steps:
        if step.prepare is not None:
            step.prepare()
        try:
            codes.append(cli.main(step.argv))
        except SystemExit as exc:  # --help exits through argparse
            codes.append(exc.code if isinstance(exc.code, int) else 1)
    return codes


def main() -> None:
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--work", "--out", "--spans"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    setup = work / "setup0"
    codes = replay(wl.setup(args.seed, setup))
    tr = Tracer(f"{wl.name}:{args.seed}")
    seconds = []
    for i, traced in enumerate((False, True, False)):
        start = time.perf_counter()
        with tr if traced else contextlib.nullcontext():
            codes += replay(wl.round(args.seed, setup, work / f"round{i}"))
        seconds.append(time.perf_counter() - start)
    per_layer, absent = tr.metrics()
    per_layer["cli.import_s"] = IMPORT_S
    _total, own = tr.totals()
    tr.dump(args.spans)
    result = {
        "exit_codes": codes,
        "per_layer": per_layer,
        "absent": absent,
        "self_s": dict(sorted(own.items())),
        "spans": len(tr.spans),
        "round_s": seconds,
    }
    Path(args.out).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    main()
