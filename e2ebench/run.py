"""End-to-end join benchmark: one command, four workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload spatial --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced pipeline and prints the per-layer metrics.  Every result is
checked against an independent oracle; a wrong answer counts as a failed
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
copy of each result go to ``e2ebench/_out/``.  Workload sizes and the
layer-to-end-to-end map are in ``e2ebench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spatial", "spatial-sharded", "genome", "serve-mix")


def _declared():
    """Metric names and units, as ``workloads.json`` declares them."""
    spec = json.loads((HERE / "workloads.json").read_text())
    return spec["end_to_end_units"], spec["per_layer_units"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import benchmath
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)

    if args.workload == "serve-mix":
        import servemix

        result = servemix.run(root, args.seed, args.seconds, bool(args.trace), out_dir)
    else:
        import batch

        result = batch.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)

    if args.trace:
        # A layer the workload does not exercise reads 0.
        values = {name: result["per_layer"].get(name, 0) for name in per_layer}
        units = per_layer
    else:
        values = {name: result["metrics"][name][0] for name in end_to_end}
        units = end_to_end
    unknown = set(result.get("per_layer" if args.trace else "metrics", {})) - set(units)
    if unknown:
        print(f"error: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 3
    attempted = result["attempted"]
    failed, refused, wrong = result["failed"], result.get("refused", 0), result["wrong"]
    error_rate = benchmath.error_rate(attempted, failed, refused, wrong)
    line = {
        "correct": wrong == 0 and failed == 0 and refused == 0,
        "attempted": attempted,
        "failed": failed + refused + wrong,
        "metrics": {
            name: {"value": _number(values[name]), "unit": units[name]} for name in units
        },
    }
    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                  error_rate=error_rate, notes=result.get("notes", {}))
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(f"  {'error_rate':<28} {error_rate:>14.6g} ratio "
          f"({failed} failed, {refused} refused, {wrong} wrong of {attempted})")
    for name in units:
        print(f"  {name:<28} {values[name]:>14.6g} {units[name]}")
    print(json.dumps(line))
    return 0


def _child_pids():
    """Processes whose parent is this one, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name sits in parentheses and may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def end_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    Shared memory makes ``multiprocessing`` start a resource tracker that
    nobody waits for: it would outlive this process.  It is stopped
    first; any other child left behind is terminated, then killed after
    ``grace_s``.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    pids = _child_pids()
    for pid in pids:
        print(f"stopping leftover child process {pid}", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    while pids:
        for pid in list(pids):
            try:
                done = os.waitpid(pid, os.WNOHANG)[0] == pid
            except ChildProcessError:
                done = True
            if done:
                pids.remove(pid)
        if pids and time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            break
        time.sleep(0.01)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _number(value):
    """Counts stay integers; anything else is a float with all its digits."""
    return int(value) if isinstance(value, int) else float(value)


if __name__ == "__main__":
    # A SIGTERM unwinds like an error, so every process started is stopped.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code = main()
    finally:
        end_children()
    sys.exit(code)
