"""CI smoke for the join-service daemon.

Starts a real ``repro serve`` process, then drives the documented
lifecycle over HTTP: register a genome-style dataset, cold join, append
pages, warm join.  Asserts the serving contracts end to end — the warm
join is a cache hit with zero matrix seconds and no sweep counters, the
session counts ``serving.warm_hits``, a requested EXPLAIN artifact
validates against the schema, and a join field outside the accepted set
is refused with 400 — and writes the whole exchange to a JSON trace for
the CI artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py [TRACE_OUT.json]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

PORT = int(os.environ.get("SERVE_SMOKE_PORT", "8731"))
BASE = f"http://127.0.0.1:{PORT}"
STARTUP_TIMEOUT_S = 30.0


def call(method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        BASE + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def wait_for_healthz():
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            status, body = call("GET", "/healthz")
            if status == 200:
                return body
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.2)
    raise RuntimeError(f"service did not come up on {BASE}")


def main(argv) -> int:
    trace_out = argv[1] if len(argv) > 1 else "serve_smoke_trace.json"
    from repro.datasets import markov_dna
    from repro.obs import validate_explain

    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(PORT),
            "--shared-buffer-frames",
            "96",
            "--request-buffer-pages",
            "24",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        health = wait_for_healthz()
        assert health["status"] == "ok", health
        assert health["version"], "healthz must report the package version"

        _, created = call(
            "POST",
            "/datasets",
            {
                "id": "genome",
                "kind": "text",
                "text": markov_dna(3000, seed=1),
                "window_length": 48,
                "windows_per_page": 64,
            },
        )
        assert created["pages"] > 0, created

        _, cold = call("POST", "/join", {"r": "genome", "epsilon": 1.0})
        assert cold["matrix_cache"] == "miss", cold["matrix_cache"]

        _, appended = call(
            "POST",
            "/datasets/genome/pages",
            {"suffix": markov_dna(400, seed=2)},
        )
        assert appended["pages_after"] > appended["pages_before"], appended
        assert appended["matrices_patched"] == 1, appended

        _, warm = call("POST", "/join", {"r": "genome", "epsilon": 1.0})
        assert warm["matrix_cache"] == "hit", warm["matrix_cache"]
        assert warm["matrix_seconds"] == 0.0, warm["matrix_seconds"]
        assert warm["counters"]["serving.warm_hit"] == 1, warm["counters"]
        sweep_counters = [
            k for k in warm["counters"] if k.startswith("sweep.")
        ]
        assert not sweep_counters, f"warm join ran the sweep: {sweep_counters}"

        _, explained = call(
            "POST",
            "/join",
            {
                "r": "genome",
                "epsilon": 1.0,
                "explain": True,
                "include_pairs": False,
            },
        )
        validate_explain(explained["explain"])

        try:
            call(
                "POST",
                "/join",
                {"r": "genome", "epsilon": 1.0, "shard_strategy": "affinity"},
            )
        except urllib.error.HTTPError as error:
            rejected_status, rejected = error.code, json.loads(error.read())
        else:
            raise AssertionError("an unknown /join field was accepted")
        assert rejected_status == 400, (rejected_status, rejected)
        assert "shard_strategy" in rejected["error"], rejected

        _, final_health = call("GET", "/healthz")
        counters = final_health["counters"]
        assert counters["serving.warm_hits"] >= 1, counters
        assert counters["serving.appends"] == 1, counters

        trace = {
            "healthz": final_health,
            "cold": {k: v for k, v in cold.items() if k != "pairs"},
            "append": appended,
            "warm": {k: v for k, v in warm.items() if k != "pairs"},
            "explain": explained["explain"],
            "rejected": rejected,
        }
        with open(trace_out, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
        print(
            f"serve smoke ok: cold miss -> append ({appended['pages_before']}"
            f"->{appended['pages_after']} pages) -> warm hit "
            f"(matrix_seconds=0.0), explain artifact valid, unknown "
            f"field refused with 400; "
            f"trace written to {trace_out}"
        )
        return 0
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
