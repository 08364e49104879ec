"""serve-mix: a ``repro serve`` daemon driven by two closed-loop clients.

One load-generator process (this one) keeps two HTTP connections open;
each client sends its next request only when the previous one answered.
Requests follow a seeded schedule built from fixed blocks, so every run
sees the same mix: exact joins over a skewed set of (pair, epsilon)
shapes, approximate genome joins, appends, and periodic evict plus
re-register.  Every exact answer is checked after the run against an
oracle for the dataset version the server names by fingerprint.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import benchmath
import hostspeed
import inputs
import oracles
from batch import vmhwm_mb
from benchmath import Tracer, median

from repro.core.join import IndexedDataset
from repro.datasets import markov_dna

SPATIAL_R_POINTS = 8_000
SPATIAL_S_POINTS = 6_000
PAGE_CAPACITY = 64
GENOME_SYMBOLS = 8_000
GENOME_WINDOW = 192
GENOME_WINDOWS_PER_PAGE = 64
GENOME_EPSILON = 1.0  # the genome oracle is exact at this threshold only
APPEND_POINTS = 64
APPEND_POOL_POINTS = 4096
APPEND_SYMBOLS = 256
REQUEST_BUFFER_PAGES = 16
SHARED_BUFFER_FRAMES = 64
CLIENTS = 2
SETUP_REPEATS = 3
STARTUP_TIMEOUT_S = 60.0

# One schedule cycle.  Both datasets are evicted and re-registered at its
# end, so each cycle starts cold: the first join of every shape sweeps,
# a join after an append runs matrix-warm, and a repeat with no append
# in between replays the memo.  Per cycle that is 4 cold, 4 warm and 3
# memo exact joins, 3 approximate joins, 4 appends and 2 re-registers.
# The order is fixed so every seed sees the same tiers; the seed picks
# where in the cycle the run starts, the append payloads and the dataset
# variants.
CYCLE = (
    ("join", "spatial", 0.01),
    ("join", "genome", GENOME_EPSILON),
    ("approx", "genome", GENOME_EPSILON),
    ("join", "spatial", 0.015),
    ("append", "sp_s", None),
    ("join", "spatial", 0.01),
    ("join", "genome", GENOME_EPSILON),
    ("join", "spatial", 0.015),
    ("approx", "genome", GENOME_EPSILON),
    ("append", "genome", None),
    ("join", "spatial", 0.01),
    ("join", "spatial", 0.02),
    ("join", "genome", GENOME_EPSILON),
    ("join", "spatial", 0.01),
    ("approx", "genome", GENOME_EPSILON),
    ("join", "spatial", 0.015),
    ("append", "sp_s", None),
    ("append", "genome", None),
    ("maintain", "sp_s", None),
    ("maintain", "genome", None),
)


@dataclass
class Op:
    kind: str  # join | approx | append | maintain
    target: str
    epsilon: Optional[float]
    payload: object
    cycle: int  # the run's first cycle starts at the seeded offset


def build_schedule(seed: int, length: int) -> List[Op]:
    """``length`` requests of :data:`CYCLE`, from a seeded offset, with seeded payloads."""
    rng = np.random.default_rng([seed, 0x5E4E])
    point_pool = inputs.points(APPEND_POOL_POINTS, 20, seed)
    offset = int(rng.integers(len(CYCLE)))
    ops: List[Op] = []
    for k in range(offset, offset + length):
        kind, target, eps = CYCLE[k % len(CYCLE)]
        payload = None
        if kind == "append" and target == "sp_s":
            payload = point_pool[rng.choice(APPEND_POOL_POINTS, APPEND_POINTS, replace=False)]
        elif kind == "append":
            payload = markov_dna(APPEND_SYMBOLS, seed=int(rng.integers(1 << 31)))
        ops.append(Op(kind, target, eps, payload, k // len(CYCLE)))
    return ops


def base_datasets(seed: int) -> Dict[str, object]:
    return {
        "sp_r": inputs.points(SPATIAL_R_POINTS, 10, seed),
        "sp_s": inputs.points(SPATIAL_S_POINTS, 11, seed),
        "genome": inputs.dna(GENOME_SYMBOLS, 12, seed, 0.10, GENOME_WINDOWS_PER_PAGE),
    }


def register_body(dataset_id: str, data) -> dict:
    if isinstance(data, str):
        return {
            "id": dataset_id, "kind": "text", "text": data,
            "window_length": GENOME_WINDOW, "windows_per_page": GENOME_WINDOWS_PER_PAGE,
        }
    return {
        "id": dataset_id, "kind": "vector", "vectors": data.tolist(),
        "page_capacity": PAGE_CAPACITY,
    }


# -- daemon ---------------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` subprocess on a free local port."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", str(self.port),
                    "--shared-buffer-frames", str(SHARED_BUFFER_FRAMES),
                    "--request-buffer-pages", str(REQUEST_BUFFER_PAGES),
                ],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {self.log_path}")
            probe = Client(self.port)
            try:
                if probe.call("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            finally:
                probe.close()
            time.sleep(0.01)
        raise RuntimeError("daemon did not become healthy")

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body=None) -> Tuple[int, dict, int]:
        """``(status, decoded payload, response bytes)``."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            raise
        return response.status, json.loads(raw), len(raw)

    def close(self) -> None:
        self.conn.close()


def setup_daemon(root: Path, log_path: Path, bases: Dict[str, object]) -> Daemon:
    """Start a daemon and register the base datasets."""
    daemon = Daemon(root, log_path)
    try:
        daemon.start()
        client = Client(daemon.port)
        for dataset_id, data in bases.items():
            status, payload, _ = client.call("POST", "/datasets", register_body(dataset_id, data))
            if status != 201:
                raise RuntimeError(f"register {dataset_id} answered {status}: {payload}")
        client.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon


# -- load generation ----------------------------------------------------------------


class RWLock:
    """Many readers or one writer: joins share a dataset, maintenance owns it."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


@dataclass
class Record:
    """One completed request, as the client saw it."""

    kind: str  # join | approx | append | evict | register
    index: int
    status: int
    latency: float
    start: float = 0.0
    response_bytes: int = 0
    payload: dict = field(default_factory=dict)
    keys: Optional[np.ndarray] = None
    digest: str = ""
    traced: bool = False
    error: str = ""


_KEPT_FIELDS = (
    "fingerprints", "epsilon", "elapsed_seconds", "matrix_cache", "result_cache",
    "io_seconds", "cpu_seconds", "num_pairs", "comparisons", "stage_seconds", "counters",
    "fingerprint", "old_fingerprint", "r", "s",
)


class LoadGenerator:
    def __init__(self, port: int, schedule: List[Op], bases, seconds: float, trace: bool):
        self.port = port
        self.schedule = schedule
        self.bases = bases
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.records: List[Record] = []
        self.appends: List[Tuple[str, str, object]] = []  # (old fp, new fp, payload)
        self.registered: List[Tuple[str, str]] = []  # (dataset id, fp)
        self._next = 0
        self._lock = threading.Lock()
        self._locks = {name: RWLock() for name in bases}
        self.started = self.deadline = self.finished = 0.0

    @property
    def taken(self) -> int:
        """Requests handed to clients so far (all completed once run returns)."""
        return self._next

    def _take(self) -> Optional[Tuple[int, Op]]:
        with self._lock:
            if time.perf_counter() >= self.deadline or self._next >= len(self.schedule):
                return None
            index = self._next
            self._next += 1
            return index, self.schedule[index]

    def run(self) -> None:
        self.started = time.perf_counter()
        self.deadline = self.started + self.seconds
        threads = [threading.Thread(target=self._client_loop) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.finished = time.perf_counter()

    def _client_loop(self) -> None:
        client = Client(self.port)
        try:
            while True:
                taken = self._take()
                if taken is None:
                    return
                index, op = taken
                for record in self._execute(client, index, op):
                    with self._lock:
                        self.records.append(record)
        finally:
            client.close()

    def _timed(self, client, kind, index, method, path, body) -> Record:
        t0 = time.perf_counter()
        try:
            status, payload, size = client.call(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return Record(kind, index, 0, time.perf_counter() - t0, t0, error=repr(exc))
        record = Record(kind, index, status, time.perf_counter() - t0, t0, size)
        if status >= 300:
            record.error = str(payload.get("error", ""))
            return record
        record.payload = {k: payload[k] for k in _KEPT_FIELDS if k in payload}
        if "pairs" in payload:
            if kind == "approx":
                record.keys = oracles.unordered_keys(payload["pairs"])
            else:
                keys = (
                    oracles.unordered_keys(payload["pairs"])
                    if payload.get("r") == payload.get("s")
                    else oracles.pair_keys(payload["pairs"])
                )
                record.digest = oracles.digest(keys)
        return record

    def _execute(self, client: Client, index: int, op: Op) -> List[Record]:
        if op.kind in ("join", "approx"):
            names = ("sp_r", "sp_s") if op.target == "spatial" else ("genome",)
            body = {"r": names[0], "s": names[-1], "epsilon": op.epsilon}
            if op.kind == "approx":
                body["prefilter"] = "approximate"
            for name in names:
                self._locks[name].acquire_read()
            try:
                record = self._timed(client, op.kind, index, "POST", "/join", body)
            finally:
                for name in names:
                    self._locks[name].release_read()
            # Whole cycles alternate, so traced and untraced requests mix alike.
            record.traced = self.trace and (index // len(CYCLE)) % 2 == 0
            if record.traced:
                self._trace_request(record)
            return [record]
        if op.kind == "append":
            self._locks[op.target].acquire_read()
            try:
                if isinstance(op.payload, str):
                    body = {"suffix": op.payload}
                else:
                    body = {"vectors": op.payload.tolist()}
                record = self._timed(
                    client, "append", index, "POST", f"/datasets/{op.target}/pages", body
                )
            finally:
                self._locks[op.target].release_read()
            if record.status == 200:
                with self._lock:
                    self.appends.append(
                        (record.payload["old_fingerprint"], record.payload["fingerprint"], op.payload)
                    )
            return [record]
        # maintain: evict, then register the base content again
        lock = self._locks[op.target]
        lock.acquire_write()
        try:
            evicted = self._timed(client, "evict", index, "DELETE", f"/datasets/{op.target}", None)
            registered = self._timed(
                client, "register", index, "POST", "/datasets",
                register_body(op.target, self.bases[op.target]),
            )
        finally:
            lock.release_write()
        if registered.status == 201:
            with self._lock:
                self.registered.append((op.target, registered.payload["fingerprint"]))
        return [evicted, registered]

    def _trace_request(self, record: Record) -> None:
        """A client span with the server's stages laid out inside it."""
        t0 = record.start
        with self._lock:
            root = self.tracer.add("request", t0, t0 + record.latency, None)
            elapsed = record.payload.get("elapsed_seconds")
            if elapsed is None:
                return
            server = self.tracer.add("server", t0, t0 + elapsed, root)
            at = t0
            for stage, secs in (record.payload.get("stage_seconds") or {}).items():
                if record.payload.get("result_cache") == "hit":
                    break  # a memo replay runs no stage; its timings are the original's
                self.tracer.add(f"stage.{stage}", at, at + secs, server)
                at += secs


# -- checking ----------------------------------------------------------------------------


class VersionMirror:
    """Dataset content per server fingerprint, in the server's id layout."""

    def __init__(self, bases, registered, appends) -> None:
        self.content: Dict[str, object] = {}
        layouts = {}
        t0 = time.perf_counter()
        for name, data in bases.items():
            if isinstance(data, str):
                layouts[name] = data
            else:
                # Registration reorders points along the R*-tree leaves.
                layouts[name] = IndexedDataset.from_points(
                    data, page_capacity=PAGE_CAPACITY
                ).paged.vectors
        self.index_build_s = time.perf_counter() - t0
        for name, fp in registered:
            self.content[fp] = layouts[name]
        # Two clients append concurrently, so replay in dependency order;
        # an append to a version never seen leaves its joins unverifiable.
        pending = list(appends)
        while True:
            ready = [a for a in pending if a[0] in self.content]
            if not ready:
                break
            for old, new, payload in ready:
                base = self.content[old]
                self.content[new] = (
                    base + payload if isinstance(base, str) else np.vstack([base, payload])
                )
            pending = [a for a in pending if a[1] not in self.content]
        self._oracles: Dict[tuple, np.ndarray] = {}

    def truth(self, fp_r: str, fp_s: str, epsilon: float) -> Optional[np.ndarray]:
        if fp_r not in self.content or fp_s not in self.content:
            return None
        key = (fp_r, fp_s, epsilon)
        if key not in self._oracles:
            r, s = self.content[fp_r], self.content[fp_s]
            if isinstance(r, str):
                if epsilon != GENOME_EPSILON or fp_r != fp_s:
                    raise ValueError("the genome oracle covers self joins at epsilon 1")
                self._oracles[key] = oracles.windows_within_one_edit(r, GENOME_WINDOW)
            else:
                self._oracles[key] = oracles.points_within(r, s, epsilon)
        return self._oracles[key]


def check(records: List[Record], mirror: VersionMirror) -> Tuple[int, List[float]]:
    """``(wrong answers, recall of each approximate join)``."""
    wrong = 0
    recalls: List[float] = []
    for rec in records:
        if rec.status != 200 or rec.kind not in ("join", "approx"):
            continue
        fps = rec.payload["fingerprints"]
        truth = mirror.truth(fps["r"], fps["s"], float(rec.payload["epsilon"]))
        if truth is None:
            wrong += 1
        elif rec.kind == "join":
            wrong += rec.digest != oracles.digest(truth)
        else:
            extra = np.setdiff1d(rec.keys, truth, assume_unique=True)
            found = np.isin(truth, rec.keys, assume_unique=True).sum()
            recalls.append(float(found) / truth.size if truth.size else 1.0)
            wrong += extra.size > 0
    return wrong, recalls


# -- the workload -----------------------------------------------------------------------


def run(root: Path, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    bases = base_datasets(seed)
    log_path = out_dir / "serve-daemon.log"
    setup_clocks = []
    daemon = None
    with hostspeed.ProbeProcess(out_dir / "probes-serve-mix.txt") as probes:
        try:
            for _ in range(SETUP_REPEATS):
                if daemon is not None:
                    daemon.stop()
                started = time.perf_counter()
                daemon = setup_daemon(root, log_path, bases)
                setup_clocks.append((started, time.perf_counter()))
            schedule = build_schedule(seed, length=max(200, int(seconds * 40)))
            load = LoadGenerator(daemon.port, schedule, bases, seconds, trace)
            client = Client(daemon.port)
            for name in bases:
                fingerprint = client.call("GET", f"/datasets/{name}")[1]["fingerprint"]
                load.registered.append((name, fingerprint))
            client.close()
            load.run()
            peak_rss = vmhwm_mb(daemon.proc.pid)
        finally:
            if daemon is not None:
                daemon.stop()
    samples = probes.samples()

    def corrected(start: float, end: float) -> float:
        return (end - start) * hostspeed.window_factor(samples, start, end)

    with open(out_dir / f"serve-mix-seed{seed}-trace{int(trace)}-requests.jsonl", "w") as fh:
        for r in sorted(load.records, key=lambda r: r.index):
            fh.write(json.dumps({
                "index": r.index, "kind": r.kind, "status": r.status,
                "latency": r.latency, "bytes": r.response_bytes,
                "epsilon": r.payload.get("epsilon"), "r": r.payload.get("r"),
                "matrix_cache": r.payload.get("matrix_cache"),
                "result_cache": r.payload.get("result_cache"),
                "server_s": r.payload.get("elapsed_seconds"),
            }) + "\n")
    mirror = VersionMirror(bases, load.registered, load.appends)
    records = load.records
    wrong, recalls = check(records, mirror)
    attempted = len(records)
    refused = sum(r.status == 429 for r in records)
    failed = sum(r.status not in (200, 201) for r in records)
    for r in records:
        if r.error:
            print(f"serve-mix {r.kind} #{r.index} answered {r.status}: {r.error}")
    joins = [r for r in records if r.kind in ("join", "approx") and r.status == 200]
    # Whole cycles only: the seeded start and the deadline cut cycles
    # short, and a cut cycle has another mix of shapes and tiers.
    whole = _whole_cycles(schedule, load.taken)
    joins = [r for r in joins if schedule[r.index].cycle in whole] or joins
    exact = [r for r in joins if r.kind == "join"]
    # Each latency is corrected by the probes that ran around it; the
    # request rate by those over the whole load phase.
    join_s = [corrected(r.start, r.start + r.latency) for r in joins]
    tail_value, tail_pct, n = benchmath.tail(join_s)
    mix = _mix(records)
    elapsed = load.finished - load.started
    print(
        f"serve-mix: {attempted} requests in {elapsed:.2f} s, "
        f"mix {json.dumps(mix, sort_keys=True)}; join_tail_s is p{tail_pct:.1f} of n={n}"
    )
    result = {
        "attempted": attempted,
        "failed": failed - refused,
        "refused": refused,
        "wrong": wrong,
        "notes": {
            "tail_percentile": tail_pct, "tail_n": n, "mix": mix, "refused": refused,
            "raw_join_p50_s": median([r.latency for r in joins]),
            "raw_throughput_rps": attempted / elapsed,
        },
    }
    if not trace:
        result["metrics"] = {
            "join_p50_s": (median(join_s), "s"),
            "join_tail_s": (tail_value, "s"),
            "throughput_rps": (attempted / corrected(load.started, load.finished), "1/s"),
            # Means: the exact joins mix four shapes whose costs differ,
            # and a median would jump between them.
            "sim_total_s": (sum(r.payload["cpu_seconds"] + r.payload["io_seconds"] for r in exact) / len(exact), "s"),
            "sim_io_s": (sum(r.payload["io_seconds"] for r in exact) / len(exact), "s"),
            "page_reads": (sum(r.payload["counters"].get("disk.reads", 0) for r in exact) / len(exact), "count"),
            "setup_s": (median([corrected(a, b) for a, b in setup_clocks]), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "recall_min": (min(recalls, default=1.0), "ratio"),
        }
        return result
    result["per_layer"] = _per_layer(records, load, mirror, recalls, refused)
    load.tracer.write(out_dir / "spans-serve-mix.jsonl")
    return result


def _whole_cycles(schedule: List[Op], taken: int) -> set:
    sizes: Dict[int, int] = {}
    for op in schedule[:taken]:
        sizes[op.cycle] = sizes.get(op.cycle, 0) + 1
    return {cycle for cycle, size in sizes.items() if size == len(CYCLE)}


def _mix(records: List[Record]) -> Dict[str, int]:
    mix: Dict[str, int] = {}
    for r in records:
        tier = r.kind
        if r.kind == "join" and r.status == 200:
            cache = "memo" if r.payload.get("result_cache") == "hit" else r.payload.get("matrix_cache")
            tier = f"join.{cache}"
        mix[tier] = mix.get(tier, 0) + 1
    return mix


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _per_layer(records, load, mirror, recalls, refused) -> Dict[str, float]:
    """Layer figures the served payloads carry.

    Executed joins mix spatial and genome shapes whose figures differ by
    orders of magnitude, so layer figures are means over the joins that
    ran the layer, and ratios are ratios of sums.
    """
    joins = [r for r in records if r.kind in ("join", "approx") and r.status == 200]
    executed = [r for r in joins if r.payload.get("result_cache") != "hit"]
    cold = [r for r in executed if r.payload.get("matrix_cache") == "miss"]
    approx = [r for r in joins if r.kind == "approx"]
    exact = [r for r in joins if r.kind == "join"]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def stage(rs, name):
        return mean(r.payload["stage_seconds"].get(name, 0.0) for r in rs)

    def total(rs, name):
        return sum(r.payload["counters"].get(name, 0) for r in rs)

    def candidates(r):
        c = r.payload["counters"]
        return c.get("text.fd_candidates", c.get("kernel.minkowski.gram_candidates", 0))

    all_candidates = sum(candidates(r) for r in executed)
    hits, reads = total(executed, "buffer.hits"), total(executed, "disk.reads")
    sweep_ops = sum(total(cold, k) for k in (
        "sweep.endpoints_processed", "sweep.candidate_pairs",
        "sweep.node_pairs_expanded", "filter.rounds",
    ))
    traced = [r.latency for r in joins if r.traced]
    untraced = [r.latency for r in joins if not r.traced]
    own = benchmath.median_of_traces(load.tracer, benchmath.self_times) if load.tracer.num_traces else {}
    n_exec, n_cold, n_approx = max(1, len(executed)), max(1, len(cold)), max(1, len(approx))
    return {
        "index.build_s": mirror.index_build_s,
        "sweep.build_s": stage(cold, "matrix"),
        "sweep.marked_cells": total(cold, "sweep.leaf_pairs_marked") / n_cold,
        "sweep.operations": sweep_ops / n_cold,
        "sketch.plan_s": stage(approx, "prefilter"),
        "sketch.cells_scored": total(approx, "prefilter.cells_scored") / n_approx,
        "sketch.cells_unmarked": total(approx, "prefilter.cells_unmarked") / n_approx,
        "sketch.recall": mean(recalls),
        "square.cluster_s": stage(executed, "clustering"),
        "square.clusters": total(executed, "sc.clusters_built") / n_exec,
        "schedule.order_s": stage(executed, "scheduling"),
        "schedule.pages_reused": total(executed, "executor.pages_reused") / n_exec,
        "executor.execute_s": stage(executed, "execution"),
        "executor.candidates": all_candidates / n_exec,
        "executor.comparisons": mean(r.payload["comparisons"] for r in executed),
        "executor.result_pairs": mean(r.payload["num_pairs"] for r in executed),
        "executor.filter_precision": (
            sum(r.payload["num_pairs"] for r in executed) / all_candidates if all_candidates else 0.0
        ),
        "storage.buffer_hit_rate": hits / max(1, hits + reads),
        "storage.seeks": total(executed, "disk.seeks") / n_exec,
        "storage.evictions": total(executed, "buffer.evictions") / n_exec,
        "serve.memo_hit_rate": sum(r.payload.get("result_cache") == "hit" for r in exact) / max(1, len(exact)),
        "serve.matrix_hit_rate": sum(r.payload.get("matrix_cache") == "hit" for r in executed) / n_exec,
        "serve.server_s": _med(r.payload["elapsed_seconds"] for r in joins),
        "serve.transport_s": _med(r.latency - r.payload["elapsed_seconds"] for r in joins),
        "serve.response_bytes": _med(r.response_bytes for r in joins),
        "serve.rejected": refused,
        "serve.append_p50_s": _med(r.latency for r in records if r.kind == "append" and r.status == 200),
        "serve.register_p50_s": _med(r.latency for r in records if r.kind == "register" and r.status == 201),
        "trace.overhead_pct": 100.0 * (_med(traced) - _med(untraced)) / _med(untraced) if traced and untraced else 0.0,
        "trace.unaccounted_s": own.get("server", 0.0),
    }
