"""One benchmark pass, run in a fresh process by ``run.py``.

A pass generates its workload's inputs from the seed (untimed), sets up
exactly once (timed: ``setup_s``), serves the fixed request set to the
end in a closed loop with one client (timed: per-request latency and
the wall time of the whole set), reads its peak RSS, and only then runs
the optional replays and the correctness gate.  It prints one JSON
object on stdout.

Around the set-up and between requests (at most every 100 ms, outside
the timed requests) it times the host-speed probe (``probe.py``);
``run.py`` uses the probes to scale times to a reference host speed.

Usage::

    python3 kmbench/onepass.py --workload paper-k4 --seed 1 [--gate]
        [--replay] [--traced] [--obs-off] [--setup-only] [--scale 1.0]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro import BatchExecutor, KMismatchIndex, ShardedIndex  # noqa: E402
from repro.errors import AlphabetError  # noqa: E402
from repro.obs import OBS  # noqa: E402

from inputs import make_inputs  # noqa: E402
from oracle import HammingScan, check_against_naive, revcomp  # noqa: E402
from probe import ProbeIndex  # noqa: E402
from tracer import Tracer, program_targets  # noqa: E402

SHM_DIR = Path("/dev/shm")

#: Least time between two probes while serving requests.
PROBE_INTERVAL_NS = 100_000_000

#: Probes taken right before and right after the set-up.
SETUP_PROBES = 3


def shm_entries() -> set:
    """Names currently in ``/dev/shm`` (empty where it does not exist)."""
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process (or of its largest waited-for child)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def canonical_hits(hits) -> list:
    """``ReadHit`` or ``Occurrence`` lists as plain tuples, order kept."""
    out = []
    for hit in hits:
        occ = getattr(hit, "occurrence", hit)
        strand = getattr(hit, "strand", None)
        out.append((occ.start, tuple(occ.mismatches)) + ((strand,) if strand else ()))
    return out


def digest(value) -> str:
    """SHA-256 of a canonical output's ``repr``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@dataclass
class Served:
    """What one closed-loop sweep over the request list returned."""

    outputs: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    extras: list = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    probes_ms: List[float] = field(default_factory=list)
    #: Wall time of the sweep minus the probes taken inside it.
    wall_s: float = 0.0


class Pass:
    """Set-up, timed phase, replays and gate of one workload pass."""

    def __init__(self, name: str, seed: int, scale: float, workdir: Path,
                 tracer: Optional[Tracer] = None, observability: Optional[bool] = None):
        self.inputs = make_inputs(name, seed, scale)
        self.spec = self.inputs.spec
        self.workdir = workdir
        self.tracer = tracer
        self.observability = (
            self.spec.observability if observability is None else observability
        )
        self.probe = ProbeIndex()
        self.index = None
        self.served = Served()
        self.result: Dict[str, object] = {}

    def phase(self, name: str):
        """A benchmark-level span (a no-op context when untraced)."""
        return _NoSpan() if self.tracer is None else self.tracer.span(name)

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        spec, target = self.spec, self.inputs.target
        probes = [self.probe.time_ms() for _ in range(SETUP_PROBES)]
        start = perf_counter_ns()
        with self.phase("pass.setup"):
            if spec.shards:
                built = ShardedIndex.build(
                    target, spec.shards, max_pattern=spec.read_length, max_k=spec.k
                )
                path = self.workdir / "target.shd"
                built.save(path)
                del built
                self.index = KMismatchIndex.open(path, mmap=True)
            else:
                self.index = KMismatchIndex(target)
        self.result["setup_s"] = (perf_counter_ns() - start) / 1e9
        self.result["setup_probes_ms"] = probes + [
            self.probe.time_ms() for _ in range(SETUP_PROBES)
        ]
        if spec.shards:
            self.result["index_bytes"] = sum(p.stat().st_size for p in self.workdir.iterdir())
        else:
            self.result["index_bytes"] = self.index.nbytes()

    # -- requests -----------------------------------------------------------------

    def serve(self, request: List[str], method: str, serial: bool):
        """One request; returns its canonical output, stats and extra."""
        spec, index = self.spec, self.index
        if spec.batch_size > 1:
            workers = 0 if serial else len(os.sched_getaffinity(0))
            batch = BatchExecutor(workers=workers, mode="process").run_map(
                index, request, spec.k, method=method
            )
            extra = dict(batch.extra, n_chunks=batch.n_chunks)
            return [canonical_hits(hits) for hits in batch.results], batch.stats, extra
        read = request[0]
        try:
            if spec.both_strands:
                hits, stats = index.map_read_with_stats(read, spec.k, method=method)
            else:
                hits, stats = index.search_with_stats(read, spec.k, method=method)
        except AlphabetError:
            return "AlphabetError", None, None
        return canonical_hits(hits), stats, None

    def sweep(self, phase: str, method: str = "algorithm_a", serial: bool = False) -> Served:
        """Serve every request once, in order, one at a time."""
        served = Served()
        with self.phase(phase):
            begin = last_probe = perf_counter_ns()
            probing_ns = 0
            for request in self.inputs.requests:
                start = perf_counter_ns()
                output, stats, extra = self.serve(request, method, serial)
                end = perf_counter_ns()
                served.latencies_ms.append((end - start) / 1e6)
                served.outputs.append(output)
                served.stats.append(stats)
                served.extras.append(extra)
                if end - last_probe >= PROBE_INTERVAL_NS:
                    served.probes_ms.append(self.probe.time_ms())
                    last_probe = perf_counter_ns()
                    probing_ns += last_probe - end
            served.wall_s = (perf_counter_ns() - begin - probing_ns) / 1e9
        if not served.probes_ms:
            served.probes_ms.append(self.probe.time_ms())
        return served

    def timed_phase(self) -> None:
        self.served = self.sweep("pass.query")
        self.result["query_s"] = self.served.wall_s
        self.result["query_probes_ms"] = self.served.probes_ms

    def replay(self) -> None:
        """Serve the same requests again, serially: with A() on the
        pooled workload (the pool-free baseline), then with the S-tree."""
        if self.spec.batch_size > 1:
            serial = self.sweep("pass.replay_serial", serial=True)
            self.result["serial_replay_s"] = serial.wall_s
            self.result["serial_replay_probes_ms"] = serial.probes_ms
            self.result["replay_counts"] = self.search_counts(serial.stats)
        stree = self.sweep("pass.replay_stree", method="stree", serial=True)
        self.result["stree_replay_s"] = stree.wall_s
        self.result["stree_replay_probes_ms"] = stree.probes_ms

    # -- accounting ------------------------------------------------------------------

    def search_counts(self, stats_list) -> Dict[str, int]:
        """Summed ``SearchStats`` counters plus the Algorithm A memo size
        this process holds afterwards."""
        counts = {key: 0 for key in ("rank_queries", "nodes_expanded", "leaves", "reuse_hits",
                                     "shared_reuse_hits", "chars_replayed", "rows_located")}
        for stats in stats_list:
            if stats is not None:
                for key in counts:
                    counts[key] += getattr(stats, key)
        shards = self.index.shards if self.spec.shards else [self.index]
        counts["memo_entries"] = sum(s.engine("algorithm_a").memo_entries for s in shards)
        counts["rejected"] = len(self.inputs.rejected)
        return counts

    def counts(self) -> Dict[str, float]:
        """Work counts from the returned ``SearchStats`` / ``BatchResult.extra``."""
        counts: Dict[str, float] = self.search_counts(self.served.stats)
        extras = [e for e in self.served.extras if e]
        counts["chunks"] = sum(e["n_chunks"] for e in extras)
        counts["arena_records"] = sum(e.get("arena_records", 0) for e in extras)
        counts["arena_spills"] = sum(e.get("arena_spills", 0) for e in extras)
        counts["hydrate_ms_max"] = max(
            (max(e.get("worker_hydrate_ms") or [0.0]) for e in extras), default=0.0
        )
        if self.spec.shards:
            counts.update(self.shard_counts())
        if self.observability:
            errors = OBS.metrics.get("query.errors")
            counts["errors_counted"] = errors.value if errors is not None else 0
        return counts

    def shard_counts(self) -> Dict[str, int]:
        """Shard searches and the ones whose core owned a merged hit,
        derived outside-in from the manifest geometry and the outputs."""
        specs = self.index.manifest.shards
        searched = useful = 0
        for read, output in zip(self.inputs.reads, self.served.outputs):
            if output == "AlphabetError":
                continue
            live = [spec for spec in specs if spec.length >= len(read)]
            searched += len(live)
            useful += sum(1 for spec in live if any(spec.owns(hit[0]) for hit in output))
        return {"shard_searches": searched, "shard_useful": useful}

    def gate(self) -> Dict[str, object]:
        """Check every output against the brute-force scan of the whole
        target (both strands where the workload maps reads)."""
        spec, scan = self.spec, HammingScan(self.inputs.target)
        rejected = set(self.inputs.rejected)
        wrong = []
        read_id = 0
        for i, (request, output) in enumerate(zip(self.inputs.requests, self.served.outputs)):
            expected = []
            for read in request:
                if read_id in rejected:
                    expected.append("AlphabetError")
                elif spec.both_strands:
                    expected.append(scan.map_read(read, spec.k))
                else:
                    expected.append(scan.search(read, spec.k))
                read_id += 1
            if (expected if spec.batch_size > 1 else expected[0]) != output:
                wrong.append(i)
        first = next(r for i, r in enumerate(self.inputs.reads) if i not in rejected)
        naive_ok = check_against_naive(scan, first, spec.k)
        if spec.both_strands:
            naive_ok = naive_ok and check_against_naive(scan, revcomp(first), spec.k)
        return {"wrong": wrong, "naive_ok": naive_ok}


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


def run_pass(name: str, seed: int, scale: float = 1.0, traced: bool = False,
             gate: bool = False, replay: bool = False,
             observability: Optional[bool] = None,
             setup_only: bool = False) -> Dict[str, object]:
    """Run one pass in this process and return its result record.

    ``setup_only`` stops after the set-up (one more ``setup_s`` sample).
    """
    shm_before = shm_entries()
    threads_before = threading.active_count()
    workdir = Path(tempfile.mkdtemp(prefix=".kmbench-", dir=ROOT))
    tracer = Tracer() if traced else None
    try:
        current = Pass(name, seed, scale, workdir, tracer, observability)
        result = current.result
        result.update(workload=name, seed=seed, traced=traced,
                      observability=current.observability,
                      target_bp=len(current.inputs.target))
        OBS.reset()
        if current.observability:
            OBS.enable()
        if tracer is not None:
            tracer.install(program_targets())
        try:
            current.setup()
            if not setup_only:
                current.timed_phase()
                result["rss_mb"] = peak_rss_mb(include_children=current.spec.batch_size > 1)
                OBS.disable()
                result["counts"] = current.counts()
                if replay:
                    current.replay()
        finally:
            if tracer is not None:
                tracer.restore()
            OBS.disable()
        if not setup_only:
            outputs = current.served.outputs
            result.update(
                reads=len(current.inputs.reads), latencies_ms=current.served.latencies_ms,
                digests=[digest(o)[:16] for o in outputs], digest=digest(outputs),
            )
        if tracer is not None:
            result["layers"] = {
                phase: {n: [f.calls, f.inclusive_ns, f.self_ns] for n, f in folded.items()}
                for phase, folded in tracer.fold_by_phase().items()
            }
        if gate:
            result["gate"] = current.gate()
        del current
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    result["leaked_shm"] = len(shm_entries() - shm_before)
    result["leaked_threads"] = threading.active_count() - threads_before
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--gate", action="store_true")
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("--obs-off", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(
        args.workload, args.seed, args.scale, traced=args.traced, gate=args.gate,
        replay=args.replay, observability=False if args.obs_off else None,
        setup_only=args.setup_only,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
