"""Parallel shard builds: a process pool that ships built shards via shm.

``ShardedIndex.build`` constructs N independent per-shard FM-indexes;
each build is CPU-bound and shares nothing with its siblings, so a
process pool over shards cuts wall-clock by ~N on multi-core hosts.
The transport reuses the executor's shared-memory plumbing in both
directions:

* **down**: the parent writes the ASCII-encoded target text into one
  shared segment; each worker slices its shard's ``[start, start+length)``
  window out of it — the text is mapped once, never pickled N times;
* **up**: the worker builds its :class:`~repro.core.matcher.KMismatchIndex`,
  serialises it with the deterministic ``REPROIDX`` writer
  (:func:`repro.io.binfmt.dump_fmindex` via ``to_binary``), writes the
  blob into the shard's output segment and reports through the result
  queue.  The parent copies the blob out, unlinks the segment, and
  hydrates the shard zero-copy with ``from_binary`` — because the
  writer is deterministic, parallel-built shard files are byte-identical
  to serial-built ones.

Ownership handoff: the parent names every shard's output segment
before any worker starts (:func:`_shard_segment_name`), and the child
unregisters the segment it creates from its own
:mod:`multiprocessing.resource_tracker` before closing, so the parent is
the sole unlinker — no double-unlink warnings.  Because the parent
knows the names, it needs no message to find a segment: a worker that
dies after writing a shard, before its report leaves the queue, leaks
nothing.

Failure semantics: a worker that dies mid-build (OOM kill, segfault)
or ships an exception surfaces as :class:`~repro.errors.IndexBuildError`
in the parent, with the death counted under
``query.errors{engine="shard_build", kind="worker"}``.  Remaining
workers are terminated and every planned segment still present is
unlinked on the way out.
"""

from __future__ import annotations

import multiprocessing as _mp
import os as _os
import queue as _queue
import traceback as _traceback
from multiprocessing import resource_tracker, shared_memory
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import IndexBuildError
from ..obs import OBS, count_query_error

#: Histogram of per-shard build wall-clock (milliseconds); emitted
#: unlabelled and per-``{shard}`` for both serial and parallel builds.
BUILD_MS_METRIC = "shard.build_ms"

#: How long the parent waits on the result queue between liveness checks.
BUILD_POLL_S = 0.25

#: Test hook: a worker that picks up the shard id named by this env var
#: exits immediately without reporting — exercises the dead-worker path.
_DIE_ENV = "REPRO_BUILD_WORKER_DIE"


def record_build_ms(shard_id: int, build_ms: float) -> None:
    """Emit the ``shard.build_ms`` histogram (unlabelled + ``{shard}``)."""
    if OBS.enabled:
        OBS.metrics.histogram(BUILD_MS_METRIC).observe(build_ms)
        OBS.metrics.histogram(BUILD_MS_METRIC, shard=shard_id).observe(build_ms)


def _shard_segment_name(text_segment: str, shard_id: int) -> str:
    """The output segment of ``shard_id``, derived from the name of the
    build's text segment (unique while that segment exists)."""
    return f"{text_segment}_s{shard_id}"


def _unlink_segment(name: str) -> None:
    """Unlink the segment ``name`` if it exists."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()


def _unregister_shm(segment: shared_memory.SharedMemory) -> None:
    """Drop ``segment`` from this process's resource tracker so another
    process can own the unlink without tracker double-free warnings."""
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by platform
        pass


def _build_worker(
    text_shm_name: str,
    alphabet_symbols: str,
    occ_sample_rate: int,
    sa_sample_rate: int,
    task_q,
    result_q,
) -> None:
    """Pool worker: pull ``(shard_id, start, length)`` tasks until the
    ``None`` sentinel; write each built shard into the segment the parent
    named for it (:func:`_shard_segment_name`)."""
    from ..alphabet import Alphabet
    from ..core.matcher import KMismatchIndex

    alphabet = Alphabet(alphabet_symbols)
    text_shm = shared_memory.SharedMemory(name=text_shm_name)
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            shard_id, start, length = task
            try:
                if _os.environ.get(_DIE_ENV, "") == str(shard_id):
                    _os._exit(17)
                begin = perf_counter()
                piece = bytes(text_shm.buf[start:start + length]).decode("ascii")
                index = KMismatchIndex(
                    piece,
                    alphabet=alphabet,
                    occ_sample_rate=occ_sample_rate,
                    sa_sample_rate=sa_sample_rate,
                )
                blob = index.to_binary()
                build_ms = (perf_counter() - begin) * 1e3
                try:
                    out = shared_memory.SharedMemory(
                        name=_shard_segment_name(text_shm_name, shard_id),
                        create=True,
                        size=max(1, len(blob)),
                    )
                except OSError:
                    # No shm left (tiny /dev/shm): fall back to pickling
                    # the blob — slower, never wrong.
                    result_q.put(("built-bytes", shard_id, blob, build_ms))
                    continue
                out.buf[: len(blob)] = blob
                # Hand unlink ownership to the parent before detaching.
                _unregister_shm(out)
                out.close()
                result_q.put(("built", shard_id, len(blob), build_ms))
            except BaseException as exc:  # ship the failure; never hang the parent
                result_q.put(
                    ("error", shard_id, repr(exc), _traceback.format_exc())
                )
                break
    finally:
        text_shm.close()


def build_shards_parallel(
    text: str,
    plan: Sequence[Tuple[int, int, int, int]],
    alphabet,
    occ_sample_rate: int,
    sa_sample_rate: int,
    workers: int,
) -> Optional[List[object]]:
    """Build every shard in ``plan`` over a process pool; return the
    hydrated :class:`~repro.core.matcher.KMismatchIndex` list in shard
    order, or ``None`` when the text cannot ride shared memory (non-ASCII
    targets fall back to the serial path — correctness first).

    Raises :class:`~repro.errors.IndexBuildError` when a worker dies or
    a shard build fails.
    """
    from ..core.matcher import KMismatchIndex

    try:
        encoded = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    workers = max(1, min(int(workers), len(plan)))
    ctx = _mp.get_context()
    text_shm = shared_memory.SharedMemory(create=True, size=max(1, len(encoded)))
    procs: List[_mp.process.BaseProcess] = []
    blobs: Dict[int, bytes] = {}
    timings: Dict[int, float] = {}
    try:
        text_shm.buf[: len(encoded)] = encoded
        task_q = ctx.Queue()
        result_q = ctx.Queue()
        for shard_id, (start, length, _core_start, _core_end) in enumerate(plan):
            task_q.put((shard_id, start, length))
        for _ in range(workers):
            task_q.put(None)
        for _ in range(workers):
            proc = ctx.Process(
                target=_build_worker,
                args=(
                    text_shm.name, "".join(alphabet.symbols),
                    occ_sample_rate, sa_sample_rate, task_q, result_q,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        while len(blobs) < len(plan):
            try:
                message = result_q.get(timeout=BUILD_POLL_S)
            except _queue.Empty:
                dead = [
                    p for p in procs
                    if not p.is_alive() and p.exitcode not in (0, None)
                ]
                if dead:
                    count_query_error("shard_build", 0, "worker")
                    raise IndexBuildError(
                        f"shard build worker died with exit code "
                        f"{dead[0].exitcode} before delivering its shards"
                    )
                if all(not p.is_alive() for p in procs):
                    count_query_error("shard_build", 0, "worker")
                    raise IndexBuildError(
                        f"all shard build workers exited but "
                        f"{len(plan) - len(blobs)} shard(s) are missing"
                    )
                continue
            tag = message[0]
            if tag == "built":
                _, shard_id, nbytes, build_ms = message
                segment = shared_memory.SharedMemory(
                    name=_shard_segment_name(text_shm.name, shard_id)
                )
                try:
                    blobs[shard_id] = bytes(segment.buf[:nbytes])
                finally:
                    segment.close()
                    try:
                        segment.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
                timings[shard_id] = build_ms
            elif tag == "built-bytes":
                _, shard_id, blob, build_ms = message
                blobs[shard_id] = blob
                timings[shard_id] = build_ms
            else:  # "error"
                _, shard_id, exc_repr, tb_text = message
                raise IndexBuildError(
                    f"shard {shard_id} build failed in worker: "
                    f"{exc_repr}\n{tb_text}"
                )
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        # A worker that died after writing a shard it never reported
        # leaves that shard's segment behind; only the parent knows it.
        for shard_id in range(len(plan)):
            if shard_id not in blobs:
                _unlink_segment(_shard_segment_name(text_shm.name, shard_id))
        text_shm.close()
        text_shm.unlink()
    for shard_id in sorted(timings):
        record_build_ms(shard_id, timings[shard_id])
    # `from_binary` wraps the blob zero-copy; the deterministic writer
    # guarantees a later `save()` re-emits these exact bytes.
    return [KMismatchIndex.from_binary(blobs[i]) for i in range(len(plan))]
