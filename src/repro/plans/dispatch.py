"""File-queue dispatch: N workers claim plan stages via atomic leases.

The dispatcher turns a plan's run directory into a work queue that any
number of worker processes — on one machine or on several sharing the
directory — can drain cooperatively, with no coordinator process:

* **Claim** — a worker claims a ready stage by creating
  ``leases/<stage>.lock`` with ``O_CREAT | O_EXCL``.  Creation is
  atomic, so exactly one worker wins a contested stage.
* **Heartbeat** — while executing, a daemon thread refreshes the lock's
  mtime every third of the lease TTL.  A live worker's lease never
  looks stale.
* **Takeover** — a lock whose mtime is older than the TTL belongs to a
  dead worker.  A contender *renames* it to a tombstone
  (``<stage>.lock.stale.<worker>``); rename of one source path admits a
  single winner, which then claims fresh.  The killed stage re-runs
  from its JSONL cell checkpoint, so takeover recomputes at most the
  cells in flight when the worker died.
* **Done** — completion is the atomic ``done/<stage>.json`` marker
  written by the :class:`~repro.plans.runner.PlanRunner` (after the
  payload is in the store), so a stage observed done is durably done.

Exactly-once therefore holds at stage granularity: a stage's work may
be *attempted* more than once across crashes, but it *completes* once —
the journal records one completion, and every attempt converges on the
same fingerprint-keyed payload.

Telemetry: each worker emits ``plan.lease.claim`` / ``released`` /
``takeover`` / ``plan.stage.*`` counters and ``plan`` spans into its
own trace file, which ``repro trace validate`` checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import PlanError
from repro.plans.runner import (
    DONE_DIR,
    LEASES_DIR,
    PLAN_FILE,
    PlanRunner,
    StageOutcome,
    decode_payload,
    load_journal,
    read_done_marker,
    write_json_atomic,
)
from repro.plans.spec import ExperimentPlan, plan_from_dict, stage_key
from repro.runtime import telemetry

#: Default lease time-to-live in seconds.  A worker silent this long is
#: presumed dead and its stage is taken over.
DEFAULT_LEASE_TTL = 30.0

#: Delay between queue polls when nothing is claimable.
POLL_INTERVAL = 0.2


def prepare_run(plan: ExperimentPlan, run_dir: str | Path) -> Path:
    """Materialize the run directory workers share.

    Validates the plan (a malformed plan must fail here, before any
    worker starts) and writes ``plan.json`` — workers need only the
    directory path.
    """
    plan.validate()
    run_dir = Path(run_dir)
    for sub in (LEASES_DIR, DONE_DIR):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    write_json_atomic(run_dir / PLAN_FILE, plan.to_dict())
    return run_dir


def load_run(run_dir: str | Path) -> ExperimentPlan:
    """Load the compiled plan from a run directory."""
    path = Path(run_dir) / PLAN_FILE
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise PlanError(f"not a plan run directory: {run_dir} ({error})") from error
    except ValueError as error:
        raise PlanError(f"corrupt plan file {path}: {error}") from error
    return plan_from_dict(data)


class _Heartbeat:
    """Refreshes a held lease's mtime from a daemon thread."""

    def __init__(self, lock_path: Path, interval: float) -> None:
        self._path = lock_path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                os.utime(self._path)
            except FileNotFoundError:
                return  # released or taken over; nothing left to refresh
            except OSError:
                # Transient (e.g. EIO on a shared filesystem): keep
                # beating.  Going permanently silent here would make a
                # live worker's lease look abandoned, invite takeover,
                # and run the stage concurrently in two processes.
                continue

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 1.0)


@dataclass(frozen=True)
class WorkerReport:
    """One worker process's tally over its lifetime."""

    worker_id: str
    completed: tuple[StageOutcome, ...]
    takeovers: int

    def summary(self) -> str:
        """One line per worker for logs and CI greps."""
        names = ",".join(outcome.name for outcome in self.completed) or "-"
        return (
            f"worker {self.worker_id}: {len(self.completed)} stage(s) "
            f"[{names}], {self.takeovers} takeover(s)"
        )


class Worker:
    """One queue worker: claim, execute, release, repeat until drained.

    Args:
        run_dir: the shared run directory from :func:`prepare_run`.
        worker_id: unique id; lands in lease files and the journal.
        lease_ttl: seconds of heartbeat silence before a lease is
            considered abandoned.
        jobs: engine workers inside this process (the ResilientRunner
            ladder and its process pool live *inside* each queue worker).
        telemetry: collector for ``plan.*`` spans and counters.
        crash_after_claims: fault injection — die with ``os._exit``
            immediately after the Nth successful claim, leaving the
            lease to go stale (simulates SIGKILL mid-stage).
        max_seconds: give up waiting for claimable work after this long
            (guards CI against a wedged queue).
    """

    def __init__(
        self,
        run_dir: str | Path,
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        jobs: int = 1,
        telemetry: "object | None" = None,
        crash_after_claims: int | None = None,
        max_seconds: float | None = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.lease_ttl = float(lease_ttl)
        self.telemetry = telemetry
        self.crash_after_claims = crash_after_claims
        self.max_seconds = max_seconds
        self.plan = load_run(self.run_dir)
        self.order = self.plan.validate()
        self.fingerprints = self.plan.fingerprints()
        self.runner = PlanRunner(
            self.plan,
            run_dir=self.run_dir,
            jobs=jobs,
            telemetry=telemetry,
        )
        self._claims = 0

    # -- lease primitives ---------------------------------------------------

    def _lock_path(self, stage_name: str) -> Path:
        return self.run_dir / LEASES_DIR / f"{stage_name}.lock"

    def _claim(self, stage_name: str) -> bool:
        """Atomically claim a stage; ``False`` when another worker holds it."""
        path = self._lock_path(stage_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(
                {"worker": self.worker_id, "pid": os.getpid(), "stage": stage_name},
                handle,
            )
            handle.flush()
        telemetry.count("plan.lease.claim")
        self._claims += 1
        if (
            self.crash_after_claims is not None
            and self._claims >= self.crash_after_claims
        ):
            # Fault injection: die holding the lease, exactly as a
            # SIGKILLed worker would — no release, no trace flush.
            os._exit(137)
        return True

    def _release(self, stage_name: str) -> None:
        try:
            self._lock_path(stage_name).unlink()
        except OSError:
            pass
        telemetry.count("plan.lease.released")

    def _try_takeover(self, stage_name: str) -> bool:
        """Steal an abandoned lease.  ``True`` when this worker won."""
        path = self._lock_path(stage_name)
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return False  # released or stolen meanwhile
        if age <= self.lease_ttl:
            return False
        tombstone = path.with_name(f"{path.name}.stale.{self.worker_id}")
        try:
            os.rename(path, tombstone)
        except OSError:
            return False  # another contender won the rename
        return True

    # -- queue scan ---------------------------------------------------------

    def _done(self, stage_name: str) -> bool:
        marker = read_done_marker(self.run_dir, stage_name)
        return (
            marker is not None
            and marker.get("fingerprint") == self.fingerprints[stage_name]
        )

    def _ready(self) -> list[str]:
        """Stages whose dependencies are durably done, in topo order."""
        return [
            name
            for name in self.order
            if not self._done(name)
            and all(self._done(need) for need in self.plan.stage(name).needs)
        ]

    def _upstream_results(self, stage_name: str) -> dict[str, object]:
        """Decode completed dependencies' payloads for a claimed stage."""
        results: dict[str, object] = {}
        for need in self.plan.stage(stage_name).needs:
            need_stage = self.plan.stage(need)
            payload = self.runner._cached_payload(stage_key(self.fingerprints[need]))
            if payload is None:
                payload = self._payload_from_outputs(need)
            if payload is None:
                raise PlanError(
                    f"stage {stage_name!r}: dependency {need!r} is marked "
                    "done but its payload is missing from store and outputs"
                )
            results[need] = decode_payload(need_stage, payload)
        return results

    def _payload_from_outputs(self, stage_name: str) -> dict | None:
        path = self.run_dir / "outputs" / f"{stage_name}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- main loop ----------------------------------------------------------

    def _execute(self, stage_name: str) -> StageOutcome:
        stage = self.plan.stage(stage_name)
        results = self._upstream_results(stage_name)
        heartbeat = _Heartbeat(
            self._lock_path(stage_name), max(self.lease_ttl / 3.0, 0.05)
        )
        with heartbeat:
            outcome, _live = self.runner.run_stage(
                stage, self.fingerprints[stage_name], results
            )
        return outcome

    def run(self) -> WorkerReport:
        """Drain the queue; returns once every stage is durably done."""
        completed: list[StageOutcome] = []
        takeovers = 0
        deadline = (
            time.monotonic() + self.max_seconds
            if self.max_seconds is not None
            else None
        )
        with telemetry.activated(self.telemetry):
            while True:
                ready = self._ready()
                if not ready and all(self._done(name) for name in self.order):
                    break
                progressed = False
                for name in ready:
                    claimed = self._claim(name)
                    if not claimed and self._try_takeover(name):
                        # The stale lock is renamed away; only the
                        # follow-up claim makes the takeover real (and
                        # keeps takeover <= claim in this trace even if
                        # a third worker wins the re-claim race).
                        claimed = self._claim(name)
                        if claimed:
                            takeovers += 1
                            telemetry.count("plan.lease.takeover")
                    if not claimed:
                        continue
                    try:
                        completed.append(self._execute(name))
                    finally:
                        self._release(name)
                    progressed = True
                if progressed:
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    raise PlanError(
                        f"worker {self.worker_id!r} timed out after "
                        f"{self.max_seconds:.0f}s with stages still pending"
                    )
                time.sleep(POLL_INTERVAL)
        return WorkerReport(
            worker_id=self.worker_id,
            completed=tuple(completed),
            takeovers=takeovers,
        )


# -- multi-process driver ---------------------------------------------------


def worker_command(
    run_dir: str | Path,
    worker_id: str,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    jobs: int = 1,
    trace: str | Path | None = None,
    crash_after_claims: int | None = None,
    max_seconds: float | None = None,
) -> list[str]:
    """The ``repro plan worker`` argv for one subprocess."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "plan",
        "worker",
        str(run_dir),
        "--worker-id",
        worker_id,
        "--lease-ttl",
        str(lease_ttl),
        "--jobs",
        str(jobs),
    ]
    if trace is not None:
        argv += ["--trace", str(trace)]
    if crash_after_claims is not None:
        argv += ["--crash-after-claims", str(crash_after_claims)]
    if max_seconds is not None:
        argv += ["--max-seconds", str(max_seconds)]
    return argv


def run_dispatch(
    plan: ExperimentPlan,
    run_dir: str | Path,
    workers: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    jobs: int = 1,
    trace_dir: str | Path | None = None,
    crash_worker: int | None = None,
    crash_after_claims: int = 1,
    max_seconds: float | None = None,
    stagger: float = 0.0,
) -> list[subprocess.CompletedProcess]:
    """Run a plan across N worker subprocesses sharing a run directory.

    Args:
        plan: the plan to dispatch.
        run_dir: shared queue directory (created if absent).
        workers: number of worker processes to spawn.
        lease_ttl: lease TTL handed to every worker.
        jobs: in-process engine workers per queue worker.
        trace_dir: when given, worker ``i`` writes
            ``<trace_dir>/trace-w<i>.jsonl``.
        crash_worker: index of one worker to crash via
            ``--crash-after-claims`` (fault injection for tests/CI).
        crash_after_claims: claim count after which that worker dies.
        max_seconds: per-worker deadline.
        stagger: seconds between worker spawns.  With fault injection,
            a head start for the crash worker makes the takeover
            deterministic: it has claimed (and died holding) a lease
            before later workers finish scanning the queue.
    """
    run_dir = prepare_run(plan, run_dir)
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2]
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else str(src)
    procs = []
    for index in range(workers):
        if index and stagger:
            time.sleep(stagger)
        worker_id = f"w{index}"
        trace = None
        if trace_dir is not None:
            trace = Path(trace_dir) / f"trace-{worker_id}.jsonl"
        argv = worker_command(
            run_dir,
            worker_id,
            lease_ttl=lease_ttl,
            jobs=jobs,
            trace=trace,
            crash_after_claims=(
                crash_after_claims if index == crash_worker else None
            ),
            max_seconds=max_seconds,
        )
        procs.append(subprocess.Popen(argv, env=env))
    return [
        subprocess.CompletedProcess(proc.args, proc.wait())
        for proc in procs
    ]


# -- status -----------------------------------------------------------------


def run_status(run_dir: str | Path) -> str:
    """Human- and CI-readable status of a plan run directory.

    Ends with a ``duplicates: N`` line — the count of stages journaled
    as completed more than once, which must be 0 for an exactly-once
    run (the dispatch-smoke CI job asserts exactly that).
    """
    run_dir = Path(run_dir)
    plan = load_run(run_dir)
    order = plan.validate()
    fingerprints = plan.fingerprints()
    events = load_journal(run_dir)
    completions: dict[str, int] = {}
    for event in events:
        if event.get("event") == "completed":
            stage = str(event.get("stage"))
            completions[stage] = completions.get(stage, 0) + 1
    lines = [f"plan '{plan.name}': {len(order)} stage(s)"]
    done = 0
    for name in order:
        marker = read_done_marker(run_dir, name)
        if marker is not None and marker.get("fingerprint") == fingerprints[name]:
            done += 1
            status = "done"
        elif (run_dir / LEASES_DIR / f"{name}.lock").exists():
            status = "leased"
        else:
            status = "pending"
        lines.append(f"stage {name}: {status}")
    lines.append(f"done: {done}/{len(order)}")
    duplicates = sum(count - 1 for count in completions.values() if count > 1)
    lines.append(f"duplicates: {duplicates}")
    return "\n".join(lines)
