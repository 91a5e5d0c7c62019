"""One serving shard: owned slices, per-table ladders, a failure model.

A :class:`ShardWorker` plays the role of one process in the sharded
tier. Like the collective simulator
(:class:`repro.distributed.collectives.Communicator`), the process
boundary is *modelled*, not spawned: workers communicate with the
router only through explicit dispatch/heartbeat messages on a shared
deterministic clock, never through shared mutable serving state, so
every distributed failure mode is reproducible under a seeded
:class:`~repro.reliability.fault_injection.FaultInjector` and the chaos
ledger reconciles exactly (docs/SERVING.md, sharding).

The failure model, driven through the ``shard.*`` injector sites or the
scheduled ``kill()`` used by ``serve-bench --kill-shard``:

========= ===============================================================
state     behaviour
========= ===============================================================
up        dispatches and heartbeats answered
hung      no replies (dispatch raises :class:`ShardTimeout`, heartbeats
          miss) until ``hang_ms`` of simulated time passes
down      dead until ``restart()``; dispatches raise :class:`ShardDown`
rewarming restarted but not readmitted: heartbeats answer (reporting the
          state) while the hot-row set is replayed; dispatches refuse
========= ===============================================================

``shard.slow`` is transient rather than a state: the next dispatch
carries a simulated latency penalty, and the router treats a dispatch
whose penalty exceeds the per-shard deadline exactly like a timeout.

Serving is *canonical by construction*: the primary rung materialises
rows through the operator's ``lookup`` and pools them with
:func:`pool_rows` — the same reduction the replica path uses — which is
what makes replica failover bit-identical for mirrored rows.
"""

from __future__ import annotations

import numpy as np

from repro.serving.breaker import CircuitBreaker
from repro.serving.server import Rung, TableLadder
from repro.telemetry import annotate_span, get_registry, traced_event, traced_span

__all__ = ["ShardWorker", "ShardDown", "ShardTimeout", "NetDrop",
           "pool_rows"]


class ShardDown(RuntimeError):
    """Dispatch refused: the shard is dead (or not yet readmitted)."""


class ShardTimeout(RuntimeError):
    """Dispatch produced no reply within the per-shard deadline."""


class NetDrop(RuntimeError):
    """The router<->shard message was lost in transit."""


def pool_rows(rows: np.ndarray, bag_of: np.ndarray, num_bags: int,
              dim: int) -> np.ndarray:
    """Sum-pool materialised rows into bags, in row order.

    The one reduction both the primary rung and the replica path share:
    a sequential ``np.add.at`` over identical row vectors produces
    identical bits, so a failover between them is invisible.
    """
    pooled = np.zeros((num_bags, dim), dtype=np.float64)
    if rows.size:
        np.add.at(pooled, bag_of, rows)
    return pooled


class ShardWorker:
    """One shard: a state machine over its slices' serving ladders.

    Parameters
    ----------
    shard_id:
        Topology id of this worker.
    slices:
        The :class:`~repro.sharding.topology.TableSlice` list this shard
        owns as primary.
    embeddings:
        The model's full embedding operator list (indexed by table).
    default_rows:
        Per-table frequency-prior rows (shared with the router, which
        uses them for whole-shard failover).
    emb_dim / breaker / injector / service params:
        See :class:`~repro.sharding.router.ShardConfig`.
    """

    def __init__(self, shard_id: int, slices: list, embeddings: list,
                 default_rows: list[np.ndarray], *, emb_dim: int,
                 breaker: CircuitBreaker, injector=None,
                 service_ms: float = 1.0, slow_penalty_ms: float = 50.0,
                 hang_ms: float = 200.0, rewarm_ms: float = 100.0):
        self.shard_id = shard_id
        self.slices = list(slices)
        self.embeddings = embeddings
        self.default_rows = default_rows
        self.emb_dim = emb_dim
        self.breaker = breaker
        self.injector = injector
        self.service_ms = service_ms
        self.slow_penalty_ms = slow_penalty_ms
        self.hang_ms = hang_ms
        self.rewarm_ms = rewarm_ms
        self.state = "up"
        self.hang_until = -1.0
        self.rewarm_until = -1.0
        self.impaired_since = None  # when the current outage began (sim ms)
        self._pending_penalty_ms = 0.0
        sid = str(shard_id)
        reg = get_registry()
        self._heartbeats = reg.counter("shard.heartbeats", shard=sid)
        self._dispatches = reg.counter("shard.dispatches", shard=sid)
        self._crashes = reg.counter("shard.crashes", shard=sid)
        self._hangs = reg.counter("shard.hangs", shard=sid)
        self._slows = reg.counter("shard.slows", shard=sid)
        self._net_drops = reg.counter("shard.net_drops", shard=sid)
        self._rewarmed = reg.counter("shard.rewarmed_rows", shard=sid)
        self._service_hist = reg.histogram(
            "shard.service_ms", shard=sid,
            bounds=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0),
        )
        self.ladders = {
            (sl.table, sl.row_lo): self._build_ladder(sl)
            for sl in self.slices
        }

    # ------------------------------------------------------------------ #
    # Ladder construction (per slice)
    # ------------------------------------------------------------------ #

    def _build_ladder(self, sl) -> TableLadder:
        emb = self.embeddings[sl.table]
        dim = self.emb_dim

        def rows_compute(indices, offsets, _lookup=emb.lookup, _dim=dim):
            rows = np.asarray(_lookup(indices))
            bag_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
            return pool_rows(rows, bag_of, offsets.size - 1, _dim)

        def breaker_for(rung: str) -> CircuitBreaker:
            return CircuitBreaker(
                f"s{self.shard_id}.t{sl.table}r{sl.row_lo}.{rung}",
                failure_threshold=3, window=20, cooldown=10,
                half_open_successes=2,
            )

        rungs = [Rung("rows", rows_compute, breaker_for("rows"))]
        tt = getattr(emb, "tt", None)
        if tt is not None and emb.mode == "sum":
            rungs.append(Rung("tt_direct", tt.forward,
                              breaker_for("tt_direct")))
        # Worker ladders always pool *sum* partials; the router converts
        # to the table's real mode after combining slices.
        return TableLadder(sl.table, rungs, self.default_rows[sl.table],
                           "sum", scrub=getattr(emb, "scrub", None),
                           injector=self.injector)

    # ------------------------------------------------------------------ #
    # Failure model
    # ------------------------------------------------------------------ #

    def probe_faults(self, now: float) -> None:
        """One fault-probe round (router tick): crash and hang sites."""
        if self.injector is None or self.state in ("down", "rewarming"):
            return
        if self.injector.fires("shard.crash"):
            self.kill(now, cause="fault")
            return
        if self.injector.fires("shard.hang"):
            self._hangs.inc()
            self.hang_until = now + self.hang_ms
            self.state = "hung"
            if self.impaired_since is None:
                self.impaired_since = now
            traced_event("shard.hang", shard=self.shard_id,
                         until_ms=self.hang_until)

    def kill(self, now: float, *, cause: str = "scheduled") -> None:
        """Crash the shard (fault-injected or ``--kill-shard`` scheduled).

        Operator-scheduled kills are counted separately from injector
        crashes, under ``shard.kills_scheduled{shard=}``.
        """
        if self.state == "down":
            return
        if cause == "fault":
            self._crashes.inc()
        else:
            get_registry().counter("shard.kills_scheduled",
                                   shard=str(self.shard_id)).inc()
        self.state = "down"
        if self.impaired_since is None:
            self.impaired_since = now
        traced_event("shard.crash", shard=self.shard_id, cause=cause,
                     at_ms=now)

    def restart(self, now: float) -> None:
        """Supervised restart: enter the re-warm phase (not yet serving)."""
        if self.state != "down":
            return
        self.state = "rewarming"
        self.rewarm_until = now + self.rewarm_ms
        traced_event("shard.restart", shard=self.shard_id, at_ms=now,
                     ready_ms=self.rewarm_until)

    def begin_rewarm(self, now: float) -> None:
        """Force the re-warm phase from whatever state the worker is in.

        The supervisor calls this when the health plane's verdict is
        "down" regardless of what put it there: a crashed worker is
        restarted, a worker still hung past the restart deadline is
        watchdog-killed first (a wedged process is not waited out), and
        a worker that self-healed (hang expired, or it never left "up"
        — slow dispatches, dropped heartbeats) keeps its process but
        still rejoins only through re-warm → consistency check →
        readmission.
        """
        self._tick_state(now)
        if self.state == "rewarming":
            return
        if self.state == "hung":
            self.kill(now, cause="watchdog")
        if self.state == "down":
            self.restart(now)
            return
        self.state = "rewarming"
        self.rewarm_until = now + self.rewarm_ms
        traced_event("shard.rewarm_forced", shard=self.shard_id, at_ms=now,
                     ready_ms=self.rewarm_until)

    def complete_rewarm(self, hot_ids_by_slice: dict) -> int:
        """Replay the hot-row set; returns rows re-warmed. State -> up.

        Touching the hot head through the operator's own ``forward``
        re-populates any hybrid cache (and re-materialises poisoned rows
        via its read validation) before the shard takes traffic again.
        """
        total = 0
        for sl in self.slices:
            ids = np.asarray(
                hot_ids_by_slice.get((sl.table, sl.row_lo),
                                     np.empty(0, dtype=np.int64)),
                dtype=np.int64,
            )
            ids = ids[sl.covers(ids)]
            if ids.size == 0:
                continue
            emb = self.embeddings[sl.table]
            offsets = np.arange(ids.size + 1, dtype=np.int64)
            emb.forward(ids, offsets)
            total += int(ids.size)
        self._rewarmed.inc(total)
        self.state = "up"
        self.rewarm_until = -1.0
        self.impaired_since = None
        traced_event("shard.rewarmed", shard=self.shard_id, rows=total)
        return total

    def _tick_state(self, now: float) -> None:
        if self.state == "hung" and now >= self.hang_until:
            self.state = "up"
            self.hang_until = -1.0
            self.impaired_since = None

    # ------------------------------------------------------------------ #
    # Messages
    # ------------------------------------------------------------------ #

    def heartbeat(self, now: float) -> dict | None:
        """Answer a health-plane probe; ``None`` models a lost/absent reply."""
        self._tick_state(now)
        if self.state == "down":
            return None
        if self.state == "hung":
            return None
        if self.injector is not None and self.injector.fires("shard.net_drop"):
            self._net_drops.inc()
            return None
        self._heartbeats.inc()
        return {"shard": self.shard_id, "state": self.state, "at_ms": now}

    def dispatch(self, requests: list, now: float,
                 deadline_ms: float) -> tuple[dict, float]:
        """Serve one batch of slice sub-requests.

        ``requests`` is a list of ``(slice, indices, offsets)`` with
        indices sorted by bag; returns ``({(table, row_lo): (pooled,
        rung)}, sim_service_ms)``. Raises :class:`ShardDown`,
        :class:`ShardTimeout` or :class:`NetDrop` per the failure model.
        """
        self._tick_state(now)
        if self.state in ("down", "rewarming"):
            raise ShardDown(f"shard {self.shard_id} is {self.state}")
        if self.injector is not None and self.injector.fires("shard.net_drop"):
            self._net_drops.inc()
            raise NetDrop(f"message to shard {self.shard_id} lost")
        if self.state == "hung":
            raise ShardTimeout(
                f"shard {self.shard_id} hung until {self.hang_until:.0f} ms"
            )
        sim_ms = self.service_ms
        if self.injector is not None and self.injector.fires("shard.slow"):
            self._slows.inc()
            self._pending_penalty_ms = self.slow_penalty_ms
            traced_event("shard.slow", shard=self.shard_id,
                         penalty_ms=self.slow_penalty_ms)
        if self._pending_penalty_ms:
            sim_ms += self._pending_penalty_ms
            self._pending_penalty_ms = 0.0
        if sim_ms > deadline_ms:
            raise ShardTimeout(
                f"shard {self.shard_id} needed {sim_ms:.1f} ms > "
                f"deadline {deadline_ms:.1f} ms"
            )
        out = {}
        for sl, indices, offsets in requests:
            ladder = self.ladders[(sl.table, sl.row_lo)]
            with traced_span("shard.slice", shard=str(self.shard_id),
                             slice=sl.describe()):
                pooled, rung = ladder.serve(indices, offsets)
                annotate_span(rung=rung, indices=int(indices.size))
            out[(sl.table, sl.row_lo)] = (pooled, rung)
        self._dispatches.inc()
        self._service_hist.observe(sim_ms)
        return out, sim_ms

    # ------------------------------------------------------------------ #

    def breakers(self) -> list[CircuitBreaker]:
        return [self.breaker] + [
            b for lad in self.ladders.values() for b in lad.breakers()
        ]

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.state,
            "heartbeats": self._heartbeats.value,
            "dispatches": self._dispatches.value,
            "crashes": self._crashes.value,
            "hangs": self._hangs.value,
            "slows": self._slows.value,
            "net_drops": self._net_drops.value,
            "rewarmed_rows": self._rewarmed.value,
            "service_ms": self._service_hist.summary(),
            "breaker": self.breaker.snapshot(),
            "ladders": {
                f"t{t}r{lo}": {
                    "fallbacks": lad.fallback_counts(),
                    "backend_failures": lad.backend_failures,
                }
                for (t, lo), lad in sorted(self.ladders.items())
            },
        }
