"""The elastic worker fleet: registration, heartbeats, work stealing.

The only way a job's chunks run on other hosts.  Workers announce
themselves to a coordinator (``POST /v1/workers``), heartbeat with
their current load, and *pull* chunks from a shared lease-based
queue — so a heterogeneous fleet load-balances itself (work
stealing), a late joiner immediately picks up pending chunks, and a
dead or hung worker's lease expires back into the queue instead of
stranding the sweep.

Three pieces:

* :class:`~repro.fleet.manager.FleetManager` — coordinator-side
  policy over the durable :class:`~repro.jobs.store.JobStore` (fleet
  state persists next to the jobs it serves, so a kill -9'd
  coordinator restarts with workers and leases intact and re-adopts
  live workers from their next heartbeat);
* :class:`~repro.fleet.agent.FleetAgent` — the worker-side loop
  ``repro serve --join URL`` embeds (register, heartbeat, lease,
  execute, complete, repeat);
* :class:`~repro.fleet.executor.FleetExecutor` — the coordinator's
  executor: it marks the job running and watches the store while the
  fleet drains the queue, then merges exactly as the single-process
  path would — merged reports are bit-identical for any join/leave/
  kill interleaving.
"""

from repro.fleet.agent import FleetAgent
from repro.fleet.executor import FleetExecutor
from repro.fleet.manager import FleetManager, worker_id_for

__all__ = [
    "FleetAgent",
    "FleetExecutor",
    "FleetManager",
    "worker_id_for",
]
