"""Closed-loop autoscaler: detect → propose → verify → commit.

The reconciliation cycle the paper's §III-A scaling advice implies but
never automates. Every cycle:

* the :class:`Detector` reads the latest utilization snapshot, the
  windowed p99 interaction latencies (per class, from the
  :class:`~repro.cloud.metrics.LatencyRecorder`) and the hub's
  admission-deferral log, and emits typed :class:`Signal`\\ s;
* the :class:`Proposer` turns an unhealthy :class:`Diagnosis` into a
  typed :class:`Plan` — scale-up (provision workers), scale-down (drain
  + deprovision an elastic worker) or pod rebalance (spread tenants off
  hot nodes, because the scheduler's best-fit packing deliberately keeps
  packing dense);
* the :class:`Verifier` replays the detector's predicates against the
  proposed plan on a *forked* copy of cluster state — capacity
  invariants, predicted post-plan utilization, and the eviction rule
  (never migrate a tenant whose recent latency is already above the
  SLO: a restart pause would push them further over) — before anything
  touches the real cluster;
* only an approved plan is committed, under a scale-action cooldown.

Every cycle is recorded as a :class:`ReconcileRecord` so tests (and
operators) can audit exactly why capacity changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cluster import Cluster, Node, NodeRole
from .jupyterhub import JupyterHub
from .metrics import LatencyRecorder, snapshot
from .objects import Pod
from .resources import Resources
from .scheduler import Unschedulable

__all__ = [
    "SLOConfig",
    "Signal",
    "Diagnosis",
    "Detector",
    "AddWorkers",
    "RemoveWorker",
    "RebalancePods",
    "Plan",
    "Proposer",
    "ClusterFork",
    "Verdict",
    "Verifier",
    "ReconcileRecord",
    "Autoscaler",
]

#: Signal kinds that mean "the cluster needs more (or better-spread) capacity".
_OVERLOAD_KINDS = frozenset(
    {"slo-breach", "saturation", "pending-backlog", "deferrals", "node-down"}
)


@dataclass(frozen=True)
class SLOConfig:
    """The SLO and thresholds the whole loop reasons about."""

    #: p99 interaction-latency target (ms), per interaction class.
    p99_target_ms: float = 400.0
    #: Sliding window the detector evaluates latency percentiles over (s).
    window_s: float = 45.0
    #: Worst-node CPU allocation fraction that counts as saturated.
    saturation_high: float = 0.85
    #: Mean CPU allocation fraction below which capacity is wasteful.
    saturation_low: float = 0.25
    #: Elastic bounds: never drain below / provision above these counts.
    min_workers: int = 2
    max_workers: int = 24
    #: Minimum time between committed scale actions (s).
    cooldown_s: float = 20.0


@dataclass(frozen=True)
class Signal:
    """One typed detector finding."""

    kind: str
    message: str
    value: float = 0.0


@dataclass(frozen=True)
class Diagnosis:
    """Everything the detector concluded at one point in time."""

    time: float
    signals: tuple[Signal, ...]

    def kinds(self) -> set[str]:
        return {s.kind for s in self.signals}

    @property
    def overloaded(self) -> bool:
        return bool(self.kinds() & _OVERLOAD_KINDS)

    @property
    def underloaded(self) -> bool:
        return "underutilized" in self.kinds() and not self.overloaded

    @property
    def healthy(self) -> bool:
        return not self.signals


class Detector:
    """Reads metrics + SLO state and emits typed signals."""

    def __init__(self, slo: SLOConfig):
        self.slo = slo

    def diagnose(
        self,
        cluster: Cluster,
        recorder: LatencyRecorder,
        hub: JupyterHub | None = None,
        *,
        now: float,
        provisioning: frozenset[str] | set[str] = frozenset(),
    ) -> Diagnosis:
        """One full read of the cluster; pure — mutates nothing."""
        slo = self.slo
        since = now - slo.window_s
        signals: list[Signal] = []

        for klass in recorder.classes():
            p99 = recorder.percentile(99, klass, since=since)
            if p99 is not None and p99 > slo.p99_target_ms:
                signals.append(
                    Signal(
                        "slo-breach",
                        f"{klass} p99 {p99:.0f}ms > target "
                        f"{slo.p99_target_ms:.0f}ms over the last "
                        f"{slo.window_s:.0f}s",
                        p99,
                    )
                )

        metrics = snapshot(cluster)
        ready_workers = [n for n in metrics.workers() if n.ready]
        worst = max((n.cpu_fraction for n in ready_workers), default=0.0)
        if worst > slo.saturation_high:
            signals.append(
                Signal(
                    "saturation",
                    f"worst worker CPU allocation {worst:.2f} > "
                    f"{slo.saturation_high:.2f}",
                    worst,
                )
            )
        if metrics.pods_pending > 0:
            unplaced = sum(
                1
                for ns in cluster.namespaces.values()
                for pod in ns.pods.values()
                if pod.node is None and not pod.running
            )
            if unplaced:
                signals.append(
                    Signal(
                        "pending-backlog",
                        f"{unplaced} pod(s) pending with nowhere to go",
                        float(unplaced),
                    )
                )
        if hub is not None:
            waiting = hub.waiting_users(since)
            if waiting:
                signals.append(
                    Signal(
                        "deferrals",
                        f"{len(waiting)} deferred login(s) still waiting "
                        f"for a pod ({hub.deferrals_since(since)} deferrals "
                        f"in the last {slo.window_s:.0f}s)",
                        float(len(waiting)),
                    )
                )
        for node in metrics.workers():
            if not node.ready and node.name not in provisioning:
                signals.append(
                    Signal("node-down", f"worker {node.name} is not ready")
                )

        if ready_workers and not (set(s.kind for s in signals) & _OVERLOAD_KINDS):
            mean = sum(n.cpu_fraction for n in ready_workers) / len(ready_workers)
            if (
                mean < slo.saturation_low
                and len(ready_workers) > slo.min_workers
            ):
                signals.append(
                    Signal(
                        "underutilized",
                        f"mean worker CPU allocation {mean:.2f} < "
                        f"{slo.saturation_low:.2f} across "
                        f"{len(ready_workers)} workers",
                        mean,
                    )
                )
        return Diagnosis(time=now, signals=tuple(signals))


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddWorkers:
    """Provision ``count`` elastic workers of the given shape."""

    count: int
    resources: Resources


@dataclass(frozen=True)
class RemoveWorker:
    """Drain one elastic worker (committing ``moves`` first), then remove.

    ``moves`` are (namespace, pod name, target node) triples from the
    scheduler's drain plan.
    """

    name: str
    moves: tuple[tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class RebalancePods:
    """Migrate pods between nodes: (namespace, pod, from, to) each."""

    moves: tuple[tuple[str, str, str, str], ...]


@dataclass(frozen=True)
class Plan:
    """One proposed reconciliation step."""

    actions: tuple[AddWorkers | RemoveWorker | RebalancePods, ...]
    reason: str


class Proposer:
    """Turns a diagnosis into a typed plan (never touches the cluster)."""

    #: Cap on migrations per cycle: each move restarts a tenant's pod, so
    #: rebalancing is rationed rather than allowed to thrash.
    max_moves_per_cycle = 6

    def __init__(self, slo: SLOConfig, *, instance_request: Resources):
        self.slo = slo
        self.instance_request = instance_request

    # -- scale-up sizing ------------------------------------------------
    def _pods_per_node(self, resources: Resources) -> int:
        by_cpu = resources.cpu_milli // max(1, self.instance_request.cpu_milli)
        by_mem = resources.memory_mib // max(1, self.instance_request.memory_mib)
        return max(1, min(by_cpu, by_mem))

    def propose(
        self,
        diagnosis: Diagnosis,
        cluster: Cluster,
        recorder: LatencyRecorder,
        *,
        node_resources: Resources,
        provisioning: frozenset[str] | set[str] = frozenset(),
    ) -> Plan | None:
        """The fix for an unhealthy diagnosis, or ``None`` when there is
        nothing sound to do (e.g. already at ``max_workers``)."""
        if diagnosis.healthy:
            return None
        if diagnosis.overloaded:
            return self._propose_relief(
                diagnosis, cluster, recorder, node_resources, provisioning
            )
        if diagnosis.underloaded:
            return self._propose_scale_down(cluster)
        return None

    def _propose_relief(
        self,
        diagnosis: Diagnosis,
        cluster: Cluster,
        recorder: LatencyRecorder,
        node_resources: Resources,
        provisioning: frozenset[str] | set[str],
    ) -> Plan | None:
        actions: list[AddWorkers | RemoveWorker | RebalancePods] = []
        reasons: list[str] = []
        ready = [n for n in cluster.workers() if n.ready]

        # Demand in pods: the pending backlog plus recently deferred
        # logins are sessions that *wanted* a pod and found none.
        demand_pods = 0.0
        for signal in diagnosis.signals:
            if signal.kind in ("pending-backlog", "deferrals"):
                demand_pods += signal.value
        per_node = self._pods_per_node(node_resources)
        needed = math.ceil(demand_pods / per_node) if demand_pods else 0
        if not needed and (
            diagnosis.kinds() & {"slo-breach", "saturation", "node-down"}
        ):
            needed = 1  # contention relief: one node of spread headroom
        needed -= len(provisioning)  # capacity already on its way
        headroom = self.slo.max_workers - len(ready) - len(provisioning)
        count = max(0, min(needed, headroom))
        if count > 0:
            actions.append(AddWorkers(count=count, resources=node_resources))
            reasons.append(f"provision {count} worker(s)")

        moves = self._rebalance_moves(cluster, recorder, diagnosis.time)
        if moves:
            actions.append(RebalancePods(moves=tuple(moves)))
            reasons.append(f"rebalance {len(moves)} pod(s) off hot nodes")

        if not actions:
            return None
        return Plan(tuple(actions), reason="; ".join(reasons))

    def _rebalance_moves(
        self, cluster: Cluster, recorder: LatencyRecorder, now: float
    ) -> list[tuple[str, str, str, str]]:
        """Spread pods hottest→coldest until counts even out (capped).

        Only tenants whose recent latency is still under the SLO target
        are picked — migrating an already-breaching tenant adds a restart
        pause on top (the verifier enforces the same rule; proposing
        compliant moves keeps plans from bouncing).
        """
        ready = [n for n in cluster.workers() if n.ready]
        if len(ready) < 2:
            return []
        pods_by_node = {
            n.name: cluster.scheduler.pods_on(n.name) for n in ready
        }
        free = {n.name: n.free for n in ready}
        counts = {name: len(pods) for name, pods in pods_by_node.items()}
        since = now - self.slo.window_s
        moves: list[tuple[str, str, str, str]] = []
        movable: dict[str, list[Pod]] = {
            name: [p for p in pods if self._safe_to_move(p, recorder, since)]
            for name, pods in pods_by_node.items()
        }
        while len(moves) < self.max_moves_per_cycle:
            hot = max(counts, key=lambda n: (counts[n], n))
            cold = min(counts, key=lambda n: (counts[n], n))
            if counts[hot] - counts[cold] < 2:
                break  # balanced enough: a move would just swap roles
            candidates = [
                p for p in movable[hot] if p.requests.fits_in(free[cold])
            ]
            if not candidates:
                break
            pod = candidates[0]
            movable[hot].remove(pod)
            counts[hot] -= 1
            counts[cold] += 1
            free[cold] = free[cold] - pod.requests
            free[hot] = free[hot] + pod.requests
            moves.append((pod.namespace, pod.name, hot, cold))
        return moves

    def _safe_to_move(
        self, pod: Pod, recorder: LatencyRecorder, since: float
    ) -> bool:
        user = pod.labels.get("user")
        if user is None:
            return False  # only migrate user session pods, never the hub
        p99 = recorder.percentile(99, since=since, session=user)
        return p99 is None or p99 < self.slo.p99_target_ms

    def _propose_scale_down(self, cluster: Cluster) -> Plan | None:
        ready = [n for n in cluster.workers() if n.ready]
        if len(ready) <= self.slo.min_workers:
            return None
        # Only elastic (autoscaler-provisioned) nodes are candidates, the
        # emptiest first so the drain is cheapest.
        elastic = sorted(
            (n for n in ready if n.name.startswith("worker-auto-")),
            key=lambda n: (len(cluster.scheduler.pods_on(n.name)), n.name),
        )
        # Empty elastic nodes need no drain at all — deprovision them all
        # in one plan (bounded by min_workers) instead of one per cycle,
        # so the post-spike cluster collapses promptly.
        empties = [
            n for n in elastic if not cluster.scheduler.pods_on(n.name)
        ]
        removable = min(len(empties), len(ready) - self.slo.min_workers)
        if removable > 0:
            victims = empties[:removable]
            return Plan(
                tuple(RemoveWorker(name=n.name) for n in victims),
                reason=(
                    f"deprovision {len(victims)} empty elastic worker(s)"
                ),
            )
        for node in elastic:
            try:
                drain = cluster.scheduler.drain_plan(node.name)
            except Unschedulable:
                continue  # residents don't fit elsewhere; try the next
            moves = tuple(
                (pod.namespace, pod.name, target) for pod, target in drain
            )
            return Plan(
                (RemoveWorker(name=node.name, moves=moves),),
                reason=(
                    f"drain {len(moves)} pod(s) and deprovision {node.name}"
                ),
            )
        return None


# ----------------------------------------------------------------------
# verification on forked state
# ----------------------------------------------------------------------
class ClusterFork:
    """A capacity-only copy of cluster state plans are replayed against."""

    def __init__(
        self,
        nodes: dict[str, tuple[Resources, Resources, bool]],
        pods: dict[tuple[str, str], tuple[str | None, Resources]],
    ):
        self.nodes = nodes  # name → (capacity, allocated, ready)
        self.pods = pods  # (ns, pod) → (node, requests)

    @classmethod
    def of(cls, cluster: Cluster) -> "ClusterFork":
        nodes = {
            n.name: (n.capacity, n.allocated, n.ready)
            for n in cluster.workers()
        }
        pods = {
            (ns.name, pod.name): (pod.node, pod.requests)
            for ns in cluster.namespaces.values()
            for pod in ns.pods.values()
            if pod.node in nodes
        }
        return cls(nodes, pods)

    # -- plan replay ----------------------------------------------------
    def apply(self, plan: Plan) -> list[str]:
        """Replay every action; returns violations (empty = clean)."""
        violations: list[str] = []
        auto_idx = 0
        for action in plan.actions:
            if isinstance(action, AddWorkers):
                for _ in range(action.count):
                    name = f"fork-new-{auto_idx}"
                    auto_idx += 1
                    self.nodes[name] = (
                        action.resources,
                        Resources(0, 0),
                        True,
                    )
            elif isinstance(action, RebalancePods):
                for ns, pod, src, dst in action.moves:
                    violations += self._move((ns, pod), src, dst)
            elif isinstance(action, RemoveWorker):
                for ns, pod, dst in action.moves:
                    node = self.pods.get((ns, pod), (None, None))[0]
                    violations += self._move((ns, pod), node, dst)
                resident = [
                    key for key, (node, _) in self.pods.items()
                    if node == action.name
                ]
                if resident:
                    violations.append(
                        f"removing {action.name} would orphan "
                        f"{len(resident)} pod(s)"
                    )
                else:
                    self.nodes.pop(action.name, None)
        return violations

    def _move(
        self, key: tuple[str, str], src: str | None, dst: str
    ) -> list[str]:
        if key not in self.pods:
            return [f"pod {key[0]}/{key[1]} not found on fork"]
        actual, requests = self.pods[key]
        if actual != src:
            return [f"pod {key[0]}/{key[1]} is on {actual}, plan says {src}"]
        if dst not in self.nodes:
            return [f"move target {dst} does not exist"]
        cap, alloc, ready = self.nodes[dst]
        if not ready:
            return [f"move target {dst} is not ready"]
        if not requests.fits_in(cap - alloc):
            return [f"move target {dst} cannot fit {key[0]}/{key[1]}"]
        self.nodes[dst] = (cap, alloc + requests, ready)
        if actual in self.nodes:
            scap, salloc, sready = self.nodes[actual]
            self.nodes[actual] = (scap, salloc - requests, sready)
        self.pods[key] = (dst, requests)
        return []

    # -- predicted metrics ---------------------------------------------
    def worst_cpu_fraction(self) -> float:
        worst = 0.0
        for cap, alloc, ready in self.nodes.values():
            if ready and cap.cpu_milli:
                worst = max(worst, alloc.cpu_milli / cap.cpu_milli)
        return worst

    def ready_workers(self) -> int:
        return sum(1 for _, _, ready in self.nodes.values() if ready)


@dataclass(frozen=True)
class Verdict:
    """The verifier's decision on one plan."""

    approved: bool
    reasons: tuple[str, ...] = ()
    predicted_worst_fraction: float | None = None


class Verifier:
    """Replays the detector's predicates against the plan before commit."""

    def __init__(self, slo: SLOConfig):
        self.slo = slo

    def verify(
        self,
        plan: Plan,
        cluster: Cluster,
        recorder: LatencyRecorder,
        *,
        now: float,
    ) -> Verdict:
        reasons: list[str] = []
        since = now - self.slo.window_s

        # Rule 1 — never evict a tenant that is already above the SLO:
        # a migration restarts their pod, adding a pause on top of
        # latencies that are already over target.
        for ns_name, pod_name, user in self._moved_users(plan, cluster):
            if user is None:
                reasons.append(
                    f"plan moves non-session pod {ns_name}/{pod_name}"
                )
                continue
            p99 = recorder.percentile(99, since=since, session=user)
            if p99 is not None and p99 >= self.slo.p99_target_ms:
                reasons.append(
                    f"would evict session {user!r} whose p99 "
                    f"{p99:.0f}ms is already at/above the "
                    f"{self.slo.p99_target_ms:.0f}ms SLO"
                )

        # Rule 2 — replay on forked state: capacity invariants must hold.
        fork = ClusterFork.of(cluster)
        reasons += fork.apply(plan)
        predicted = fork.worst_cpu_fraction()

        # Rule 3 — the post-plan cluster must not trip the detector's own
        # saturation predicate (a scale-down that re-saturates is vetoed)
        # and must respect the elastic bounds.
        if any(isinstance(a, RemoveWorker) for a in plan.actions):
            if predicted > self.slo.saturation_high:
                reasons.append(
                    f"predicted worst utilization {predicted:.2f} would "
                    f"re-trip saturation ({self.slo.saturation_high:.2f})"
                )
            if fork.ready_workers() < self.slo.min_workers:
                reasons.append(
                    f"scale-down would leave {fork.ready_workers()} < "
                    f"min_workers={self.slo.min_workers}"
                )
        adds = sum(
            a.count for a in plan.actions if isinstance(a, AddWorkers)
        )
        if adds and fork.ready_workers() > self.slo.max_workers:
            reasons.append(
                f"plan exceeds max_workers={self.slo.max_workers}"
            )

        return Verdict(
            approved=not reasons,
            reasons=tuple(reasons),
            predicted_worst_fraction=predicted,
        )

    @staticmethod
    def _moved_users(plan: Plan, cluster: Cluster):
        for action in plan.actions:
            moves = ()
            if isinstance(action, RebalancePods):
                moves = [(ns, pod) for ns, pod, _, _ in action.moves]
            elif isinstance(action, RemoveWorker):
                moves = [(ns, pod) for ns, pod, _ in action.moves]
            for ns_name, pod_name in moves:
                ns = cluster.namespaces.get(ns_name)
                pod = ns.pods.get(pod_name) if ns else None
                yield ns_name, pod_name, (
                    pod.labels.get("user") if pod else None
                )


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReconcileRecord:
    """Audit trail of one reconciliation cycle."""

    time: float
    diagnosis: Diagnosis
    plan: Plan | None
    verdict: Verdict | None
    committed: bool
    notes: tuple[str, ...] = ()


class Autoscaler:
    """The detect→propose→verify→commit loop bound to one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        hub: JupyterHub | None,
        recorder: LatencyRecorder,
        *,
        slo: SLOConfig | None = None,
        node_resources: Resources | None = None,
        node_startup_s: float = 15.0,
        detector: Detector | None = None,
        proposer: Proposer | None = None,
        verifier: Verifier | None = None,
    ):
        self.cluster = cluster
        self.hub = hub
        self.recorder = recorder
        self.slo = slo or SLOConfig()
        if node_resources is None:
            workers = cluster.workers()
            node_resources = (
                workers[0].capacity if workers else Resources.cores(16, 32)
            )
        self.node_resources = node_resources
        self.node_startup_s = float(node_startup_s)
        instance_request = (
            hub.config.instance_request if hub is not None
            else Resources.cores(2, 4)
        )
        self.detector = detector or Detector(self.slo)
        self.proposer = proposer or Proposer(
            self.slo, instance_request=instance_request
        )
        self.verifier = verifier or Verifier(self.slo)
        self.history: list[ReconcileRecord] = []
        self.provisioning: set[str] = set()
        self._auto_idx = 0
        self._last_scale_t = -math.inf

    # ------------------------------------------------------------------
    def reconcile(self) -> ReconcileRecord:
        """Run one detect→propose→verify→commit cycle."""
        now = self.cluster.clock.now
        self.provisioning = {
            name
            for name in self.provisioning
            if name in self.cluster.nodes
            and not self.cluster.nodes[name].ready
        }
        diagnosis = self.detector.diagnose(
            self.cluster,
            self.recorder,
            self.hub,
            now=now,
            provisioning=self.provisioning,
        )
        record = ReconcileRecord(now, diagnosis, None, None, committed=False)
        if diagnosis.healthy:
            self.history.append(record)
            return record

        plan = self.proposer.propose(
            diagnosis,
            self.cluster,
            self.recorder,
            node_resources=self.node_resources,
            provisioning=self.provisioning,
        )
        if plan is None:
            self.history.append(record)
            return record

        if self._scales(plan) and now - self._last_scale_t < self.slo.cooldown_s:
            record = ReconcileRecord(
                now, diagnosis, plan, None, committed=False,
                notes=("scale action suppressed by cooldown",),
            )
            self.history.append(record)
            return record

        verdict = self.verifier.verify(
            plan, self.cluster, self.recorder, now=now
        )
        if not verdict.approved:
            record = ReconcileRecord(
                now, diagnosis, plan, verdict, committed=False
            )
            self.history.append(record)
            return record

        notes = self._commit(plan)
        if self._scales(plan):
            self._last_scale_t = now
        record = ReconcileRecord(
            now, diagnosis, plan, verdict, committed=True, notes=tuple(notes)
        )
        self.history.append(record)
        return record

    @staticmethod
    def _scales(plan: Plan) -> bool:
        return any(
            isinstance(a, (AddWorkers, RemoveWorker)) for a in plan.actions
        )

    # ------------------------------------------------------------------
    def _commit(self, plan: Plan) -> list[str]:
        notes: list[str] = []
        for action in plan.actions:
            if isinstance(action, AddWorkers):
                for _ in range(action.count):
                    name = f"worker-auto-{self._auto_idx}"
                    self._auto_idx += 1
                    self.cluster.add_node(
                        Node(name, NodeRole.WORKER, action.resources),
                        startup_seconds=self.node_startup_s,
                    )
                    self.provisioning.add(name)
                    notes.append(f"provisioning {name}")
            elif isinstance(action, RebalancePods):
                for ns, pod_name, src, dst in action.moves:
                    notes += self._commit_move(ns, pod_name, src, dst)
            elif isinstance(action, RemoveWorker):
                for ns, pod_name, dst in action.moves:
                    notes += self._commit_move(ns, pod_name, None, dst)
                try:
                    self.cluster.remove_node(action.name)
                    notes.append(f"deprovisioned {action.name}")
                except RuntimeError as exc:
                    # Reality drifted between verify and commit (a pod
                    # landed meanwhile): leave the node, report it.
                    notes.append(f"remove {action.name} aborted: {exc}")
        return notes

    def _commit_move(
        self, ns_name: str, pod_name: str, src: str | None, dst: str
    ) -> list[str]:
        ns = self.cluster.namespaces.get(ns_name)
        pod = ns.pods.get(pod_name) if ns else None
        if pod is None or (src is not None and pod.node != src):
            return [f"move of {ns_name}/{pod_name} skipped (state drifted)"]
        try:
            self.cluster.scheduler.move_pod(pod, dst)
        except Unschedulable as outcome:
            return [f"move of {ns_name}/{pod_name} refused: {outcome.reason}"]
        return [f"moved {ns_name}/{pod_name} to {dst}"]

    # -- convenience for tests/monitoring -------------------------------
    def ready_workers(self) -> int:
        return sum(1 for n in self.cluster.workers() if n.ready)

    def committed_records(self) -> list[ReconcileRecord]:
        return [r for r in self.history if r.committed]
