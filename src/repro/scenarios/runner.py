"""The campaign runner: attacks fired into live traffic, one report out.

:class:`CampaignRunner` executes a :class:`~repro.scenarios.spec.CampaignSpec`
and produces a deterministic :class:`CampaignReport` asserting the full
containment contract:

* every attack **lands** on its expected stable reason code (tracer
  failure counters, gateway/mesh counters, storage counters, or codes
  the injector observed directly from raised errors),
* every attack is **contained** — the provoked benign-path action is
  denied,
* every attack is **reverted** and the fleet **recovers** to pre-attack
  admission behaviour,
* every **benign twin** — the same injector with harmless parameters —
  sails through with zero hits on the attack's code, and
* in the storm arena, **benign-traffic SLOs** hold: zero failed
  requests, zero silently blocked sessions, and an all-requests p99
  within ``SloSpec.p99_factor`` of an attack-free baseline storm run
  with the same seed and axes.

In the storm arena a *director* process runs on the event kernel
alongside the session storm (and, on the rollout axis, a rolling fleet
replacement): it sleeps to each scenario's ``trigger_at``, injects,
optionally dwells with the fault live under traffic, provokes the
verdict, reverts, and checks recovery — then runs the benign twin.
Inject → provoke → revert execute without yielding, so an attack's
blast radius never leaks into sessions beyond its declared scope.

Reports are derived from sim time and deterministic counters only; two
runs with the same build, campaign, seed, and axes are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..attest import get_tracer, reset_tracer
from ..crypto import ec, sigcache
from ..fleet import FleetWorkload, HealthMonitor, UserPool
from ..fleet.drain import rolling_rollout
from ..sim import SimRng
from ..sim.kernel import sleep
from . import injectors
from .arena import LaunchWorld, PipelineWorld, StormWorld
from .spec import CampaignSpec, ScenarioSpec

#: Storm-arena traffic mix (deterministic via the workload's SimRng).
TIER_WEIGHTS = {"high": 0.3, "bulk": 0.7}
#: Sim seconds into the storm when the rollout axis starts replacing
#: (off the whole-second grid attack triggers and dwells land on, so
#: rollout events never tie with a director event at the same instant).
ROLLOUT_AT = 6.5


@dataclass
class CampaignReport:
    """Everything one campaign run asserted, JSON-serialisable."""

    campaign: str
    arena: str
    seed: int
    axes: Dict[str, object]
    scenarios: List[dict]
    slo: Optional[dict]
    codes_reached: List[str]
    counters: Dict[str, int]
    ok: bool
    violations: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "arena": self.arena,
            "seed": self.seed,
            "axes": self.axes,
            "scenarios": self.scenarios,
            "slo": self.slo,
            "codes_reached": self.codes_reached,
            "counters": self.counters,
            "ok": self.ok,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class CampaignRunner:
    """Run one campaign under the chosen matrix axes."""

    def __init__(
        self,
        build,
        campaign: CampaignSpec,
        seed: int = 0,
        sigcache_on: bool = True,
        rollout: bool = False,
        farm: bool = False,
        build_v2=None,
    ):
        if rollout and build_v2 is None:
            raise ValueError("rollout axis needs a build_v2 to roll to")
        self.build = build
        self.campaign = campaign
        self.seed = seed
        self.sigcache_on = sigcache_on
        self.rollout = rollout
        self.farm = farm
        self.build_v2 = build_v2

    # -- entry point -------------------------------------------------

    def run(self) -> CampaignReport:
        if self.campaign.arena == "storm":
            return self._run_storm_arena()
        return self._run_direct_arena()

    def axes(self) -> Dict[str, object]:
        return {
            "sigcache": "warm" if self.sigcache_on else "cold",
            "rollout": self.rollout,
            "farm": self.farm,
        }

    # -- counter snapshots & landing rules ---------------------------

    @staticmethod
    def _snapshot(world) -> dict:
        tracer = get_tracer()
        gateway = getattr(world, "gateway", None)
        return {
            "attest": dict(tracer.counters.failures_by_reason),
            "gateway": dict(gateway.counters) if gateway is not None else {},
            "storage": dict(tracer.storage.counts),
            "update": dict(tracer.update.rejections),
        }

    @staticmethod
    def _deltas(world, before: dict) -> dict:
        after = CampaignRunner._snapshot(world)
        out = {}
        for kind in ("attest", "gateway", "storage", "update"):
            out[kind] = {
                key: count - before[kind].get(key, 0)
                for key, count in after[kind].items()
                if count - before[kind].get(key, 0) > 0
            }
        return out

    @staticmethod
    def _code_hits(spec: ScenarioSpec, injection, deltas: dict) -> int:
        """How often the scenario's expected code was reached — via the
        counter channel its namespace maps to, or observed directly."""
        namespace, code = spec.expected_namespace, spec.expected_reason
        hits = 1 if code in injection.observed else 0
        if namespace == "attest":
            hits += deltas["attest"].get(code, 0)
        elif namespace in ("gateway", "mesh"):
            hits += sum(
                count for key, count in deltas["gateway"].items()
                if key == code or key.endswith("." + code)
            )
        elif namespace == "storage":
            hits += deltas["storage"].get(code, 0)
        elif namespace == "update":
            hits += deltas["update"].get(code, 0)
        return hits

    # -- one scenario (generator: may sleep on the kernel) -----------

    def _execute(self, world, spec: ScenarioSpec):
        """Attack arm, then benign twin.  Yields only for ``dwell``."""
        injection = injectors.create(
            spec.injector, world, spec.params_dict()
        )
        before = self._snapshot(world)
        injection.inject()
        if spec.dwell > 0:
            yield sleep(spec.dwell)
        allowed = injection.provoke()
        deltas = self._deltas(world, before)
        injection.revert()
        recovered = injection.recovered()
        landed = self._code_hits(spec, injection, deltas) > 0
        contained = not allowed

        benign = None
        benign_params = spec.benign_params_dict()
        if benign_params is not None:
            twin = injectors.create(spec.injector, world, benign_params)
            twin_before = self._snapshot(world)
            twin.inject()
            twin_ok = twin.provoke()
            twin_deltas = self._deltas(world, twin_before)
            twin.revert()
            twin_recovered = twin.recovered()
            benign = {
                "ok": bool(twin_ok),
                "clean": self._code_hits(spec, twin, twin_deltas) == 0,
                "recovered": bool(twin_recovered),
                "observed": sorted(twin.observed),
            }

        ok = (
            landed and contained and recovered
            and (benign is None
                 or (benign["ok"] and benign["clean"] and benign["recovered"]))
        )
        return {
            "name": spec.name,
            "title": spec.title,
            "layer": spec.layer,
            "injector": spec.injector,
            "expect": spec.expect,
            "trigger_at": spec.trigger_at,
            "dwell": spec.dwell,
            "blast_radius": spec.blast_radius,
            "landed": landed,
            "contained": contained,
            "recovered": bool(recovered),
            "observed": sorted(injection.observed),
            "benign": benign,
            "ok": ok,
        }

    @staticmethod
    def _drive(generator):
        """Run a scenario generator outside the kernel (direct arenas,
        where nothing dwells)."""
        try:
            while True:
                next(generator)
        except StopIteration as stop:
            return stop.value

    # -- storm arena -------------------------------------------------

    def _run_storm_arena(self) -> CampaignReport:
        try:
            baseline = self._storm_pass(attacks=False)
            attacked = self._storm_pass(attacks=True)
        finally:
            sigcache.set_enabled(True)
            sigcache.reset_cache()
            reset_tracer()
        campaign = self.campaign
        snapshot = attacked["snapshot"]
        failed = snapshot.get("requests_failed", 0)
        blocked = snapshot.get("requests_blocked", 0)
        p99 = snapshot["latency.all.p99"]
        baseline_p99 = baseline["snapshot"]["latency.all.p99"]
        slo = {
            "requests_failed": failed,
            "requests_blocked": blocked,
            "max_failed": campaign.slo.max_failed,
            "max_blocked": campaign.slo.max_blocked,
            "p99_ms": p99,
            "baseline_p99_ms": baseline_p99,
            "p99_factor_limit": campaign.slo.p99_factor,
            "ok": (
                failed <= campaign.slo.max_failed
                and blocked <= campaign.slo.max_blocked
                and p99 <= campaign.slo.p99_factor * baseline_p99
            ),
        }
        return self._report(attacked["results"], slo, attacked["counters"])

    def _storm_pass(self, attacks: bool) -> dict:
        campaign = self.campaign
        sigcache.reset_cache()
        ec.reset_point_cache()
        reset_tracer()
        sigcache.set_enabled(self.sigcache_on)
        world = StormWorld(self.build, campaign, self.seed, farm=self.farm)
        try:
            kernel = world.kernel
            monitor = HealthMonitor(
                world.gateway, interval=10.0, timeout=2.0, reattest_every=120.0
            )
            world.monitor = monitor

            family_goldens = {
                family: policy.golden_measurements
                for family, policy in world.fleet.family_policies().items()
            }

            def extension_setup(extension):
                extension.verifier.contexts.update(world.fleet.contexts())
                extension.register_site(
                    world.deployment.domain, family_measurements=family_goldens
                )
                if world.farm is not None:
                    extension.verifier.farm = world.farm

            expected = [self.build.expected_measurement]
            if self.rollout:
                expected.append(self.build_v2.expected_measurement)
            pool = UserPool(
                world.deployment, kernel, size=campaign.users,
                expected_measurements=expected,
                extension_setup=extension_setup,
            )
            workload = FleetWorkload(
                kernel, world.gateway, pool,
                rng=SimRng(self.seed), tier_weights=TIER_WEIGHTS,
            )
            health_process = kernel.spawn(
                monitor.process(), name="health-monitor"
            )
            storm = kernel.spawn(
                workload.open_loop(
                    sessions=campaign.sessions,
                    arrival_rate=campaign.arrival_rate,
                ),
                name="storm",
            )
            rollout_process = None
            if self.rollout:
                def delayed_rollout():
                    yield sleep(ROLLOUT_AT)
                    report = yield from rolling_rollout(
                        world.gateway, world.deployment, self.build_v2,
                        drain_poll=0.1, concurrency=4,
                    )
                    return report

                rollout_process = kernel.spawn(
                    delayed_rollout(), name="rollout"
                )
            results: List[dict] = []
            director_process = None
            if attacks:
                director_process = kernel.spawn(
                    self._director(world, results), name="director"
                )
            processes = [storm, rollout_process, director_process]
            while any(p is not None and not p.finished for p in processes):
                kernel.run(until=kernel.clock.now + 10.0)
            health_process.interrupt("storm over")
            kernel.run()
            for process in (storm, rollout_process, director_process):
                if process is not None and process.error is not None:
                    raise process.error
            return {
                "snapshot": workload.snapshot(),
                "results": results,
                "counters": world.gateway.counters_snapshot(),
            }
        finally:
            world.close()

    def _director(self, world, results: List[dict]):
        start = world.kernel.clock.now
        ordered = sorted(
            self.campaign.scenarios, key=lambda s: (s.trigger_at, s.name)
        )
        for spec in ordered:
            delay = (start + spec.trigger_at) - world.kernel.clock.now
            if delay > 0:
                yield sleep(delay)
            result = yield from self._execute(world, spec)
            results.append(result)

    # -- pipeline / launch arenas ------------------------------------

    def _run_direct_arena(self) -> CampaignReport:
        reset_tracer()
        if self.campaign.arena == "pipeline":
            world = PipelineWorld(self.seed)
        else:
            world = LaunchWorld(self.build)
        results = [
            self._drive(self._execute(world, spec))
            for spec in self.campaign.scenarios
        ]
        counters = {
            f"failures.{reason}": count
            for reason, count in sorted(
                get_tracer().counters.failures_by_reason.items()
            )
            if count
        }
        reset_tracer()
        return self._report(results, None, counters)

    # -- report assembly ---------------------------------------------

    def _report(self, results, slo, counters) -> CampaignReport:
        by_name = {result["name"]: result for result in results}
        violations = []
        for spec in self.campaign.scenarios:
            result = by_name.get(spec.name)
            if result is None:
                violations.append(f"{spec.name}: never executed")
                continue
            if not result["landed"]:
                violations.append(
                    f"{spec.name}: expected {spec.expect} not reached "
                    f"(observed: {result['observed']})"
                )
            if not result["contained"]:
                violations.append(f"{spec.name}: attack was not contained")
            if not result["recovered"]:
                violations.append(f"{spec.name}: revert did not recover")
            benign = result["benign"]
            if benign is not None:
                if not benign["ok"]:
                    violations.append(f"{spec.name}: benign twin was denied")
                if not benign["clean"]:
                    violations.append(
                        f"{spec.name}: benign twin hit {spec.expect}"
                    )
                if not benign["recovered"]:
                    violations.append(
                        f"{spec.name}: benign twin did not recover"
                    )
        if slo is not None and not slo["ok"]:
            violations.append(
                f"slo: failed={slo['requests_failed']} "
                f"blocked={slo['requests_blocked']} "
                f"p99={slo['p99_ms']} vs "
                f"{slo['p99_factor_limit']}x{slo['baseline_p99_ms']}"
            )
        codes_reached = sorted({
            spec.expect
            for spec in self.campaign.scenarios
            if by_name.get(spec.name, {}).get("landed")
        })
        ordered_results = [
            by_name[spec.name]
            for spec in self.campaign.scenarios
            if spec.name in by_name
        ]
        return CampaignReport(
            campaign=self.campaign.name,
            arena=self.campaign.arena,
            seed=self.seed,
            axes=self.axes(),
            scenarios=ordered_results,
            slo=slo,
            codes_reached=codes_reached,
            counters={key: value for key, value in sorted(counters.items())},
            ok=not violations and (slo is None or slo["ok"]),
            violations=violations,
        )
