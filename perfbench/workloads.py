"""The three benchmark workloads, built through the public ``repro`` APIs.

Each workload is a class with ``setup()`` (everything before the first
timed operation: image build, deployment boot, admission and gossip
settle, or volume format) and ``run()`` (the timed phase plus the
untimed output checks).  Inputs are a pure function of ``seed`` and
``seconds``: the operation count is ``seconds`` times a fixed per-
workload rate, sized so the timed phase lasts about ``seconds`` wall
seconds on a busy 2-core x86 host with Python 3.11 (about half that on
the same host when it is quiet).  ``run.py`` runs a workload in several
rounds, each a fresh world on a seed of its own, and pools them.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from collections import Counter
from time import perf_counter

from repro.build import ImageSpec, Package, PackagePin, PackageRegistry, image_builder
from repro.core import RevelioDeployment
from repro.crypto.drbg import HmacDrbg
from repro.fleet import FleetGateway, FleetWorkload, GatewayMesh, LiteFleet, MeshWorkload, UserPool
from repro.sim import EventKernel, SimRng
from repro.storage import dm_verity
from repro.storage.blockdev import RamBlockDevice
from repro.storage.dm import DmContext, DmTable, StorageMeter
from repro.storage.dm_crypt import DmCryptError, read_header
from repro.storage.dm_verity import VerityError


class Result:
    """What one timed phase produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        #: Wall seconds per operation (the host's synchronous work on it).
        self.op_wall_s = []
        #: Sim latencies (ms): of every request ("all"), of each
        #: session's first request ("first") and of the later ones ("again").
        self.sim_ms = {}
        #: Storms: sim time to drain over the arrival window.
        self.backlog_ratio = None
        #: The sorted sim report the digest is taken over.
        self.report = {}
        #: (check name, passed, detail)
        self.checks = []
        #: Figures the per-layer metrics and the info lines read.
        self.info = {}

    def check(self, name: str, passed: bool, detail="") -> None:
        self.checks.append((name, bool(passed), str(detail)))

    @property
    def digest(self) -> str:
        blob = json.dumps(self.report, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _image():
    """The boundary-node image every storm deploys (same as the fleet bench)."""
    registry = PackageRegistry()
    pins = []
    for package in (
        Package.create("nginx", "1.24.0", files={
            "/usr/sbin/nginx": b"\x7fELF-nginx" + b"n" * 2000,
            "/etc/nginx/nginx.conf": b"server { listen 443 ssl; }",
        }),
        Package.create("ic-boundary-node", "0.9.0", files={
            "/usr/lib/ic/boundary-node": b"\x7fELF-bn" + b"b" * 4000,
        }),
        Package.create("revelio-agent", "1.0.0", files={
            "/usr/bin/revelio-agent": b"\x7fELF-agent" + b"r" * 1000,
        }),
    ):
        pins.append(PackagePin(package.name, package.version, registry.publish(package)))
    return image_builder.build_revelio_image(ImageSpec(
        name="boundary-node",
        version="1.0.0",
        registry=registry,
        package_pins=pins,
        service_domain="perfbench.example",
        services=("https",),
        data_volume_blocks=16,
    ))


def quantile(values, q: float) -> float:
    """Parzen's mid-quantile of *values* at *q*.

    Each distinct value x sits at its mid-distribution point (the share
    of samples below x plus half the share equal to x); the quantile
    interpolates linearly between those points.  The sim clock prices
    requests from a fixed latency model, so its samples pile up on a few
    exact values; an order-statistic quantile would then return the same
    atom for every seed, while the mid-quantile moves with the mix of
    requests.  With all samples distinct it is the Hazen quantile.
    Values are rounded to 1e-9 so float residues do not split atoms.
    """
    counts = Counter(round(value, 9) for value in values)
    n = len(values)
    points, below = [], 0
    for value in sorted(counts):
        points.append(((below + counts[value] / 2.0) / n, value))
        below += counts[value]
    index = bisect_left(points, (q, float("-inf")))
    if index == 0:
        return points[0][1]
    if index == len(points):
        return points[-1][1]
    (u0, x0), (u1, x1) = points[index - 1], points[index]
    return x0 + (x1 - x0) * (q - u0) / (u1 - u0)


def _drive(kernel, generator, slice_s: float = 1.0) -> float:
    """Run *generator* as a kernel process to completion in sim slices;
    return the sim time at which it finished."""
    finished = []

    def process():
        yield from generator
        finished.append(kernel.clock.now)

    handle = kernel.spawn(process(), name="perfbench-load")
    while not handle.finished:
        kernel.run(until=kernel.clock.now + slice_s)
    if handle.error is not None:
        raise handle.error
    return finished[0]


def _timed_calls(owner, attr: str, sink: list) -> None:
    """Time every call of ``owner.attr`` (an instance attribute shadowing
    the class method), appending wall seconds to *sink*."""
    method = getattr(owner, attr)

    def timed(*args, **kwargs):
        started = perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            sink.append(perf_counter() - started)

    setattr(owner, attr, timed)


def _record(metrics, names):
    """Record every sim latency (ms) the workload feeds the named
    reservoirs, which themselves keep only a seeded sample."""
    recorded = {}
    for name in names:
        reservoir = metrics.reservoir(name)
        values = recorded[name] = []
        observe = reservoir.observe

        def recording(value, _values=values, _observe=observe):
            _values.append(value * 1000.0)
            _observe(value)

        reservoir.observe = recording
    return recorded


def _storm_checks(result, snapshot, gateways, sessions, completed) -> None:
    """Checks shared by both storms."""
    result.check("sessions_completed", completed == sessions,
                 f"{completed}/{sessions}")
    for key in ("requests_failed", "requests_blocked", "sessions_failed"):
        result.check(key, snapshot.get(key, 0) == 0, snapshot.get(key, 0))
    retired = unattested = 0
    for gateway in gateways:
        for backend in gateway.backends.values():
            retired += backend.requests_after_retired
            if backend.requests_forwarded and not (
                backend.verdict_ok and backend.verdict_time is not None
                and backend.active()
            ):
                unattested += backend.requests_forwarded
    result.check("requests_to_retired_backends", retired == 0, retired)
    result.check("requests_to_unattested_backends", unattested == 0, unattested)


class MeshLiteStorm:
    """Phase-D shape below the knee: 2 regions, 8 SNP nodes + 92 lite
    backends, open-loop Poisson lite sessions (hello + 2 records) at
    2500 per sim second, regional health monitors and gossip running."""

    name = "mesh_lite_storm"
    REGIONS = ("us-east", "us-west")
    REGION_RTT = 0.060
    SNP_NODES = 8
    BACKENDS = 100
    ARRIVAL_RATE = 2500.0
    #: Sessions per requested wall second (sizes the run).
    SESSIONS_PER_S = 1750
    #: Sim seconds between health sweeps.  A storm lasts its arrival
    #: window plus the longest session's two think times, which ends
    #: it 25-37 sim seconds in at the run's size; every storm then
    #: sweeps exactly once (a 15-s interval would sweep once or twice
    #: by the seed, a step of a sixth of the storm's wall time).
    HEALTH_INTERVAL = 20.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.sessions = round(self.SESSIONS_PER_S * seconds)

    def setup(self) -> None:
        seed = self.seed
        build = _image()
        deployment = RevelioDeployment(
            build, num_nodes=self.SNP_NODES, seed=b"perfbench-mesh-%d" % seed
        ).deploy()
        kernel = EventKernel(deployment.network.clock, SimRng(seed))
        deployment.network.enable_event_mode(kernel)
        deployment.latency.region_rtt[self.REGIONS] = self.REGION_RTT
        mesh = GatewayMesh.for_deployment(deployment, kernel, regions=self.REGIONS)
        lite = LiteFleet(deployment)
        families = ("sev-snp", "tdx", "arm-cca", "e-vtpm")
        for index in range(self.BACKENDS - self.SNP_NODES):
            lite.add_backend(
                f"10.8.{index // 200}.{1 + index % 200}",
                families[index % len(families)],
                region=self.REGIONS[index % len(self.REGIONS)],
            )
        lite.adopt_deployment_nodes()
        mesh.attach_lite_fleet(lite)
        verdicts = mesh.admit_all()
        if len(verdicts) != self.BACKENDS or not all(v.ok for v in verdicts):
            raise RuntimeError(
                "backend admission failed: "
                f"{[(v.ip_address, v.reason) for v in verdicts if not v.ok]}"
            )
        # Let the gossiped verdicts land on the remote shards.
        kernel.run(until=kernel.clock.now + 1.0)
        self.monitors = mesh.monitors(interval=self.HEALTH_INTERVAL, timeout=2.0,
                                      reattest_every=120.0)
        self.sweep_wall_s = []
        for monitor in self.monitors:
            _timed_calls(monitor, "probe_all", self.sweep_wall_s)
        self.background = [
            kernel.spawn(monitor.process(), name=f"health-{monitor.gateway.name}")
            for monitor in self.monitors
        ] + [kernel.spawn(mesh.gossip_process(), name="gossip")]
        workload = MeshWorkload(mesh, kernel, rng=SimRng(seed),
                                client_ip_prefix="10.3")
        workload.metrics.attach_kernel(kernel)
        self.latencies = _record(workload.metrics,
                                 ("latency.all", "latency.hello", "latency.record"))
        self.op_wall_s = []
        for index, _region in enumerate(self.REGIONS):
            client = deployment.network.host_at(f"10.3.{index}.1")
            if not client.name.startswith("mesh-client-"):
                raise RuntimeError(f"unexpected storm client {client.name}")
            _timed_calls(client, "request", self.op_wall_s)
        self.kernel, self.workload = kernel, workload
        self.gateways = [mesh.gateways[name] for name in sorted(mesh.gateways)]

    def run(self) -> Result:
        kernel, workload = self.kernel, self.workload
        result = Result()
        start_sim = kernel.clock.now
        steps_before = kernel.stats.steps
        started = perf_counter()
        end_sim = _drive(kernel, workload.open_loop(self.sessions, self.ARRIVAL_RATE))
        result.wall_s = perf_counter() - started
        result.info["storm_steps"] = kernel.stats.steps - steps_before
        for process in self.background:
            process.interrupt("storm over")
        kernel.run()

        snapshot = workload.snapshot()
        result.attempted = snapshot["requests_total"]
        result.failed = (snapshot.get("requests_failed", 0)
                         + snapshot.get("requests_blocked", 0)
                         + workload.sessions_failed)
        result.op_wall_s = self.op_wall_s
        result.sim_ms = {"all": self.latencies["latency.all"],
                         "first": self.latencies["latency.hello"],
                         "again": self.latencies["latency.record"]}
        result.backlog_ratio = (end_sim - start_sim) / (
            self.sessions / self.ARRIVAL_RATE
        )
        result.report = dict(snapshot, end_sim_s=end_sim - start_sim)
        _storm_checks(result, snapshot, self.gateways, self.sessions,
                      workload.sessions_completed)
        result.info["sessions"] = self.sessions
        result.info["health_sweeps"] = len(self.sweep_wall_s)
        result.info["health_sweep_wall_s"] = sum(self.sweep_wall_s)
        return result


class AttestedVisits:
    """A gateway in front of 8 SNP nodes serving a pool of real browsers
    with the Revelio extension; open-loop sessions at 40 per sim second,
    each one first visit (RA-TLS, well-known fetch, KDS, attestation) and
    3 revisits; signature cache on.  A session holds its browser for
    about 7 sim seconds (three 2-s think times plus the visits), so the
    pool is sized well above 40 x 7 for no arrival ever to wait on a
    browser; a check enforces that."""

    name = "attested_visits"
    NODES = 8
    USERS = 400
    ARRIVAL_RATE = 40.0
    SESSIONS_PER_S = 51

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.sessions = round(self.SESSIONS_PER_S * seconds)

    def setup(self) -> None:
        seed = self.seed
        build = _image()
        deployment = RevelioDeployment(
            build, num_nodes=self.NODES, seed=b"perfbench-visits-%d" % seed
        ).deploy()
        kernel = EventKernel(deployment.network.clock, SimRng(seed))
        deployment.network.enable_event_mode(kernel)
        gateway = FleetGateway.for_deployment(deployment, kernel=kernel)
        verdicts = gateway.admit_all()
        if not all(v.ok for v in verdicts):
            raise RuntimeError(f"admission failed: {[v.reason for v in verdicts]}")
        pool = UserPool(deployment, kernel, size=self.USERS)
        self.pool_waits = 0
        checkout = pool.checkout

        def checkout_without_waiting():
            asked = kernel.clock.now
            browser = yield from checkout()
            if kernel.clock.now > asked:
                self.pool_waits += 1
            return browser

        pool.checkout = checkout_without_waiting
        workload = FleetWorkload(kernel, gateway, pool, rng=SimRng(seed))
        workload.metrics.attach_kernel(kernel)
        self.latencies = _record(workload.metrics, ("latency.all", "latency.first_visit",
                                                    "latency.revisit"))
        self.op_wall_s = []
        for browser in pool.browsers:
            _timed_calls(browser, "navigate", self.op_wall_s)
        self.kernel, self.workload = kernel, workload
        self.gateways = [gateway]

    def run(self) -> Result:
        kernel, workload = self.kernel, self.workload
        result = Result()
        start_sim = kernel.clock.now
        steps_before = kernel.stats.steps
        started = perf_counter()
        end_sim = _drive(kernel, workload.open_loop(self.sessions, self.ARRIVAL_RATE))
        result.wall_s = perf_counter() - started
        result.info["storm_steps"] = kernel.stats.steps - steps_before
        kernel.run()

        snapshot = workload.snapshot()
        result.attempted = snapshot["requests_total"]
        result.failed = (snapshot.get("requests_failed", 0)
                         + snapshot.get("requests_blocked", 0))
        result.op_wall_s = self.op_wall_s
        result.sim_ms = {"all": self.latencies["latency.all"],
                         "first": self.latencies["latency.first_visit"],
                         "again": self.latencies["latency.revisit"]}
        result.backlog_ratio = (end_sim - start_sim) / (
            self.sessions / self.ARRIVAL_RATE
        )
        result.report = dict(snapshot, end_sim_s=end_sim - start_sim)
        _storm_checks(result, snapshot, self.gateways, self.sessions,
                      workload.sessions_completed)
        result.check("arrivals_never_waited_for_a_browser", self.pool_waits == 0,
                     f"{self.pool_waits} waits")
        result.check(
            "visits_per_session",
            snapshot["latency.first_visit.count"] == self.sessions
            and snapshot["latency.revisit.count"] == 3 * self.sessions,
            (snapshot["latency.first_visit.count"], snapshot["latency.revisit.count"]),
        )
        return result


class SealedStorageIo:
    """A dm-verity rootfs (working set larger than its verified-page
    cache) and a LUKS dm-crypt data volume, both opened through
    ``DmTable``; one synchronous caller issues seeded 1-, 4- and 16-block
    reads of both volumes and writes to the data volume (closed loop)."""

    name = "sealed_storage_io"
    BLOCK = 4096
    ROOTFS_BLOCKS = 8192      # 32 MiB
    PAGE_CACHE_BLOCKS = 1024  # verity verified-page cache: 4 MiB
    DATA_BLOCKS = 2048        # 8 MiB of LUKS payload
    LUKS_HEADER_BLOCKS = 2    # in front of the payload on the raw device
    DATA_CACHE_BLOCKS = 512   # block cache under dm-crypt (ciphertext)
    HOT_BLOCKS = 512          # HOT_SHARE of requests start in this region
    HOT_SHARE = 0.6
    #: operation -> (request sizes in blocks, their weights)
    SIZES = {"read": ((1, 4, 16), (0.5, 0.4, 0.1)), "write": ((1, 4), (0.6, 0.4))}
    #: (volume, operation, share of requests)
    MIX = (("rootfs", "read", 0.35), ("data", "read", 0.35), ("data", "write", 0.3))
    REQUESTS_PER_S = 240

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.requests = round(self.REQUESTS_PER_S * seconds)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        meter = StorageMeter()
        rootfs_payload = rng.randbytes(self.ROOTFS_BLOCKS * self.BLOCK)
        rootfs_disk = RamBlockDevice(self.ROOTFS_BLOCKS, self.BLOCK,
                                     initial=rootfs_payload)
        fmt = dm_verity.verity_format(rootfs_disk, salt=b"perfbench-%d" % self.seed)
        rootfs = DmTable.parse(
            "rootfs",
            "linear device=rootfs ; verity hash=device:hash root=cmdline:rh "
            f"cache_blocks={self.PAGE_CACHE_BLOCKS}",
        ).open(DmContext(
            devices={"rootfs": rootfs_disk, "hash": fmt.hash_device},
            cmdline_args={"rh": fmt.root_hash.hex()},
            meter=meter,
        ))
        data_disk = RamBlockDevice(self.DATA_BLOCKS + self.LUKS_HEADER_BLOCKS, self.BLOCK)
        data_table = DmTable.parse(
            "data",
            f"linear device=data ; cache blocks={self.DATA_CACHE_BLOCKS} ; "
            "crypt key=sealing-key format=auto",
        )
        context = DmContext(
            devices={"data": data_disk},
            keys={"sealing-key": HmacDrbg(b"perfbench-key-%d" % self.seed).generate(64)},
            rng=HmacDrbg(b"perfbench-luks-%d" % self.seed),
            meter=meter,
        )
        data = data_table.open(context)
        data_payload = rng.randbytes(self.DATA_BLOCKS * self.BLOCK)
        data.write_blocks(0, data_payload)
        self.volumes = {"rootfs": rootfs, "data": data}
        self.shadow = {"rootfs": bytearray(rootfs_payload),
                       "data": bytearray(data_payload)}
        self.disks = {"rootfs": rootfs_disk, "data": data_disk}
        self.data_table, self.data_context = data_table, context
        self.meter = meter
        self.rng = rng

    def _requests(self):
        rng = self.rng
        kinds = [(volume, op) for volume, op, _ in self.MIX]
        weights = [share for _, _, share in self.MIX]
        for index in range(self.requests):
            volume, op = rng.choices(kinds, weights)[0]
            count = rng.choices(*self.SIZES[op])[0]
            blocks = self.ROOTFS_BLOCKS if volume == "rootfs" else self.DATA_BLOCKS
            span = self.HOT_BLOCKS if rng.random() < self.HOT_SHARE else blocks
            first = rng.randrange(span - count + 1)
            yield index, volume, op, first, count

    def run(self) -> Result:
        result = Result()
        block = self.BLOCK
        meter, shadow, volumes = self.meter, self.shadow, self.volumes
        touched = {"rootfs": set(), "data": set()}
        sim_first, sim_again, sim_all = [], [], []
        mismatches = integrity_errors = 0
        meter_before = meter.sim_seconds
        started = perf_counter()
        for index, volume_name, op, first, count in self._requests():
            volume = volumes[volume_name]
            lo, hi = first * block, (first + count) * block
            if op == "write":
                payload = hashlib.sha256(b"%d:%d" % (self.seed, index)).digest() * (
                    count * block // 32
                )
            sim_before = meter.sim_seconds
            op_started = perf_counter()
            try:
                if op == "write":
                    volume.write_blocks(first, payload)
                else:
                    data = volume.read_blocks(first, count)
            except (VerityError, DmCryptError):
                integrity_errors += 1
                continue
            finally:
                result.op_wall_s.append(perf_counter() - op_started)
            cost = (meter.sim_seconds - sim_before) * 1000.0
            if op == "write":
                shadow[volume_name][lo:hi] = payload
            elif data != shadow[volume_name][lo:hi]:
                mismatches += 1
            seen = touched[volume_name]
            blocks = range(first, first + count)
            (sim_again if all(b in seen for b in blocks) else sim_first).append(cost)
            seen.update(blocks)
            sim_all.append(cost)
        result.wall_s = perf_counter() - started
        result.info["meter_sim_s"] = meter.sim_seconds - meter_before

        result.attempted = self.requests
        result.failed = mismatches + integrity_errors
        result.check("read_back_matches_shadow", mismatches == 0, mismatches)
        result.check("no_integrity_errors_on_honest_data", integrity_errors == 0,
                     integrity_errors)
        result.sim_ms = {"all": sim_all, "first": sim_first, "again": sim_again}
        result.report = {
            "requests": self.requests,
            "meter_sim_s": meter.sim_seconds,
            "sim_ms": sim_all,
            "stats": {name: volume.stats() for name, volume in volumes.items()},
        }
        self._tamper_probes(result)
        return result

    def _tamper_probes(self, result: Result) -> None:
        """Untimed: one bit flip under verity and one under crypt."""
        rng = random.Random(self.seed ^ 0x5EED)
        block = self.BLOCK
        # verity: the read of the flipped block must raise.
        index = rng.randrange(self.ROOTFS_BLOCKS)
        self.disks["rootfs"].corrupt(index * block + rng.randrange(block),
                                     1 << rng.randrange(8))
        try:
            self.volumes["rootfs"].read_block(index)
            rejected = False
        except VerityError:
            rejected = True
        result.check("verity_bit_flip_rejected", rejected, f"block {index}")
        # crypt: dm-crypt carries no integrity tag, so a ciphertext flip
        # decrypts to a garbled 16-byte XTS block; the read-back check
        # against the shadow copy is what must reject it.
        index = rng.randrange(self.DATA_BLOCKS)
        raw_block = index + self.LUKS_HEADER_BLOCKS
        self.disks["data"].corrupt(raw_block * block + rng.randrange(block),
                                   1 << rng.randrange(8))
        data = self.volumes["data"].read_block(index)
        expected = bytes(self.shadow["data"][index * block:(index + 1) * block])
        differing = sum(1 for a, b in zip(data, expected) if a != b)
        result.check("crypt_bit_flip_rejected_by_read_back", data != expected,
                     f"block {index}: {differing} bytes differ")
        # ... and a flip in the LUKS key digest must fail the re-open.
        digest = read_header(self.disks["data"]).key_digest
        raw = self.disks["data"].read_block(0)
        self.disks["data"].corrupt(raw.index(digest), 0x01)
        try:
            self.data_table.open(self.data_context)
            rejected = False
        except DmCryptError:
            rejected = True
        result.check("luks_header_bit_flip_rejected", rejected, "key digest")


WORKLOADS = {cls.name: cls for cls in (MeshLiteStorm, AttestedVisits, SealedStorageIo)}
