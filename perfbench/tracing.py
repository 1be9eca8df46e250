"""Layer tracing for the traced benchmark run.

The tracer measures each layer from outside: it wraps public functions
of the ``repro`` packages where their callers look them up at call time
(on the class, or on the module attribute the callers use), records a
span around every wrapped call, and restores the originals when it
stops.  Nothing under ``src/`` is modified.

A span has a name, a start, an end and a parent (the span open when it
started).  Spans are folded into per-name totals as they close, instead
of being stored, so memory stays bounded on storms with millions of
calls: a span's *self time* is its duration minus the time covered by
its wrapped children, and the root span's self time is the wall time no
named layer covers (``trace.unattributed_ms``).  By construction the
self times of all names plus the root's sum to the traced wall time.

A span whose parent has the same name is folded into the parent (it is
a recursive call, e.g. ``encoding.encode`` on a nested value), so call
counts count outermost calls only.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

#: Package -> layer.  A span's name starts with the layer of the package
#: that defines the wrapped function; :func:`install` enforces it.
LAYER_MAP = {
    # The KDS client is the verifier's handle on AMD's key server; its
    # fetches are attestation cost, whatever package hosts it.
    "repro.core.kds_client": "attest",
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.crypto": "crypto",
    "repro.attest": "attest",
    "repro.core": "core",
    "repro.build": "build",
    "repro.fleet": "fleet",
    "repro.storage": "storage",
}


def layer_of(module_name: str) -> str:
    """The layer of a ``repro`` module: its own :data:`LAYER_MAP` entry,
    else its package's."""
    if module_name in LAYER_MAP:
        return LAYER_MAP[module_name]
    return LAYER_MAP[".".join(module_name.split(".")[:2])]


class Tracer:
    """Span aggregation plus plain counters for one traced region."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        # Open spans, innermost last: [name, wall covered by children].
        # Empty while stopped, so installed wrappers pass calls through.
        self._stack = []
        self._root_start = None
        self.wall_s = 0.0
        self._restore = []

    # -- the root span ---------------------------------------------

    def start(self) -> None:
        self._stack.append(["trace.root", 0.0])
        self._root_start = perf_counter()

    def stop(self) -> None:
        self.wall_s = perf_counter() - self._root_start
        self.unattributed_s = self.wall_s - self._stack[0][1]
        self._stack.clear()

    # -- wrappers ---------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap *fn* in a span; ``after(args, result)`` may add counts."""
        frames = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def wrapper(*args, **kwargs):
            if not frames or frames[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            frames.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                frames.pop()
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                calls[name] += 1
                frames[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name, fn, before=None, after=None):
        """Wrap *fn* with counting only (its time stays with the caller).
        ``before(args)`` returns a token handed to ``after(token, args,
        result)``."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            calls[name] += 1
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    # -- installing -------------------------------------------------

    def patch(self, module_name: str, owner_name, attr: str, name: str,
              make) -> None:
        """Replace ``owner.attr`` (a class in *module_name*, or the module
        itself when *owner_name* is None) by ``make(original)``."""
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        raw = vars(owner)[attr]
        defining = owner.__module__ if owner_name else raw.__module__
        layer = name.split(".")[0]
        if layer_of(defining) != layer:
            raise ValueError(
                f"span {name!r} wraps {defining}.{attr}, which is in layer "
                f"{layer_of(defining)!r}"
            )
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []


def install(tracer: Tracer) -> None:
    """Wrap every traced function (see the table in the body)."""
    from repro.fleet.gateway import FleetGateway

    span, count, add = tracer.span, tracer.count, tracer.add

    def spans(name, targets, after=None):
        for module_name, owner_name, attr in targets:
            tracer.patch(module_name, owner_name, attr, name,
                         lambda fn: span(name, fn, after))

    def counted(name, targets, before=None, after=None):
        for module_name, owner_name, attr in targets:
            tracer.patch(module_name, owner_name, attr, name,
                         lambda fn: count(name, fn, before, after))

    def add_len(counter, position=None):
        def after(args, result):
            add(counter, len(result if position is None else args[position]))
        return after

    # sim
    spans("sim.kernel", [("repro.sim.kernel", "EventKernel", "run")])
    spans("sim.metrics", [("repro.sim.metrics", "LatencyReservoir", "observe")])

    # net
    spans("net.simnet", [("repro.net.simnet", "Network", "exchange")])
    counted("net.latency", [("repro.net.simnet", "Network", "measure")])
    spans("net.firewall", [("repro.net.firewall", "Firewall", "check_inbound")])
    spans("net.tls", [
        ("repro.net.tls", "TlsConnection", "request"),
        ("repro.net.tls", "TlsServer", "handle"),
    ])
    # tls_connect is imported by name into each calling module.
    for caller in ("repro.net.http", "repro.fleet.gateway", "repro.fleet.health",
                   "repro.core.ra_tls"):
        tracer.patch(caller, None, "tls_connect", "net.tls",
                     lambda fn: span("net.tls", fn,
                                     lambda args, result: add("net.tls.handshakes", 1)))
    spans("net.http", [
        ("repro.net.http", "HttpClient", "request"),
        ("repro.net.http", "HttpRequest", "encode"),
        ("repro.net.http", "HttpRequest", "decode"),
        ("repro.net.http", "HttpResponse", "encode"),
        ("repro.net.http", "HttpResponse", "decode"),
    ])

    # crypto
    spans("crypto.encoding", [("repro.crypto.encoding", None, "encode")],
          add_len("crypto.encoding.bytes"))
    spans("crypto.encoding", [("repro.crypto.encoding", None, "decode")],
          add_len("crypto.encoding.bytes", 0))
    spans("crypto.aead", [("repro.crypto.modes", "AeadCipher", "seal")],
          add_len("crypto.aead.bytes", 2))
    spans("crypto.aead", [("repro.crypto.modes", "AeadCipher", "open")],
          add_len("crypto.aead.bytes", 2))
    spans("crypto.ecdh", [("repro.crypto.ecdsa", "EcdsaPrivateKey", "ecdh")])
    spans("crypto.ecdsa.verify", [("repro.crypto.ecdsa", "EcdsaPublicKey", "verify_rs")])
    spans("crypto.ecdsa.sign", [("repro.crypto.ecdsa", "EcdsaPrivateKey", "sign")])
    spans("crypto.x509", [
        ("repro.crypto.x509", "Certificate", "decode"),
        ("repro.crypto.x509", "Certificate", "verify_signature"),
    ])
    for caller in ("repro.net.tls", "repro.amd.verify", "repro.attest.families"):
        tracer.patch(caller, None, "validate_chain", "crypto.x509",
                     lambda fn: span("crypto.x509", fn))
    spans("crypto.xts", [
        ("repro.crypto.modes", "XtsCipher", "encrypt"),
        ("repro.crypto.modes", "XtsCipher", "decrypt"),
    ], add_len("crypto.xts.bytes", 1))

    def aes_blocks(token, args, result):
        add("crypto.aes.blocks", len(args[1]) // 16)

    counted("crypto.aes", [
        ("repro.crypto.aes", "AES", "encrypt_blocks"),
        ("repro.crypto.aes", "AES", "decrypt_blocks"),
    ], after=aes_blocks)

    # attest
    def verify_sim(args, outcome):
        add("attest.verify.sim_s", sum(step.sim_cost for step in outcome.steps))

    spans("attest.verify", [("repro.attest.engine", "AttestationVerifier", "verify")],
          verify_sim)

    def kds_before(args):
        client = args[0]
        return client.fetches, client.clock.now

    def kds_after(token, args, result):
        client = args[0]
        add("attest.kds.fetches", client.fetches - token[0])
        add("attest.kds.sim_s", client.clock.now - token[1])

    counted("attest.kds", [("repro.core.kds_client", "KdsClient", "get_vcek")],
            kds_before, kds_after)

    # core + build
    spans("core.browser", [("repro.core.browser", "Browser", "navigate")])
    spans("core.deployment", [("repro.core.deployment", "RevelioDeployment", "deploy")])
    spans("build.image", [("repro.build.image_builder", None, "build_revelio_image")])

    # fleet
    def gateway_handler(fn):
        def handler_for(host, port):
            handler = fn(host, port)
            if isinstance(getattr(handler, "__self__", None), FleetGateway):
                return span("fleet.gateway", handler)
            return handler
        return handler_for

    tracer.patch("repro.net.simnet", "Host", "handler_for", "net.simnet",
                 gateway_handler)
    counted("fleet.gateway.admittable", [("repro.fleet.gateway", "BackendState",
                                          "admittable")])
    spans("fleet.health", [("repro.fleet.health", "HealthMonitor", "probe_all")])
    spans("fleet.admit", [
        ("repro.fleet.gateway", "FleetGateway", "admit_all"),
        ("repro.fleet.mesh", "GatewayMesh", "admit_all"),
    ])

    # storage
    spans("storage.verity", [("repro.storage.dm", "CachedVerityDevice", "read_block")])
    spans("storage.crypt", [
        ("repro.storage.dm", "CryptTarget", "read_block"),
        ("repro.storage.dm", "CryptTarget", "write_block"),
        ("repro.storage.dm", "CryptTarget", "read_blocks"),
        ("repro.storage.dm", "CryptTarget", "write_blocks"),
    ])
    spans("storage.format", [
        ("repro.storage.dm", None, "luks_format"),
        ("repro.storage.dm_verity", None, "verity_format"),
        ("repro.build.image_builder", None, "verity_format"),
    ])
