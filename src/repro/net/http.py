"""HTTP over the simulated network, plain or TLS.

The server side models nginx + CGI handlers (what a Revelio VM runs,
section 5.3): routes are registered per (method, path) with an optional
server-side processing time that is charged to the simulated clock.
The client side models a browser's network stack: URL parsing, DNS
resolution, connection pooling, and — crucially for the web extension —
exposure of the underlying TLS connection's certificate and public key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..crypto import encoding
from ..crypto.drbg import HmacDrbg
from ..crypto.keys import PrivateKey, PublicKey
from ..crypto.x509 import Certificate
from .simnet import Host, Network, RequestContext
from .tls import TlsConnection, TlsServer, tls_connect

HTTPS_PORT = 443
HTTP_PORT = 80


class HttpError(ValueError):
    """Malformed HTTP messages or URLs."""


def _decode_fields(data: bytes, kind: str, fields: Dict[str, type]) -> dict:
    """Decode a TLV message that must be a dict holding every one of
    *fields* with exactly its type, and string-valued headers."""
    try:
        decoded = encoding.decode(data)
    except ValueError as exc:
        raise HttpError(f"malformed HTTP {kind}") from exc
    if (
        not isinstance(decoded, dict)
        or any(type(decoded.get(name)) is not kind_ for name, kind_ in fields.items())
        or not all(isinstance(value, str) for value in decoded["headers"].values())
    ):
        raise HttpError(f"malformed HTTP {kind}")
    return decoded


@dataclass
class HttpRequest:
    """An HTTP request message."""
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode(
            {
                "method": self.method,
                "path": self.path,
                "headers": dict(self.headers),
                "body": self.body,
            }
        )

    @classmethod
    def decode(cls, data: bytes) -> "HttpRequest":
        """Parse an instance back out of canonical TLV bytes."""
        decoded = _decode_fields(
            data, "request", {"method": str, "path": str, "headers": dict, "body": bytes}
        )
        return cls(
            method=decoded["method"],
            path=decoded["path"],
            headers=dict(decoded["headers"]),
            body=decoded["body"],
        )


@dataclass
class HttpResponse:
    """An HTTP response message."""
    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        """Serialise to canonical TLV bytes."""
        return encoding.encode(
            {"status": self.status, "headers": dict(self.headers), "body": self.body}
        )

    @classmethod
    def decode(cls, data: bytes) -> "HttpResponse":
        """Parse an instance back out of canonical TLV bytes."""
        decoded = _decode_fields(
            data, "response", {"status": int, "headers": dict, "body": bytes}
        )
        return cls(
            status=decoded["status"],
            headers=dict(decoded["headers"]),
            body=decoded["body"],
        )

    @classmethod
    def ok(cls, body: bytes, content_type: str = "text/html") -> "HttpResponse":
        """A 200 response."""
        return cls(status=200, headers={"content-type": content_type}, body=body)

    @classmethod
    def not_found(cls) -> "HttpResponse":
        """A 404 response."""
        return cls(status=404, body=b"not found")

    @classmethod
    def forbidden(cls, reason: str = "") -> "HttpResponse":
        """A 403 response."""
        return cls(status=403, body=reason.encode("utf-8"))

    @classmethod
    def error(cls, reason: str = "") -> "HttpResponse":
        """A 500 response."""
        return cls(status=500, body=reason.encode("utf-8"))


RouteHandler = Callable[[HttpRequest, RequestContext], HttpResponse]


class HttpServer:
    """A route-dispatching web server (the nginx + FastCGI analogue)."""

    def __init__(self, server_name: str = "server"):
        self.server_name = server_name
        self._routes: Dict[Tuple[str, str], Tuple[RouteHandler, float]] = {}
        self.tls: Optional[TlsServer] = None

    def add_route(
        self,
        method: str,
        path: str,
        handler: RouteHandler,
        processing_time: float = 0.0,
    ) -> None:
        """Register *handler* for exact (method, path), charging
        *processing_time* virtual seconds per request served."""
        self._routes[(method.upper(), path)] = (handler, processing_time)

    def app(self, payload: bytes, context: RequestContext) -> bytes:
        """Application entry point (plug into TLS or a plain port)."""
        request = HttpRequest.decode(payload)
        entry = self._routes.get((request.method.upper(), request.path))
        if entry is None:
            return HttpResponse.not_found().encode()
        handler, processing_time = entry
        if processing_time:
            context.add_processing_time(processing_time)
        return handler(request, context).encode()

    def serve_plain(self, host: Host, port: int = HTTP_PORT) -> None:
        """Bind this server to a plain-HTTP port."""
        host.listen(port, self.app)

    def serve_tls(
        self,
        host: Host,
        certificate_chain: Sequence[Certificate],
        private_key: PrivateKey,
        rng: HmacDrbg,
        port: int = HTTPS_PORT,
    ) -> TlsServer:
        """Terminate TLS on *port* with the given identity."""
        self.tls = TlsServer(certificate_chain, private_key, self.app, rng)
        host.listen(port, self.tls.handle)
        return self.tls


@dataclass(frozen=True)
class ParsedUrl:
    """The components of a parsed URL."""
    scheme: str
    hostname: str
    port: int
    path: str


def parse_url(url: str) -> ParsedUrl:
    """Parse ``scheme://host[:port]/path`` URLs."""
    scheme, separator, rest = url.partition("://")
    if not separator or scheme not in ("http", "https"):
        raise HttpError(f"unsupported URL {url!r}")
    host_port, slash, path = rest.partition("/")
    hostname, colon, port_text = host_port.partition(":")
    if not hostname:
        raise HttpError(f"URL has no host: {url!r}")
    if colon:
        try:
            port = int(port_text)
        except ValueError:
            raise HttpError(f"bad port in URL {url!r}") from None
    else:
        port = HTTPS_PORT if scheme == "https" else HTTP_PORT
    return ParsedUrl(scheme=scheme, hostname=hostname, port=port, path="/" + path)


@dataclass
class ConnectionInfo:
    """What the browser knows about the transport a response came over."""

    scheme: str
    destination_ip: str
    peer_certificate: Optional[Certificate] = None
    session_id: Optional[bytes] = None

    @property
    def peer_public_key(self) -> Optional[PublicKey]:
        """The certified public key of the peer."""
        if self.peer_certificate is None:
            return None
        return self.peer_certificate.public_key


class HttpClient:
    """A pooled HTTP(S) client bound to one source host."""

    def __init__(
        self,
        host: Host,
        trust_anchors: Sequence[Certificate],
        rng: HmacDrbg,
    ):
        self._host = host
        self._network: Network = host.network
        self.trust_anchors = list(trust_anchors)
        self._rng = rng
        self._pool: Dict[Tuple[str, str, int], TlsConnection] = {}
        #: Cleartext fields merged into every client hello (e.g. the
        #: session ``tier`` tag an attestation-aware gateway routes on).
        self.hello_metadata: Dict[str, object] = {}

    def request(
        self,
        method: str,
        url: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[HttpResponse, ConnectionInfo]:
        """Issue a request; returns the response and transport info."""
        parsed = parse_url(url)
        ip_address = self._network.resolve(parsed.hostname)
        request = HttpRequest(
            method=method,
            path=parsed.path,
            headers={"host": parsed.hostname, **(headers or {})},
            body=body,
        )
        if parsed.scheme == "http":
            raw = self._host.request(ip_address, parsed.port, request.encode())
            return HttpResponse.decode(raw), ConnectionInfo("http", ip_address)

        connection = self._connection_for(parsed, ip_address)
        try:
            raw = connection.request(request.encode())
        except ConnectionError:
            # The server may have restarted (new certificate!): establish
            # a fresh session once and retry — this re-keying is exactly
            # the event the web extension must notice.
            self._pool.pop((parsed.scheme, parsed.hostname, parsed.port), None)
            connection = self._connection_for(parsed, ip_address)
            raw = connection.request(request.encode())
        info = ConnectionInfo(
            scheme="https",
            destination_ip=ip_address,
            peer_certificate=connection.peer_certificate,
            session_id=connection.session_id,
        )
        return HttpResponse.decode(raw), info

    def get(self, url: str, headers: Optional[Dict[str, str]] = None):
        """HTTP GET."""
        return self.request("GET", url, headers=headers)

    def post(self, url: str, body: bytes, headers: Optional[Dict[str, str]] = None):
        """HTTP POST."""
        return self.request("POST", url, body=body, headers=headers)

    def _connection_for(self, parsed: ParsedUrl, ip_address: str) -> TlsConnection:
        key = (parsed.scheme, parsed.hostname, parsed.port)
        connection = self._pool.get(key)
        if connection is not None and not connection.closed:
            return connection
        connection = tls_connect(
            self._host,
            ip_address,
            parsed.port,
            parsed.hostname,
            self.trust_anchors,
            self._rng,
            now=self._network.clock.epoch_seconds(),
            hello_metadata=self.hello_metadata or None,
        )
        self._pool[key] = connection
        return connection

    def current_connection(self, hostname: str) -> Optional[TlsConnection]:
        """The live pooled connection to *hostname*, if any — the
        browser's TLS-context query surface."""
        for (scheme, host, _), connection in self._pool.items():
            if scheme == "https" and host == hostname and not connection.closed:
                return connection
        return None

    def close_all(self) -> None:
        """Close every pooled connection."""
        for connection in self._pool.values():
            connection.close()
        self._pool.clear()
