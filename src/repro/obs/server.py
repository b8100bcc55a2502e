"""Stdlib-only HTTP endpoint for live telemetry.

A :class:`ThreadingHTTPServer` exposing the process-wide ``OBS``
singleton:

* ``GET /metrics``       — Prometheus/OpenMetrics text exposition of the
  metrics registry (what a Prometheus scrape job points at), labelled
  series and histogram exemplars included;
* ``GET /healthz``       — liveness JSON (uptime, instrumentation state,
  metric/record counts).  Deliberately unconditional: it says "the
  process is up", nothing more;
* ``GET /readyz``        — deep readiness: runs the registered health
  probes (canary query against the loaded index, worker-pool state) and
  answers 200 only when every component is ready, 503 otherwise, with
  the per-component report as JSON (see :mod:`repro.obs.health`);
* ``GET /debug/queries`` — the flight recorder as JSON: recent query
  records plus the pinned slow list.  ``?trace_id=<id>`` narrows the
  response to the records carrying that correlation id — the resolution
  step for a ``/metrics`` exemplar annotation;
* ``GET /debug/metrics`` — the raw registry ``to_dict`` JSON (schema
  v2, labelled series nested under their family) — what
  ``repro-cli stats --by ... --url ...`` consumes.

Start it with :func:`start_server` (daemon thread, ephemeral port
supported for tests), via ``repro-cli serve-metrics``, or by setting
``REPRO_METRICS_PORT`` before any CLI command — the CLI then serves
telemetry for the duration of the run.

The server holds no state of its own: every request renders the
singleton at that instant, so it composes with any workload the process
is running.  Nothing outside the Python standard library is used.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .export import (
    OPENMETRICS_CONTENT_TYPE,
    refresh_process_gauges,
    render_openmetrics,
)

#: Default port for `repro-cli serve-metrics` (0 = ephemeral).
DEFAULT_PORT = 9109


class _ObsRequestHandler(BaseHTTPRequestHandler):
    """Routes the telemetry endpoints over the OBS singleton."""

    server_version = "repro-obs/1"

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        # A scraper may drop the connection mid-response (timeout,
        # restart); that is its problem, not a handler-thread traceback.
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        from . import OBS

        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/metrics":
            refresh_process_gauges(OBS.metrics)
            self._respond(
                200, OPENMETRICS_CONTENT_TYPE, render_openmetrics(OBS.metrics.to_dict())
            )
        elif path == "/healthz":
            body = {
                "status": "ok",
                "enabled": OBS.enabled,
                "uptime_s": round(time.time() - self.server.started_at, 3),
                "n_metrics": len(OBS.metrics),
                "n_query_records": OBS.recorder.total_recorded,
            }
            self._respond(200, "application/json", json.dumps(body) + "\n")
        elif path == "/debug/queries":
            query = parse_qs(parsed.query)
            trace_ids = query.get("trace_id")
            if trace_ids:
                body = {
                    "trace_id": trace_ids[0],
                    "records": OBS.recorder.find_trace(trace_ids[0]),
                }
            else:
                body = OBS.recorder.to_dict()
            self._respond(200, "application/json", json.dumps(body) + "\n")
        elif path == "/readyz":
            from .health import READINESS

            report = READINESS.check()
            self._respond(
                200 if report["ready"] else 503,
                "application/json", json.dumps(report) + "\n",
            )
        elif path == "/debug/metrics":
            refresh_process_gauges(OBS.metrics)
            self._respond(
                200, "application/json", json.dumps(OBS.metrics.to_dict()) + "\n"
            )
        else:
            self._respond(
                404,
                "application/json",
                json.dumps({"error": "not found",
                            "endpoints": ["/metrics", "/healthz", "/readyz",
                                          "/debug/queries", "/debug/metrics"]}) + "\n",
            )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (scrapes are periodic)."""


class MetricsServer:
    """A running telemetry endpoint (wraps :class:`ThreadingHTTPServer`).

    >>> server = start_server(port=0)     # ephemeral port
    >>> server.url.startswith("http://")
    True
    >>> server.stop()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self._httpd = ThreadingHTTPServer((host, port), _ObsRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.started_at = time.time()
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — the port is resolved even when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MetricsServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Shut the server down and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def start_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> MetricsServer:
    """Bind and start a :class:`MetricsServer` on a daemon thread."""
    return MetricsServer(host, port).start()
