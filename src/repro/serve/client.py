"""The thin wire client of a running ``repro serve`` service.

One request-reply exchange per connection over an ``AF_UNIX`` socket
(:mod:`multiprocessing.connection`, so payloads are plain picklable
dicts and the ``authkey`` HMAC handshake guards the socket)::

    client = ServiceClient("/tmp/repro.sock")
    client.ping()
    reply = client.run_source(open("jacobi.hpf").read(),
                              backend="spmd", mode="thread", opt=2)
    print(reply["reports"], reply["plan_store"]["hit_rate"])

``repro submit`` is this class behind an argparse face.
"""

from __future__ import annotations

__all__ = ["ServiceClient"]


class ServiceClient:
    """Connect-per-request client for :func:`~repro.serve.serve_forever`."""

    def __init__(self, address: str,
                 authkey: bytes = b"repro-serve") -> None:
        self.address = address
        self.authkey = authkey

    def request(self, payload: dict) -> dict:
        """One exchange: connect, send ``payload``, return the reply."""
        from multiprocessing.connection import Client

        conn = Client(self.address, family="AF_UNIX",
                      authkey=self.authkey)
        try:
            conn.send(payload)
            return conn.recv()
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # The protocol ops
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> dict:
        """Service counters, pool activity and plan-store stats."""
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> bool:
        return bool(self.request({"op": "shutdown"}).get("ok"))

    def run_source(self, source: str, *, processors: int = 4,
                   backend: str = "simulate", workers: int | None = None,
                   mode: str = "auto", opt: int = 0,
                   defines: dict | None = None,
                   timeout: float | None = None) -> dict:
        """Submit a directive program for execution on the service.

        The reply carries per-statement report summaries, machine
        totals, and the plan-store delta this request caused
        (``request_hits`` > 0 means the program rode on plans some
        earlier tenant compiled).
        """
        reply = self.request({
            "op": "run", "source": source, "processors": processors,
            "backend": backend, "workers": workers, "mode": mode,
            "opt": opt, "defines": defines or {}, "timeout": timeout,
        })
        if not reply.get("ok"):
            raise RuntimeError(f"service error: {reply.get('error')}")
        return reply
