"""Loopback HTTP stand-in for the four model endpoints.

Answers every request from the in-process mock providers
(`build_mock_providers(seed, truth)`) after a fixed service delay. The
delay is charged per request, not per item, which is the cost model of
a remote endpoint whose round trip dominates. Each response leaves in a
single write on a TCP_NODELAY socket: writing headers and body
separately stalls every request on Nagle's algorithm plus the client's
delayed ACK (about 40 ms each).

Usage:
    python3 bench/stub.py --truth CORPUS/mock_truth.json --seed N --delay-ms D

The first line on stdout is the bound port. `GET /stats` returns, per
role, the requests served and the request and response body bytes. The
stub exits when its stdin closes, so it never outlives the benchmark.
"""

import argparse
import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from viewfuse.model import PointCloud, Viewpoint
from viewfuse.providers import GenerationConfig
from viewfuse.providers.mock import build_mock_providers

ROLES = tuple(json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))["roles"])


class Stub:
    """Mock answers plus per-role counters shared by handler threads."""

    def __init__(self, providers, delay_s: float):
        self.providers = providers
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.counts = {
            role: {"requests": 0, "errors": 0, "request_bytes": 0, "response_bytes": 0}
            for role in ROLES
        }

    def answer(self, role: str, body: dict) -> dict:
        p = self.providers
        if role == "generate":
            cands = p.generator.generate_candidates(
                Viewpoint(body["view"]),
                body["image"],
                GenerationConfig(temperature=body["temperature"], num_candidates=body["n"]),
            )
            return {
                "choices": [
                    {"text": c.text, "logprobs": list(c.token_logprobs)} for c in cands
                ]
            }
        if role == "embed_text":
            vec = p.text_embedder.embed_text(body["text"])
        elif role == "embed_image":
            vec = p.image_embedder.embed_image(body["image"])
        else:
            vec = p.cloud_embedder.embed_cloud(PointCloud(body["cloud"]))
        return {"data": [{"embedding": list(vec.values)}]}

    def count(self, role: str, request_bytes: int, response_bytes: int, error: bool) -> None:
        with self.lock:
            c = self.counts[role]
            c["requests"] += 1
            c["errors"] += int(error)
            c["request_bytes"] += request_bytes
            c["response_bytes"] += response_bytes

    def stats(self) -> dict:
        with self.lock:
            return {role: dict(c) for role, c in self.counts.items()}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        stub: Stub = self.server.stub
        role = self.path.strip("/")
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if role not in ROLES:
            self._send(404, b'{"error": "unknown role"}')
            return
        time.sleep(stub.delay_s)
        try:
            body = json.dumps(stub.answer(role, json.loads(raw))).encode("utf-8")
            status = 200
        except Exception as e:  # the stub must keep serving; the client sees a 500
            body = json.dumps({"error": f"{type(e).__name__}: {e}"}).encode("utf-8")
            status = 500
        stub.count(role, len(raw), len(body), status != 200)
        self._send(status, body)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, b'{"error": "not found"}')
            return
        self._send(200, json.dumps(self.server.stub.stats()).encode("utf-8"))

    def _send(self, status: int, body: bytes) -> None:
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def log_message(self, format, *args):
        pass


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--truth", required=True, help="the corpus's mock_truth.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--delay-ms", type=float, required=True)
    args = ap.parse_args()

    with open(args.truth, encoding="utf-8") as f:
        truth = json.load(f)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.stub = Stub(build_mock_providers(seed=args.seed, truth=truth), args.delay_ms / 1000.0)
    print(server.server_address[1], flush=True)

    def exit_on_stdin_eof():
        sys.stdin.read()
        os._exit(0)

    threading.Thread(target=exit_on_stdin_eof, daemon=True).start()
    server.serve_forever()


if __name__ == "__main__":
    main()
