"""`trued serve --socket` end to end: the scripted session replayed over
a real unix socket against the CLI in a subprocess.

At `--jobs 1` the replay must equal the golden transcript exactly (after
dropping `elapsed_ms`).  At `--jobs 2` under an injected worker crash,
every query's first pool round loses a worker and finishes in-process:
the server must keep serving, and every record must equal the golden
one (the `--strip-stats` form).  The pool workers are forked from the
asyncio server, so this is also the regression test for a terminated
worker's SIGTERM reaching the server through an inherited signal wakeup
fd, which shut the server down after its first failed round.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVICE_DIR = REPO_ROOT / "tests" / "service"
sys.path.insert(0, str(SERVICE_DIR))
from normalize import normalize_line  # noqa: E402


def golden(strip_stats):
    lines = (SERVICE_DIR / "golden_session.jsonl").read_text().splitlines()
    return [normalize_line(line, strip_stats) for line in lines]


def replay_over_socket(path, *serve_args, fault=None):
    """Start `trued serve --socket PATH`, replay `session.jsonl` on one
    connection, and return the raw response lines once the server has
    exited after the script's `shutdown`."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_FAULT_INJECT", None)
    if fault is not None:
        env["REPRO_FAULT_INJECT"] = fault
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(path),
         *serve_args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    try:
        # Announced on stderr once the socket is bound and listening.
        announce = server.stderr.readline()
        assert announce.strip() == f"serving on unix://{path}", announce
        requests = (SERVICE_DIR / "session.jsonl").read_text().splitlines()
        responses = []
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.connect(str(path))
        with client:
            reader = client.makefile("r", encoding="utf-8")
            writer = client.makefile("w", encoding="utf-8")
            for request in requests:
                writer.write(request + "\n")
                writer.flush()
                line = reader.readline()
                assert line, f"closed after {len(responses)} responses"
                responses.append(line)
        __, stderr = server.communicate(timeout=120)
        assert server.returncode == 0, stderr
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    return responses


def test_socket_replay_matches_golden(tmp_path):
    path = tmp_path / "serve.sock"
    responses = replay_over_socket(path)
    assert [normalize_line(line, False) for line in responses] == golden(False)
    assert not path.exists()  # shutdown unlinked the socket file


def test_socket_replay_survives_crashed_pool_rounds(tmp_path):
    path = tmp_path / "serve.sock"
    responses = replay_over_socket(
        path, "--jobs", "2", "--timeout", "30", fault="crash:0"
    )
    assert [normalize_line(line, True) for line in responses] == golden(True)
    # The fault really fired: the stats op saw failed pool rounds.
    stats = next(
        json.loads(line)["result"] for line in responses
        if "pool" in json.loads(line).get("result", {})
    )
    assert stats["pool"]["degraded_rounds"] >= 1
    assert stats["pool"]["jobs"] == 2
    assert not path.exists()
