"""Shared JSON-lines framing for the two serve loops.

Two subsystems speak newline-delimited JSON over a stream: the
single-client query service (:mod:`repro.incremental.service`) and the
multi-client asyncio server (:mod:`repro.serve.server`).  The framing
rules are identical in both and live here so they can only be fixed in
one place:

* **One request object per ``\\n``-terminated line, one response object
  per line.**  Lines are UTF-8, capped at :data:`MAX_LINE_BYTES`
  (inline netlists ride inside requests, so the cap is generous).
* **A final unterminated line is still a request.**  ``readline()``
  returns the buffered partial line at EOF, and
  :func:`iter_request_lines` yields it, so a piped script that forgot
  its last ``\\n`` still gets an answer.
* **Unix socket endpoints probe before they bind.**
  :func:`prepare_unix_socket_path` distinguishes a stale socket file
  (crashed predecessor — unlinked and rebound) from a live listener
  (refused, never stolen).

The wire protocol *on top of* this framing is documented in
``docs/INCREMENTAL.md``.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Iterator

#: JSON-lines framing limit — one request per ``\n``-terminated line,
#: inline netlists included, so the per-line cap is generous.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed or unserviceable request / endpoint state.

    Reported to the peer (or the caller), never fatal to the process;
    the query service raises it for a bad request.
    """


# ----------------------------------------------------------------------
# Line iteration (stream -> requests)
# ----------------------------------------------------------------------
def iter_request_lines(reader) -> Iterator[str]:
    """Yield request lines from ``reader``, including a final line that
    arrives without a trailing newline at EOF.

    ``readline()`` is used instead of raw chunked reads so an interactive
    stdio session still gets a response per line; on stream close the
    buffered partial line is returned by ``readline`` itself, so the last
    request of a piped script that forgot its trailing ``\\n`` is
    serviced rather than dropped.  Plain iterables (scripted tests hand
    in line lists) pass through unchanged.
    """
    readline = getattr(reader, "readline", None)
    if readline is None:
        yield from reader
        return
    while True:
        line = readline()
        if line == "":
            return
        yield line


def send_json_line(writer, payload: dict) -> None:
    """Write one response/request object as a sorted-key JSON line and
    flush, so the peer's ``readline`` returns exactly one message."""
    writer.write(json.dumps(payload, sort_keys=True) + "\n")
    writer.flush()


# ----------------------------------------------------------------------
# Unix socket lifecycle (probe before bind)
# ----------------------------------------------------------------------
def prepare_unix_socket_path(path: str) -> None:
    """Make ``path`` bindable, distinguishing stale from live sockets.

    A server that crashed mid-request (SIGKILL, OOM) leaves its socket
    file behind, and a plain ``bind`` on the next start fails with
    ``EADDRINUSE`` — the unix-domain equivalent of missing
    ``SO_REUSEADDR``.  Blindly unlinking is worse: it silently
    disconnects a *live* server from its clients.  So: connect-probe
    first.  If something accepts (or the connection is merely backlogged,
    ``EAGAIN``), the address is genuinely in use and we refuse; if the
    probe is refused or times out, the file is a corpse and is unlinked.
    """
    if not os.path.exists(path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, socket.timeout, FileNotFoundError):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    except OSError as error:
        raise ProtocolError(
            f"socket {path!r} looks live but is not connectable "
            f"({error}); remove it manually if it is stale"
        )
    else:
        raise ProtocolError(
            f"socket {path!r} already has a listening server; "
            "refusing to unlink it"
        )
    finally:
        probe.close()
