"""The shared JSON-lines framing layer (`repro.serve.framing`).

Both serve loops sit on this one module — the query service and the
multi-client server — so these tests pin the contracts they inherit:
line iteration with the EOF final-line rule, one sorted JSON object per
response line, and the unix-socket probe that removes a stale socket
file but refuses to take over a live one.
"""

import io
import os
import socket

import pytest

from repro.serve.framing import (
    ProtocolError,
    iter_request_lines,
    prepare_unix_socket_path,
    send_json_line,
)


# ----------------------------------------------------------------------
# iter_request_lines
# ----------------------------------------------------------------------
def test_final_unterminated_line_is_still_a_request():
    reader = io.StringIO('{"op": "a"}\n{"op": "b"}')
    assert list(iter_request_lines(reader)) == [
        '{"op": "a"}\n',
        '{"op": "b"}',
    ]


def test_plain_iterables_pass_through():
    lines = ['{"op": "a"}\n', '{"op": "b"}\n']
    assert list(iter_request_lines(iter(lines))) == lines


# ----------------------------------------------------------------------
# send_json_line
# ----------------------------------------------------------------------
def test_round_trip_is_one_sorted_line():
    out = io.StringIO()
    send_json_line(out, {"b": 2, "a": 1})
    assert out.getvalue() == '{"a": 1, "b": 2}\n'


# ----------------------------------------------------------------------
# Unix socket lifecycle (probe / refuse)
# ----------------------------------------------------------------------
def test_stale_socket_file_is_unlinked(tmp_path):
    path = str(tmp_path / "stale.sock")
    corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    corpse.bind(path)
    corpse.close()  # bound but never listening -> probe is refused
    prepare_unix_socket_path(path)
    assert not os.path.exists(path)


def test_live_listener_refuses_takeover(tmp_path):
    path = str(tmp_path / "live.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as server:
        server.bind(path)
        server.listen(1)
        with pytest.raises(ProtocolError, match="listening"):
            prepare_unix_socket_path(path)
        assert os.path.exists(path)  # the live server keeps its socket
