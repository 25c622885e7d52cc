"""The CLI's one argument parser: built once, shared by every ``main`` call.

``build_parser`` is cached, so a process that calls ``main(argv)`` many
times parses every request with the same parser.  These tests check that
no request leaves state behind for the next one, and that concurrent
``parse_args`` calls on the shared parser agree with serial ones.
"""

import contextlib
import io
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import qval
from qval.cli import build_parser, main

# each flag is set in one request and left at its default in the next
REQUESTS = (
    ("--format", "json", "ball", "--qv", "vp:2", "--center", "0", "--bound", "1",
     "--closed", "2", "4", "1/2"),
    ("ball", "--qv", "vp:2", "--center", "0", "--bound", "1", "2", "4", "1/2"),
    ("axioms", "--qv", "min[vp:2|vp:3]", "--samples", "7"),
    ("axioms", "--qv", "min[vp:2|vp:3]"),
    ("eval", "--qv", "vp:2", "--bogus", "8"),  # usage error
    ("eval", "--qv", "vp:2", "8"),
)


def _request(argv):
    """(exit code, stdout) of one in-process ``main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage errors
            code = exc.code
    return code, out.getvalue()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(qval.__file__))
    probe = "import qval.cli; print(qval.cli.build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "0"


def test_no_state_carries_over_between_requests():
    forward = {argv: _request(argv) for argv in REQUESTS}
    backward = {argv: _request(argv) for argv in reversed(REQUESTS)}
    assert backward == forward
    codes = [forward[argv][0] for argv in REQUESTS]
    assert codes == [0, 0, 0, 0, 2, 0]
    assert forward[REQUESTS[0]][1].startswith("{")  # --format json
    assert forward[REQUESTS[1]][1].startswith("ball: ")  # back to the table default
    assert "[81 checks]" in forward[REQUESTS[2]][1]  # --samples 7
    assert "[54577 checks]" in forward[REQUESTS[3]][1]  # back to the default 200
    assert forward[REQUESTS[5]][1] == "w(8) = 3\n"


def _namespace(argv):
    args = vars(build_parser().parse_args(list(argv)))
    del args["handler"]
    return args


def test_concurrent_parses_match_serial_parses():
    valid = [argv for argv in REQUESTS if "--bogus" not in argv]
    batch = valid * 50
    serial = [_namespace(argv) for argv in batch]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(_namespace, batch))
    assert concurrent == serial
