"""Fuzz of the command-line contract, in process over all five subcommands.

Bad input gets exit 2 and one error line; exit 1 means a red check and only
``validate`` may report one here; stdout never holds NaN or Infinity.
"""

import csv
import io
import json
import math
import signal
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from qes_sextic import cli

CALL_SECONDS = 5

# extreme and ordinary positive rationals, and two that the model rejects
RATIONALS = ["1e300", "1e-300", "1e-320", "1e5", "1e-5", "3/7", "1/4", "1", "7",
             "0", "-1"]
rationals = st.one_of(
    st.sampled_from(RATIONALS),
    st.builds("{}/{}".format, st.integers(1, 10**6), st.integers(1, 10**6)),
)
dims = st.one_of(
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-300, 300)),
    rationals,
)
dim_lists = st.lists(dims, min_size=1, max_size=4, unique=True).map(",".join)
formats = st.sampled_from(["json", "csv"])
# --rmax values, from 1e-300 up to 1e300
RMAXES = ["1e-300", "1e-5", "3", "1e150", "1e300"]


def optional(draw, name, values):
    """["--name=value"] for a drawn value, or [] to keep the default."""
    value = draw(st.none() | st.sampled_from(values))
    return [] if value is None else [f"--{name}={value}"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["spectrum", "series", "validate", "pmatrix", "wavefunction"]))
    n = draw(st.integers(0, 40))
    # "--name=value" and "--name value" parse alike, "-1" included
    argv = [command, f"-N={n}"]
    if command == "pmatrix":
        return argv + [f"--format={draw(formats)}"]
    argv += [f"-k={draw(st.integers(-1, 30))}", f"--beta={draw(rationals)}",
             f"--gamma={draw(rationals)}"]
    if command == "spectrum":
        argv += [f"-D={draw(dims)}", f"--format={draw(formats)}"]
        if draw(st.booleans()):
            argv.append(f"--general={n + draw(st.integers(-1, 10))}")
        if draw(st.booleans()):
            argv.append("--show-matrix")
    elif command in ("series", "validate"):
        argv += [f"-K={draw(st.integers(0, 8))}", f"--format={draw(formats)}"]
        if command == "validate" or draw(st.booleans()):
            argv.append(f"-D={draw(dim_lists)}")
        if command == "series" and draw(st.booleans()):
            argv.append(f"--t={draw(rationals)}")
    else:
        argv += [f"-D={draw(dims)}", f"--state={draw(st.integers(-1, n))}",
                 f"--samples={draw(st.integers(0, 64))}"]
        argv += optional(draw, "rmax", RMAXES)
    return argv


def _timeout(signum, frame):
    raise TimeoutError(f"call ran past {CALL_SECONDS} s")


def run_main(argv):
    """(exit code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"{name} in the JSON output")


def assert_finite_output(stdout):
    if stdout.startswith("{"):
        json.loads(stdout, parse_constant=_reject_constant)
        return
    for row in csv.reader(io.StringIO(stdout)):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), f"{field!r} in the CSV output"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
def test_cli_contract(argv):
    code, stdout, stderr = run_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
        return
    assert code == 0 or argv[0] == "validate", "a red check outside validate"
    assert_finite_output(stdout)
