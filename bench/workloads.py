"""Seeded call lists for the benchmark's three workloads.

A workload is a list of ``qes-sextic`` argument vectors, run one after
the other by a single client.  Each list is built from a fixed table of
slots.  A slot fixes what sets the cost of a call (subcommand, N, K,
truncation size), so the total work of a list barely depends on the
seed.  The seed fills in everything else: k, beta, gamma, D, the state,
the optional flags and the order of the calls.  The program only ever
sees the generated argv.

Every call carries what the checker needs to judge its output:

* ``ok``      exit 0, output checked against an independent reference;
* ``slope``   ``validate``: exit 0 or 1, as its slope checks say;
* ``invalid`` exit 2, no traceback, an error that names ``param``;
* ``defect``  a known defect of the seed commit.  The call passes when
  it behaves as ``fixed`` says (``ok`` or ``invalid``), and counts as a
  known defect when it shows the seed's signature ``defect``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("series-exact", "oracle-large", "cli-small")


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    expect: str
    params: dict = field(default_factory=dict, compare=False)
    param: str = ""
    defect: str = ""
    fixed: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]


def calls(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The call list of one workload for one seed; ``size`` is ``full``
    for measurement or ``tiny`` for the harness self-test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    build = {
        "series-exact": _series_exact,
        "oracle-large": _oracle_large,
        "cli-small": _cli_small,
    }[workload]
    out = build(rng, size == "tiny")
    rng.shuffle(out)
    return out


def calls_per_pass(workload: str) -> int:
    """Length of a full call list; it fixes the tail percentile."""
    return len(calls(workload, 0))


# ---------------------------------------------------------------------------
# argument pieces

def _rational(rng: random.Random, top: int = 6) -> Fraction:
    return Fraction(rng.randint(1, top), rng.choice((1, 2, 3, 4)))


def _model(rng: random.Random, cmd: str, n: int, k: int, **extra) -> tuple[list[str], dict]:
    """argv head and parameter dict for a command that takes the model."""
    beta, gamma = _rational(rng), _rational(rng)
    params = {"n": n, "k": k, "beta": beta, "gamma": gamma, **extra}
    argv = [cmd, "-N", str(n), "-k", str(k), "--beta", str(beta), "--gamma", str(gamma)]
    return argv, params


def _series(rng, n: int, order: int, k: int, small: bool = False) -> Call:
    argv, params = _model(rng, "series", n, k, order=order)
    argv += ["-K", str(order)]
    roll = rng.random()
    if roll < 0.25:
        t = _rational(rng, 4)
        argv += ["--t", str(t)]
        params["t"] = t
    elif roll < 0.5:
        dims = sorted(rng.sample((10_000, 100_000, 1_000_000, 10_000_000), 2))
        argv += ["-D", ",".join(map(str, dims))]
        params["dims"] = [Fraction(d) for d in dims]
    if small and rng.random() < 0.3:
        argv += ["--format", "csv"]
        params["format"] = "csv"
    return Call(tuple(argv), "ok", params)


def _spectrum(rng, n: int, dims, general: int | None = None, small: bool = False) -> Call:
    dim = Fraction(rng.choice(dims))
    argv, params = _model(rng, "spectrum", n, rng.randint(0, 3), dim=dim)
    argv += ["-D", str(dim)]
    if general is not None:
        argv += ["--general", str(general)]
        params["general"] = general
    if small:
        roll = rng.random()
        if roll < 0.5:
            argv.append("--show-matrix")
            params["show_matrix"] = True
        elif roll < 0.75:
            argv += ["--format", "csv"]
            params["format"] = "csv"
    return Call(tuple(argv), "ok", params)


def _wavefunction(rng, n: int, dims) -> Call:
    dim = Fraction(rng.choice(dims))
    argv, params = _model(rng, "wavefunction", n, rng.randint(0, 2), dim=dim)
    state = rng.randrange(n)
    rmax = rng.choice(("1", "1.5", "2", "2.5", "3"))
    samples = rng.choice((16, 32, 64, 128))
    argv += ["-D", str(dim), "--state", str(state), "--rmax", rmax,
             "--samples", str(samples)]
    params.update(state=state, rmax=float(rmax), samples=samples)
    return Call(tuple(argv), "ok", params)


# Inverse iteration does not converge on these states at the seed commit.
# At N=200, k=0, beta=gamma=1: state 100 for D in {3, 10}, states 0, 100
# and 199 for D in {100, 1000}.  At N=120, D=100, k=0 the defect already
# shows for gamma=1/4.  They stay in the workload on purpose; the other
# wavefunction calls keep to N <= 110 and D <= 30, where it converges.
_N200_DEFECTS = [(1, 1, 3, 100), (1, 1, 10, 100)] + [
    (1, 1, d, s) for d in (100, 1000) for s in (0, 100, 199)]
_N120_DEFECTS = [(Fraction(1, 4), Fraction(1, 4), 100, s) for s in (30, 60, 90)] + [
    (6, Fraction(1, 4), 100, s) for s in (30, 60)]


def _wavefunction_defect(rng, n: int, table) -> Call:
    beta, gamma, dim, state = rng.choice(table)
    argv = ("wavefunction", "-N", str(n), "--beta", str(beta), "--gamma", str(gamma),
            "-D", str(dim), "--state", str(state))
    params = {"n": n, "k": 0, "beta": Fraction(beta), "gamma": Fraction(gamma),
              "dim": Fraction(dim), "state": state, "rmax": 3.0, "samples": 64}
    return Call(argv, "defect", params, defect="inverse-iteration", fixed="ok")


# ---------------------------------------------------------------------------
# series-exact: the exact recursion; the oracle does nothing

# Slots in four cost tiers.  The median call falls inside the run of
# eight (5, 16) calls and the tail call inside the five (9, 12) calls, so
# both percentiles measure one kind of call rather than the jitter at a
# boundary between two.
_SERIES_SLOTS = (
    [(4, 12), (4, 12), (4, 13), (4, 14), (4, 16), (5, 12), (5, 12), (5, 13),
     (5, 14), (6, 12), (6, 12), (6, 13), (7, 12)]
    + [(5, 16)] * 8
    + [(9, 12)] * 5
    + [(5, 20), (8, 14), (8, 16), (12, 12), (14, 12), (16, 12), (20, 12)]
)


def _series_exact(rng, tiny: bool) -> list[Call]:
    slots = [(3, 4), (4, 6), (5, 5)] if tiny else _SERIES_SLOTS
    # k cycles over 0..3 with the slots, so the seed does not move the work
    return [_series(rng, n, order, i % 4) for i, (n, order) in enumerate(slots)]


# ---------------------------------------------------------------------------
# oracle-large: bisection, the dense model build and the dense LU

_LARGE_DIMS = ("3", "7/2", "10", "25", "100", "1000", "10000")
_WAVE_DIMS = ("3", "10", "30")


def _oracle_large(rng, tiny: bool) -> list[Call]:
    if tiny:
        return [
            _spectrum(rng, 30, _LARGE_DIMS),
            _spectrum(rng, 20, _LARGE_DIMS, general=30),
            _wavefunction(rng, 12, _WAVE_DIMS),
            _wavefunction_defect(rng, 200, _N200_DEFECTS),
        ]
    # the median call is one of the eight N=200 spectra, the tail call one
    # of the five N=250 spectra or three N=200 defect probes
    out = [_spectrum(rng, n, _LARGE_DIMS)
           for n in (800, 400, 300) + (250,) * 5 + (200,) * 8]
    out += [_spectrum(rng, n, _LARGE_DIMS, general=n + n // 2)
            for n in (300, 200, 200)]
    out += [_wavefunction(rng, n, _WAVE_DIMS)
            for n in (100, 100, 100, 100, 105, 105, 110, 110)]
    out += [_wavefunction_defect(rng, 200, _N200_DEFECTS) for _ in range(3)]
    out.append(_wavefunction_defect(rng, 120, _N120_DEFECTS))
    return out


# ---------------------------------------------------------------------------
# cli-small: many short calls over all five subcommands

_SMALL_DIMS = ("3", "4", "5/2", "10", "50", "100", "1000")
_SLOPE_DIMS = ("100,1000,10000", "50,500,5000", "200,2000,20000",
               "100,1000", "100,300,1000,3000,10000")


def _validate(rng) -> Call:
    n = rng.randint(2, 6)
    order = rng.randint(4, 8)
    dims = rng.choice(_SLOPE_DIMS)
    k = rng.randint(0, 2)
    argv = ("validate", "-N", str(n), "-k", str(k), "-K", str(order), "-D", dims)
    params = {"n": n, "k": k, "beta": Fraction(1), "gamma": Fraction(1),
              "order": order, "dims": [Fraction(d) for d in dims.split(",")]}
    return Call(argv, "slope", params)


def _pmatrix(rng) -> Call:
    n = rng.randint(1, 12)
    argv = ["pmatrix", "-N", str(n)]
    params = {"n": n}
    if rng.random() < 0.3:
        argv += ["--format", "csv"]
        params["format"] = "csv"
    return Call(tuple(argv), "ok", params)


def _invalid(rng) -> Call:
    """One rejected input; every template must end in exit 2."""
    n = rng.randint(2, 5)
    dim = str(rng.choice((3, 10, 100)))
    templates = [
        (("spectrum", "-N", "0", "-D", dim), "n"),
        (("pmatrix", "-N", "0"), "n"),
        (("series", "-N", str(n), "-K", "-1"), "order"),
        (("spectrum", "-N", str(n), "-D", "0"), "dim"),
        (("spectrum", "-N", str(n), "-k", "-1", "-D", dim), "k"),
        (("spectrum", "-N", str(n), "-D", dim, "--beta", "0"), "beta"),
        (("series", "-N", str(n), "--gamma", "x/0"), "gamma"),
        (("spectrum", "-N", str(n), "-D", dim, "--general", str(n - 1)), "general"),
        (("wavefunction", "-N", str(n), "-D", dim, "--samples", "0"), "samples"),
        (("wavefunction", "-N", str(n), "-D", dim, "--state", str(n)), "state"),
    ]
    argv, param = rng.choice(templates)
    return Call(argv, "invalid", param=param)


def _seed_defects(rng) -> list[Call]:
    """Bad inputs the seed commit mishandles (each should exit 2 with a
    one-line error naming the argument)."""
    n = str(rng.randint(2, 5))
    dim = str(rng.choice((3, 10, 100)))
    return [
        Call(("spectrum", "-N", n, "-D", "1e400"), "defect", param="dim",
             defect="overflow-traceback", fixed="invalid"),
        Call(("series", "-N", n, "-K", "4", "-D", "1e400"), "defect", param="dim",
             defect="overflow-traceback", fixed="invalid"),
        Call(("spectrum", "-N", n, "-D", dim, "--tol", "nan"), "defect", param="tol",
             defect="misleading-tol", fixed="invalid"),
        Call(("wavefunction", "-N", n, "-D", dim, "--rmax", "nan"), "defect",
             param="rmax", defect="nan-rows", fixed="invalid"),
    ]


def _cli_small(rng, tiny: bool) -> list[Call]:
    if tiny:
        return [
            _validate(rng),
            _series(rng, 3, 5, rng.randint(0, 3), small=True),
            _spectrum(rng, 4, _SMALL_DIMS, small=True),
            _pmatrix(rng),
            _wavefunction(rng, 3, _SMALL_DIMS),
            Call(("spectrum", "-N", "0", "-D", "10"), "invalid", param="n"),
        ] + _seed_defects(rng)
    out = [_validate(rng) for _ in range(24)]
    out += [_series(rng, rng.randint(2, 5), rng.randint(4, 10), rng.randint(0, 3),
                    small=True) for _ in range(14)]
    out += [_spectrum(rng, rng.randint(2, 40), _SMALL_DIMS, small=True)
            for _ in range(16)]
    out += [_spectrum(rng, n, _SMALL_DIMS, general=n + rng.randint(0, 10))
            for n in (rng.randint(2, 20) for _ in range(4))]
    out += [_pmatrix(rng) for _ in range(10)]
    out += [_wavefunction(rng, rng.randint(1, 20), _SMALL_DIMS) for _ in range(16)]
    out.append(Call(("spectrum", "-N", "0", "-D", "10"), "invalid", param="n"))
    out += [_invalid(rng) for _ in range(5)]
    out += _seed_defects(rng)
    return out
