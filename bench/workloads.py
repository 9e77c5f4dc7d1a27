"""The benchmark's workloads: CLI job lists, warm-up calls and expected
outcomes, all made from the workload seed.

Every job is one `drwave.cli.run` argument list.  The warm-up calls are
one minimal-size call of each subcommand on each space the workload
uses, so per-space state (Bessel-table fit, Plancherel calibration) is
built during set-up and the timed passes measure steady-state work.

Jobs are kept short (a few tenths of a second to about a second) so that
a run repeats each of them several times: on a shared host a job's
fastest repetition varies far less between runs than a single long
pass does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Job", "Workload", "WORKLOADS", "make"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what it must produce.

    verdict   : expected verdict in the report (experiments) or on the
                summary line (oscillatory-claim); None when there is none
    roundtrip : (m_v, m_z) when the job is a transform whose roundtrip
                must pass the oracle check
    """

    id: str
    argv: tuple[str, ...]
    status: int = 0
    verdict: str | None = None
    roundtrip: tuple[int, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    seed_use: str
    warmup: tuple[Job, ...]
    jobs: tuple[Job, ...]


def _space(m_v: int, m_z: int) -> tuple[str, ...]:
    return ("--m-v", str(m_v), "--m-z", str(m_z))


SPACES = ((2, 1), (4, 3))


def _spectral(seed: int) -> Workload:
    # The seed moves only the width of the transformed Gaussian, a value
    # that changes no grid size and so no amount of work.  lambda_max 7
    # keeps the roundtrip under its oracle bound for every width drawn,
    # and s_max 6 keeps the profile's tail under the transform's check.
    alpha = 0.9 + 0.2 * random.Random(seed).random()
    profile = ("--profile", f"gaussian:{alpha:.6f}")
    grid = ("--lambda-max", "7", "--s-max", "6", "--s-points", "512")
    jobs = tuple(
        Job(f"transform-{mv}-{mz}", ("transform", *_space(mv, mz), *profile, *grid),
            roundtrip=(mv, mz))
        for mv, mz in SPACES
    ) + (
        # Propagator jobs evaluate on s in [0, s_max / 2]; their spectral
        # grid is finer than the pi/8 rule so it resolves the multiplier.
        Job("propagate", ("propagate", *_space(2, 1), "--equation", "frac:2",
                          "--spectrum", "bump:2,8", "--t", "0.1", "--s-max", "3",
                          "--lambda-max", "8", "--lambda-points", "512")),
        Job("maximal", ("maximal", *_space(2, 1), "--equation", "boussinesq",
                        "--spectrum", "bump:1,4", "--t-points", "512", "--s-max", "3",
                        "--lambda-max", "6", "--lambda-points", "256")),
    )
    warmup = tuple(
        Job(f"warm-transform-{mv}-{mz}",
            ("transform", *_space(mv, mz), "--profile", "gaussian:1", "--lambda-max", "7",
             "--s-max", "6", "--s-points", "256"),
            roundtrip=(mv, mz))
        for mv, mz in SPACES
    ) + (
        Job("warm-propagate", ("propagate", *_space(2, 1), "--spectrum", "bump:1,2",
                               "--t", "0.01", "--s-max", "2", "--lambda-max", "4",
                               "--lambda-points", "128")),
        Job("warm-maximal", ("maximal", *_space(2, 1), "--spectrum", "bump:1,2",
                             "--t-points", "16", "--s-max", "2", "--lambda-max", "4",
                             "--lambda-points", "128")),
    )
    return Workload(
        "spectral", seed,
        f"picks the transformed Gaussian's width alpha = {alpha:.6f}; sizes fixed",
        warmup, jobs)


OSC_EQUATIONS = ("frac-shifted:2", "frac:1.5")
OSC_JOBS_PER_EQUATION = 4


def _oscillatory(seed: int) -> Workload:
    # Three triples per call, one from each regime the sampler stratifies
    # over; several calls per equation so the seed-to-seed change in work
    # averages out while each call stays short enough to repeat.
    jobs = tuple(
        Job(f"oscillatory-{eq}-{j}",
            ("oscillatory-claim", *_space(2, 1), "--equation", eq, "--k-levels", "20",
             "--n-triples", "3", "--seed", str(OSC_JOBS_PER_EQUATION * seed + j)),
            verdict="pass")
        for eq in OSC_EQUATIONS for j in range(OSC_JOBS_PER_EQUATION)
    )
    return Workload(
        "oscillatory", seed,
        f"picks the (s, s', d) triples: oscillatory-claim seeds "
        f"{OSC_JOBS_PER_EQUATION * seed}..{OSC_JOBS_PER_EQUATION * seed + 3}",
        (), jobs)


def _scaling(seed: int) -> Workload:
    case1_n = ",".join(str(4**k) for k in range(3, 9))           # 64 .. 65536
    case2_n = "8,11,16,23,32,45,64"
    jobs = tuple(
        Job(f"case1-a{a}{'-shifted' if shifted else ''}",
            ("experiment", "case1", *_space(2, 1), "--a", a, "--beta-list", "0.1,0.25,0.4",
             "--n-list", case1_n) + (("--shifted",) if shifted else ()),
            verdict="pass")
        for a in ("2", "1.5") for shifted in (False, True)
    ) + tuple(
        Job(f"case2-beta{beta}", ("experiment", "case2", *_space(2, 1), "--beta", beta,
                                  "--n-list", case2_n), verdict="pass")
        for beta in ("0.25", "0.5")
    ) + (
        Job("transference", ("experiment", "transference", *_space(2, 1),
                             "--equation", "frac:3", "--equation2", "frac-shifted:3"),
            verdict="not-comparable"),
    )
    warmup = (
        Job("warm-case1", ("experiment", "case1", *_space(2, 1), "--beta-list", "0.25",
                           "--n-list", "64,65,66,67,68"), verdict="pass"),
        Job("warm-case2", ("experiment", "case2", *_space(2, 1),
                           "--n-list", "8,9,10,11,12"), verdict="pass"),
        Job("warm-transference", ("experiment", "transference", *_space(2, 1)),
            verdict="comparable"),
    )
    return Workload(
        "scaling", seed,
        "unused: the experiments' inputs are fixed",
        warmup, jobs)


WORKLOADS = {"spectral": _spectral, "oscillatory": _oscillatory, "scaling": _scaling}


def make(name: str, seed: int) -> Workload:
    """The named workload with its inputs drawn from seed."""
    return WORKLOADS[name](seed)
