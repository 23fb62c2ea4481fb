"""Seeded benchmark inputs: the oracle's xi values and the config-batch files.

The seed is a benchmark argument; the program only ever sees the values
generated here, through `checks.oracle_pair` and the `.cfg` files given to
`hc run`.

The cost of one input depends steeply on where it falls: a cubic oracle point
near |xi| = 4.4 takes 8 shooting Newton iterations (about 12 s), one beyond
|xi| = 4.5 takes the fallback (about 1 s); the retry problem leaves about 49
gaps at A = 1.5 and 18 at A = 3.  With independent draws a run's cost follows
the seed rather than the program, so every draw is stratified: the stratum is
fixed by the round (and the problem), and the seed places the value inside
it.  Every value stays in its range, and runs with different seeds do
comparable work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

XI_RANGE = (-10.0, 10.0)
RETRY_A_RANGE = (1.5, 3.0)
# Strata of the oracle's xi range in bit-reversed order: any 4 consecutive
# entries spread over the whole range, and 8 cover it.
ORACLE_STRATA = (0, 4, 2, 6, 1, 5, 3, 7)
ORACLE_CYCLE = 4  # rounds; a run covers whole cycles
RETRY_PIECES = 4

# Problems whose g' stays below lambda_2 = 4 pi^2, so every node converges.
# They are the same for every seed, so the recorded reference curves check
# them on any seed.
WELL_BEHAVED = {
    "b_readme": ("pi^2*u + 2*(u^2+1)^(1/5)*sin(u)", "2:1.0"),
    "c_amann": ("cos(u) + u*(pi^2 + (2/pi)*arctan(u) + 0.7*sin(ln(u^2+1)))",
                "2:1.0, 5:-2.0"),
    "d_bounded": ("pi^2*u + 3*u/(1+u^2) + 0.5*arctan(u)", "2:0.2, 3:0.4"),
    "e_cubic": ("4*u - u^3", "2:0.3"),
}


def _in_stratum(u: float, stratum: int, count: int, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * (stratum + u) / count)


def oracle_points(seed: int, names: list[str], round_index: int) -> list[tuple[str, float]]:
    """One round of oracle points: one (problem name, xi) per problem.

    Problem j's point in round r lies in stratum ORACLE_STRATA[(r + j) % 8]
    of 8 equal strata of [-10, 10], so every run of whole cycles puts each
    problem in the same strata, whatever the seed.  Round 0 puts the cubic at
    |xi| = 10 instead (sign drawn from the seed), where shooting from its own
    predictor blows up and the spectral-seeded fallback runs.
    """
    rng = np.random.default_rng([seed, 0, round_index])
    u = rng.uniform(0.0, 1.0, len(names))
    points = []
    for j, name in enumerate(names):
        if round_index == 0 and name.startswith("cubic"):
            xi = XI_RANGE[1] if rng.uniform() < 0.5 else XI_RANGE[0]
        else:
            stratum = ORACLE_STRATA[(round_index + j) % len(ORACLE_STRATA)]
            xi = _in_stratum(u[j], stratum, len(ORACLE_STRATA), *XI_RANGE)
        points.append((name, xi))
    return points


def config_text(g: str, e: str, xi_min: float = -10.0, xi_max: float = 10.0) -> str:
    return (f"[problem]\ng = {g}\ne = {e}\n\n"
            f"[run]\nxi_min = {xi_min:g}\nxi_max = {xi_max:g}\nxi_step = 0.1\n")


def retry_configs(seed: int, round_index: int) -> dict[str, str]:
    """The round's retry problems g = 4 pi^2 u + A sin(u), e = 2:0.3, 3:0.5.

    The problem violates the g' sandwich (g' = 4 pi^2 + A cos u reaches
    lambda_2 from both sides), so line searches stall and continuation
    bridges and leaves gaps.  Each round splits xi in [-10, 10] into
    RETRY_PIECES configs, and piece i draws A from stratum i of RETRY_PIECES
    equal strata of [1.5, 3]: every round spans the A range and costs about
    the same.
    """
    u = np.random.default_rng([seed, 1, round_index]).uniform(0.0, 1.0, RETRY_PIECES)
    width = (XI_RANGE[1] - XI_RANGE[0]) / RETRY_PIECES
    texts = {}
    for i in range(RETRY_PIECES):
        a = round(_in_stratum(u[i], i, RETRY_PIECES, *RETRY_A_RANGE), 4)
        texts[f"a_retry{i}"] = config_text(f"4*pi^2*u + {a!r}*sin(u)", "2:0.3, 3:0.5",
                                           XI_RANGE[0] + i * width, XI_RANGE[0] + (i + 1) * width)
    return texts


def write_configs(seed: int, round_index: int, directory: Path) -> list[Path]:
    """Write one round's config directory and return the files, sorted.

    The retry configs sort first, so the process pool starts them first.
    """
    directory.mkdir(parents=True, exist_ok=True)
    texts = retry_configs(seed, round_index)
    texts.update({name: config_text(g, e) for name, (g, e) in WELL_BEHAVED.items()})
    paths = []
    for name, text in texts.items():
        path = directory / f"{name}.cfg"
        path.write_text(text)
        paths.append(path)
    return sorted(paths)
