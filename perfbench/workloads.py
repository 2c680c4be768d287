"""The benchmark's workloads: seeded synthetic classrooms and the models run on them.

Each workload is a closed loop: one process runs its calls one after another
over ``classrooms`` independent classrooms, all derived from the run seed.
Several classrooms per run average out how much fit time and E_K vary from
one seeded classroom to the next, which one classroom alone does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import sys
import time
from dataclasses import dataclass

FAMILIES: dict[str, str] = {
    **dict.fromkeys(("mal", "mal+g", "malbc", "malbc+g", "mal+k", "mal+kg"), "mallows"),
    **dict.fromkeys(("bt", "bt+g", "thur", "thur+g"), "pairwise"),
    **dict.fromkeys(("pl", "pl+g"), "listwise"),
    **dict.fromkeys(("mals", "mals+g"), "mals"),
    **dict.fromkeys(("scavg", "ncs", "ncs+g"), "cardinal"),
}

# Every process of a run is single-threaded, so results do not depend on the core count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The benchmark times CPU time of its single-threaded processes (user plus
# system), which leaves out time spent waiting for a core; with one thread it
# equals wall time on an idle machine. speed.py scales it to reference speed.
CLOCK = time.process_time

# Set-up runs in this many fresh processes, so the import is timed this many times.
SETUP_PROCESSES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_items: int
    n_graders: int
    per_grader: int
    graders: str  # "mallows": permutation noise, eta 1; "cardinal": normal noise, eta 1, bias sd 0.5
    fmt: str  # input file format: "json" (ordinal) or "csv" (cardinal)
    models: tuple[str, ...]  # fit on the full data, written, read back and scored
    boot_models: tuple[str, ...] = ()  # bootstrap_ek against the truth
    reps: int = 0  # bootstrap repetitions per model and classroom
    classroom_s: float = 1.0  # measured wall seconds of one classroom's pipeline, on a 2-core machine

    def classrooms(self, seconds: float) -> int:
        """Classrooms per run: as many as fit in ``seconds``, at least one."""
        return max(1, int(seconds // self.classroom_s))

    def toy(self) -> "Workload":
        """The same pipeline on a 12 x 20 x 7 classroom, for smoke tests."""
        return dataclasses.replace(self, n_items=12, n_graders=20, per_grader=7, reps=min(self.reps, 2))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper",
            40,
            150,
            7,
            "mallows",
            "json",
            models=("mal", "mal+g", "malbc", "malbc+g", "mal+k", "mal+kg", "bt", "pl"),
            classroom_s=0.65,
        ),
        Workload(
            "large",
            600,
            1800,
            7,
            "mallows",
            "json",
            models=("mal", "mal+g", "malbc", "mal+k", "bt"),
            classroom_s=3.6,
        ),
        Workload(
            "bootstrap",
            40,
            150,
            7,
            "cardinal",
            "csv",
            models=("scavg", "ncs+g", "mal", "malbc", "mal+g", "bt"),
            boot_models=("scavg", "ncs+g", "malbc", "mal+g"),
            reps=5,
            classroom_s=0.85,
        ),
    )
}


def classroom_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one classroom, a pure function of the workload, run seed and index."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# The package modules the benchmark measures, one layer each.
LAYERS = ("synth", "dataio", "data", "estimators", "mallows", "scoremodels", "cardinal", "metrics", "experiments")


def import_opg(root: str):
    """Import opg and its layer modules from ``root``/src, never from an installed copy."""
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import opg

    for layer in LAYERS:
        importlib.import_module(f"opg.{layer}")
    if not os.path.abspath(opg.__file__).startswith(src + os.sep):
        raise ImportError(f"opg was imported from {opg.__file__}, not from {src}")
    return opg


def resolve(name: str, toy: bool) -> Workload:
    workload = WORKLOADS[name]
    return workload.toy() if toy else workload
