import os
from pathlib import Path

import numpy as np
import pytest

from reflectjet import tape
from reflectjet.medium import Covector


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(**extra):
    """Environment for a child interpreter that imports this checkout's
    package, however the test run itself found it."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def max_rel_err(recovered_jet, true_jet):
    return max(abs(r - t) / max(abs(t), 1e-12)
               for r, t in zip(recovered_jet.coeffs, true_jet.coeffs))


def two_direction_grid(model, count, tau=1.0, fraction=0.8):
    """Slowness grid along both tangential axes (curvature recovery)."""
    b_crit = model.critical_slowness()
    bs = np.linspace(0.0, fraction * b_crit, count)
    covs = [Covector(tau, (float(b) * tau, 0.0)) for b in bs]
    covs += [Covector(tau, (0.0, float(b) * tau)) for b in bs[1:]]
    return covs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# --- tapes ---------------------------------------------------------------


def outcome(fn, *args):
    """`repr` of fn(*args), or the type and message of its error."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def by_source(fn, *args):
    """`outcome` with the engine halves running their source bodies."""
    taped = tape._replay
    tape._replay = lambda body, static, args, *key: body(*static, *args)
    try:
        return outcome(fn, *args)
    finally:
        tape._replay = taped


def replays_only(monkeypatch):
    """Every class recorded so far has a tape, and a guard that misses in
    it fails the test instead of running the body."""
    def strict(run):
        def replay(values):
            try:
                return run(values)
            except tape._Miss:
                raise AssertionError("a guard missed: the body ran") from None
        return replay

    for _, runs in tape._TAPES.values():
        for types, run in list(runs.items()):
            assert run is not tape._miss
            monkeypatch.setitem(runs, types, strict(run))
