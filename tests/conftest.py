from __future__ import annotations

import inspect
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

# A failing hypothesis test makes its pytest plugin import this module, whose
# libcst import raises a DeprecationWarning; the error::DeprecationWarning
# filter would turn that into an INTERNALERROR that aborts the session.
# Imported once here with the warning silenced, a failing property test stays
# a plain failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is an optional dependency of hypothesis
        pass

import nlkuramoto.integrate as integrate
import nlkuramoto.run as run
from nlkuramoto import (GridConfig, InitialConfig, IntegratorPolicy, OutputConfig,
                        PhysicsConfig, SimConfig, assemble_kernel_matrix, build_grid)

REPO_OUT = Path(__file__).resolve().parents[1] / "out"


@pytest.fixture(scope="session", autouse=True)
def no_outputs_in_the_checkout():
    # a test that writes files gives them a tmp_path directory; the configs'
    # default, out/, would land in the checkout
    existed = REPO_OUT.exists()
    yield
    if not existed and REPO_OUT.exists():
        pytest.fail(f"the tests wrote {REPO_OUT}: give each run that writes a tmp_path directory")


class RecordedStates(list):
    """One entry per run stepped inside :func:`recorded_states`: the copies,
    in record order, of the (R, N) states the run recorded."""

    def of(self, run_index=-1) -> np.ndarray:
        """That run's states as one (R, K, N) array: member j's at the K
        record times in ``[j]``."""
        return np.stack(self[run_index], axis=1)


@contextmanager
def recorded_states():
    """Copy the state at each record of every run stepped inside the block.

    Wraps ``run.integrate_flow``'s ``make_record`` argument, as the
    benchmark's tracer does, so a run's states can be compared bitwise
    without writing snapshot files; a blow-up's copies stop at its last
    record.  Usable where a function-scoped fixture is not (hypothesis).
    """
    states = RecordedStates()
    real = run.integrate_flow
    signature = inspect.signature(integrate.integrate_flow)  # real may be a test's wrapper

    def copying_flow(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        make_record, copies = bound.arguments["make_record"], []
        states.append(copies)

        def copying(values, *rest):
            copies.append(np.array(values))
            return make_record(values, *rest)

        bound.arguments["make_record"] = copying
        return real(*bound.args, **bound.kwargs)

    run.integrate_flow = copying_flow
    try:
        yield states
    finally:
        run.integrate_flow = real


def make_config(*, dim=1, n=64, extents=None, model="singular", s=0.5,
                kappa=1.0, delta=0.0, epsilon=None, nu=0.0, nu_file=None,
                kind="smooth", diameter=1.0, seed=None, value=0.0,
                allow_large_diameter=False, scheme="rk4", dt=None, safety=0.5,
                horizon=1.0, stride=1, directory="out",
                formats=("csv", "manifest")) -> SimConfig:
    extents = ((0.0, 1.0),) * dim if extents is None else extents  # one per axis
    return SimConfig(
        grid=GridConfig(dimension=dim, nodes=n, extents=tuple(tuple(e) for e in extents)),
        physics=PhysicsConfig(model=model, s=s, kappa=kappa, delta=delta,
                              epsilon=epsilon, nu=nu, nu_file=nu_file),
        initial=InitialConfig(kind=kind, diameter=diameter, value=value, seed=seed,
                              allow_large_diameter=allow_large_diameter),
        integrator=IntegratorPolicy(scheme=scheme, dt=dt, safety=safety,
                                    horizon=horizon, stride=stride),
        output=OutputConfig(directory=directory, formats=tuple(formats)),
    )


def rel_close(a, b, rtol, atol=1e-15):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), atol / rtol)
    return float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


@pytest.fixture(scope="session")
def grid16():
    return build_grid(1, 16, [(0.0, 1.0)])


@pytest.fixture(scope="session")
def grid64():
    return build_grid(1, 64, [(0.0, 1.0)])


@pytest.fixture(scope="session")
def singular16(grid16):
    return assemble_kernel_matrix(grid16, 0.5)


@pytest.fixture(scope="session")
def singular64(grid64):
    return assemble_kernel_matrix(grid64, 0.5)
