"""The in-place step kernel against the allocating kernel it replaced.

`step_map(force, c, z)` advances one bound buffer with a fixed list of ufunc
calls, and the FPU force writes into that buffer through `force.bind`. The
oracles below are the allocating kernel and the `** 3` force that came
before; the new ones must match them bit for bit over 100 steps (the FPU
lattice is chaotic, so a longer pointwise comparison would measure rounding,
not the kernel). The last tests pin that a `State` is read-only and never
shares memory with a kernel's buffer.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    State,
    drift_engine,
    fpu_system,
    step_map,
    stepper,
    trig_method_from,
)
from erkn.methods import Coefficients, lift

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
STEPS = 100
KICK_FIRST = ["trig:ERKN2", "trig:ERKN3", "trig:ERKN4"]


def allocating_step_map(force, c: Coefficients):
    """Oracle: the kernel z -> z+ that returns a fresh array each step."""
    same = np.array((c.cos, c.cos))
    swapped = np.array((c.hsinc, -c.omega_sin))
    stage = np.array((c.stage_q, c.stage_p))
    weight = np.array((c.wq, c.wp))

    def step(z):
        x = stage * z
        return same * z + swapped * z[::-1] + weight * force(x[0] + x[1])

    if c.kick is None:
        return step

    def step_kicked(z):
        y = np.array((z[0], z[1] + z[2]))
        x = stage * y
        f = force(x[0] + x[1])
        return np.concatenate((same * y + swapped * y[::-1] + weight * f, (c.kick * f)[None]))

    return step_kicked


def power_force(m: int):
    """Oracle: the FPU force as one array power of freshly allocated elongations."""
    def force(q):
        slow, stiff = q[:m], q[m:]
        s = np.zeros((m + 1,) + q.shape[1:])
        np.subtract(slow, stiff, out=s[:m])
        tail = s[1:]
        tail -= slow
        tail -= stiff
        cube = s ** 3
        ahead, behind = cube[1:], cube[:m]
        return np.concatenate((ahead - behind, ahead + behind))

    return force


def resolve(name: str):
    return METHODS[name] if name in METHODS else trig_method_from(METHODS[name[5:]])


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def assert_kernel_matches_oracle(names: list, omegas: list, h: float, seed: int,
                                 plain: bool = False) -> None:
    """One batch, a column per (method, omega), from perturbed FPU starts:
    100 in-place steps equal 100 oracle steps bit for bit, also after a column
    has blown up to inf or nan. With plain set the
    kernel gets the force without its `bind`, so it calls it and copies."""
    rng = np.random.default_rng(seed)
    cells = [(resolve(name), fpu_system(3, w)) for name in names for w in omegas]
    coefs = [method.coefficients(sys_.partition, h) for method, sys_ in cells]
    c = coefs[0] if len(cells) == 1 else Coefficients.columns(coefs)
    starts = [s.initial.z + 0.1 * rng.standard_normal(s.initial.z.shape) for _, s in cells]
    z0 = starts[0] if len(cells) == 1 else np.stack(starts, axis=-1)
    system_force = cells[0][1].force
    force = (lambda q: system_force(q)) if plain else system_force  # plain: without bind
    oracle = allocating_step_map(power_force(3), c)
    want = lift(power_force(3), c, z0)
    z = lift(force, c, z0.copy())  # for a one-stage batch, lift returns its input
    assert z.tobytes() == want.tobytes()
    kernel = step_map(force, c, z)
    # at the larger h some columns blow up to inf and nan; both kernels must
    # still agree bit for bit there, so overflow is expected, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, STEPS + 1):
            kernel()
            want = oracle(want)
            assert z.tobytes() == want.tobytes(), (names, i)


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0),
       st.sampled_from(list(METHODS) + KICK_FIRST), st.integers(0, 2**32 - 1), st.booleans())
def test_a_single_state_kernel_matches_the_allocating_kernel(h, omega, name, seed, plain):
    assert_kernel_matches_oracle([name], [omega], h, seed, plain)


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), log_uniform(5.0, 400.0),
       st.integers(0, 2**32 - 1))
@example(0.1, 10.0 * math.pi, 30.0 * math.pi, 0)  # h*omega = pi and 3pi: kick-filter poles
def test_batches_of_18_match_the_allocating_kernel(h, omega_a, omega_b, seed):
    """One-stage (6 methods x 3 omegas), kick-first (3 x 6) and mixed (9 x 2).
    The example puts two columns on poles of the kick filter, where it is
    2 bbar/sinc(nu/2); random draws almost never land there."""
    omegas = [omega_a, omega_b, math.sqrt(omega_a * omega_b)]
    assert_kernel_matches_oracle(list(METHODS), omegas, h, seed)
    assert_kernel_matches_oracle(KICK_FIRST, omegas + [2.0 * w for w in omegas], h, seed)
    assert_kernel_matches_oracle(list(METHODS) + KICK_FIRST, omegas[:2], h, seed)
    assert_kernel_matches_oracle(list(METHODS) + KICK_FIRST, omegas[:2], h, seed, plain=True)


def special_entries(shape: tuple, seed: int) -> np.ndarray:
    """Normal entries with about a third replaced by +-0, +-inf and nan."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(shape)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    mask = rng.random(shape) < 1 / 3
    q[mask] = rng.choice(special, size=int(mask.sum()))
    return q


@pytest.mark.parametrize("shape", [(6,), (6, 18), (6, 4, 3)])
@pytest.mark.parametrize("seed", range(5))
def test_force_bind_equals_the_force_bit_for_bit(shape, seed):
    """force.bind(q, out)() writes force(q), which is the `** 3` oracle's
    value, also where q holds +-0, +-inf or nan; a bound call tracks later
    changes of q."""
    force, oracle = fpu_system(3, 50.0).force, power_force(3)
    q = special_entries(shape, seed)
    out = np.empty(shape)
    call = force.bind(q, out)
    with np.errstate(invalid="ignore", over="ignore"):
        call()
        assert out.tobytes() == force(q).tobytes() == oracle(q).tobytes()
        q[...] = special_entries(shape, seed + 100)
        call()
        assert out.tobytes() == force(q).tobytes() == oracle(q).tobytes()


@pytest.mark.parametrize("name", ["ERKN2", "ERKN5", "trig:ERKN3"])
def test_a_stepped_state_is_read_only_and_keeps_its_bytes(name):
    """Each State a stepper returns owns its array: later steps leave it as it
    was, it shares no memory with the state it came from, and it is read-only."""
    sys_ = fpu_system(3, 50.0)
    step = stepper(resolve(name), sys_, 0.1)
    start = State(sys_.initial.q + 0.1, sys_.initial.p)
    states = [start]
    for _ in range(5):
        states.append(step(states[-1]))
    kept = [s.z.tobytes() for s in states]
    for _ in range(5):
        step(states[-1])
    assert [s.z.tobytes() for s in states] == kept
    for a, b in zip(states, states[1:]):
        assert not np.shares_memory(a.z, b.z)
    for s in (*states, sys_.initial, State.of(np.zeros((2, 6)))):
        assert not s.z.flags.writeable
        with pytest.raises(ValueError):
            s.q[0] = 1.0


def test_the_engine_leaves_every_initial_state_unchanged():
    """A mixed batch in which some cells blow up (so a block is replayed from
    its copied start) leaves every system's initial state as it was."""
    h, t_end, stride = 0.5, 50.0, 7
    systems = [fpu_system(3, 50.0), fpu_system(3, 200.0)]
    before = [s.initial.z.tobytes() for s in systems]
    cells = [(resolve(name), sys_) for name in list(METHODS) + KICK_FIRST for sys_ in systems]
    results = drift_engine(cells, h, t_end, stride)
    assert any(message for _, message in results) and not all(message for _, message in results)
    assert [s.initial.z.tobytes() for s in systems] == before
