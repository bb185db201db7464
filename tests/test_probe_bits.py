"""The probe paths against the routes they replaced, bit for bit.

Each probe builds every set of diagonals once per call: one expansion per
coefficient build, one step-h build and one step of s shared by the three
structure probes, the rotations and the kick filter of `conjugacy_check` taken
once and stepped on arrays, and one pass over the weights for both structure
reports. The oracles below are the implementations that came before, kept here
as references: `block_expand` of one function, the `State`-level flows and
probes, and the scalar loops of `check_symmetry` and `check_symplecticity`.
`advance` and `erkn_step` are held to n calls of one bound kernel, and
`check_reports` to one scan of the per-point check grid. Every float must equal
the oracle's, compared by `float.hex` (or by bytes for arrays).
"""

import dataclasses
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    NU_GRID,
    ErknMethod,
    Partition,
    State,
    System,
    TrigMethod,
    adjoint_defect,
    cli,
    conjugacy_check,
    erkn_step,
    flow_kick,
    flow_linear,
    fpu_system,
    sinc,
    stepper,
    strang_lnl_step,
    structure_defects,
    symplectic,
    symplecticity_defect,
    trig_method_from,
    trig_step_composed,
    upsilon_from,
)
from erkn import methods
from erkn.methods import (COEFF_TOL, Coefficients, SymmetryReport, SymplecticityReport, advance,
                          lift, rotation, step_map, structure_reports)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SYMMETRIC = ["ERKN2", "ERKN3", "ERKN4"]


# ---- oracles: the earlier implementations -------------------------------------------

def old_expand(f, part: Partition, nu: float) -> np.ndarray:
    out = np.full(part.dim, f(nu))
    out[: part.d1] = f(0.0)
    return out


def old_rotation(part: Partition, h: float, c: float = 1.0):
    nu = c * (h * part.omega)
    ch = c * h
    return (old_expand(math.cos, part, nu), old_expand(lambda x: ch * sinc(x), part, nu),
            old_expand(lambda x: part.omega * math.sin(x), part, nu))


def old_coefficients(m, part: Partition, h: float) -> Coefficients:
    if isinstance(m, TrigMethod):
        half = ErknMethod(m.name, 1.0, lambda nu: 0.0, lambda nu: 0.5 * m.upsilon(nu))
        c = old_coefficients(half, part, h)
        return c._replace(kick=c.wp)
    nu = h * part.omega
    stage_cos, stage_hsinc, _ = old_rotation(part, h, m.c1)
    return Coefficients(*old_rotation(part, h), stage_cos, stage_hsinc,
                        (h * h) * old_expand(m.bbar, part, nu), h * old_expand(m.b, part, nu))


@dataclasses.dataclass(frozen=True)
class OldRoute:
    """A method whose `stepper` builds its diagonals by the old route."""

    m: object

    @property
    def name(self) -> str:
        return self.m.name

    def coefficients(self, part: Partition, h: float) -> Coefficients:
        return old_coefficients(self.m, part, h)


def old_structure_defects(m, sys: System, h: float, s: State) -> list:
    route = OldRoute(m)
    adjoint = float(np.max(np.abs(stepper(route, sys, -h)(stepper(route, sys, h)(s)).z - s.z)))
    d, eps = sys.partition.dim, 1e-5
    coefs = Coefficients.columns([route.coefficients(sys.partition, h)])
    eye = np.eye(2 * d)
    block = (s.z.reshape(2 * d, 1) + eps * np.hstack((eye, -eye))).reshape(2, d, 4 * d)
    z = lift(sys.force, coefs, block)
    step_map(sys.force, coefs, z)()
    jac = (z[:2, :, : 2 * d] - z[:2, :, 2 * d :]).reshape(2 * d, 2 * d) / (2.0 * eps)
    jj = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    return [adjoint, float(np.max(np.abs(jac.T @ jj @ jac - jj)))]


def old_flow_linear(part: Partition, h: float, s: State) -> State:
    c, hs, osn = old_rotation(part, h)
    return State(c * s.q + hs * s.p, c * s.p - osn * s.q)


def old_flow_kick(sys: System, upsilon, h: float, s: State, nu=None) -> State:
    part = sys.partition
    if nu is None:
        nu = h * part.omega
    u = old_expand(upsilon, part, nu)
    return State(s.q, s.p + h * (u * sys.force(s.q)))


def old_strang_lnl_step(m, sys: System, h: float, s: State) -> State:
    a = old_flow_linear(sys.partition, 0.5 * h, s)
    return old_flow_linear(sys.partition, 0.5 * h, old_flow_kick(sys, upsilon_from(m), h, a))


def old_trig_step_composed(tm: TrigMethod, sys: System, h: float, s: State) -> State:
    nu = h * sys.partition.omega
    a = old_flow_kick(sys, tm.upsilon, 0.5 * h, s, nu=nu)
    return old_flow_kick(sys, tm.upsilon, 0.5 * h, old_flow_linear(sys.partition, h, a), nu=nu)


def old_conjugacy_check(m, sys: System, h: float, s: State, n: int) -> list:
    part, nu = sys.partition, h * sys.partition.omega
    tm = TrigMethod(m.name, upsilon_from(m))
    step = stepper(OldRoute(m), sys, h)
    ref = s
    for _ in range(n):
        ref = step(ref)

    def kick(x: State, hh: float) -> State:
        return old_flow_kick(sys, tm.upsilon, hh, x, nu=nu)

    inner = kick(old_flow_linear(part, 0.5 * h, s), 0.5 * h)
    for _ in range(n - 1):
        inner = old_trig_step_composed(tm, sys, h, inner)
    interior = old_flow_linear(part, 0.5 * h, kick(inner, 0.5 * h))
    shifted = old_flow_linear(part, -0.5 * h,
                              kick(old_trig_step_composed(tm, sys, h, inner), -0.5 * h))
    dev_interior = float(np.max(np.abs(ref.z - interior.z)))
    dev_shifted = float(np.max(np.abs(ref.z - shifted.z)))
    return [max(dev_interior, dev_shifted), dev_shifted, dev_interior]


def old_check_symmetry(m, grid, tol: float = COEFF_TOL) -> SymmetryReport:
    worst = abs(2.0 * m.bbar(0.0) - m.b(0.0))
    for nu in grid:
        r = abs((1.0 + math.cos(nu)) * m.bbar(nu) - sinc(nu) * m.b(nu))
        if r > worst:
            worst = r
    return SymmetryReport(m.c1 == 0.5 and worst <= tol, worst)


def old_check_symplecticity(m, grid, tol: float = COEFF_TOL) -> SymplecticityReport:
    d1 = m.b(0.0)
    ref = symplectic(m.name, m.c1, d1)
    worst = 0.0
    for nu in grid:
        rb = abs(m.b(nu) - ref.b(nu))
        rbb = abs(m.bbar(nu) - ref.bbar(nu))
        r = rb if rb > rbb else rbb
        if r > worst:
            worst = r
    return SymplecticityReport(worst <= tol, d1, worst)


# ---- drawn operating points ---------------------------------------------------------

def cubic_system(part: Partition) -> System:
    """A nonlinear force for any block sizes: g(q) = -q^3, elementwise."""
    return System(part, lambda q: 0.25 * np.sum(q ** 4, axis=0), lambda q: -(q * q * q),
                  f"cubic(d1={part.d1}, d2={part.d2}, omega={part.omega:g})")


@st.composite
def operating_points(draw):
    """(system, h, c1, state): the FPU lattice when d1 = d2 and omega > 0,
    else the cubic force; omega includes 0 and 1e5, h either sign."""
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    omega = draw(st.sampled_from([0.0, 1e5]) | st.floats(math.log(0.5), math.log(400.0)).map(math.exp))
    h = draw(st.floats(math.log(0.005), math.log(0.4)).map(math.exp)) * draw(st.sampled_from([1, -1]))
    c1 = draw(st.floats(0.05, 0.95))
    sys = fpu_system(d1, omega) if d1 == d2 and omega > 0 else cubic_system(Partition(d1, d2, omega))
    dim = sys.partition.dim
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim)))
    return sys, h, c1, State(z[:dim], z[dim:])


def probe_methods(c1: float) -> list:
    """Every registry method, the symplectic member at c1 and the kick-first schemes."""
    return [*METHODS.values(), symplectic("S", c1), *(trig_method_from(METHODS[n]) for n in SYMMETRIC)]


def outcome(fn, *args):
    """fn(*args) as float.hex strings, or the error it raises (a kick filter's refusal)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            values = fn(*args)
        except ValueError as exc:
            return type(exc).__name__, str(exc)
    return [v.hex() for v in values]


def defect_values(m, sys, h, s) -> list:
    return [r.defect for r in structure_defects(m, sys, h, s)]


def probe_values(m, sys, h, s) -> list:
    return [adjoint_defect(m, sys, h, s), symplecticity_defect(m, sys, h, s)]


def conjugacy_values(m, sys, h, s, n) -> list:
    r = conjugacy_check(m, sys, h, s, n)
    return [r.max_deviation, r.deviation_shifted, r.deviation_interior]


# ---- the tests ----------------------------------------------------------------------

def at_rest(sys: System) -> State:
    return State(np.zeros(sys.partition.dim), np.zeros(sys.partition.dim))


# nu = h*omega and the stage's c1 nu on either side of sinc's Taylor switch at 1e-2, h < 0 too
@PROPERTY
@given(operating_points())
@example((fpu_system(2, 1.0), -0.009, 0.9, at_rest(fpu_system(2, 1.0))))
@example((fpu_system(2, 0.6), -0.02, 0.4, at_rest(fpu_system(2, 0.6))))
@example((fpu_system(1, 0.5), 0.0201, 0.9, at_rest(fpu_system(1, 0.5))))
@example((fpu_system(3, 2.0), 0.005, 0.5, at_rest(fpu_system(3, 2.0))))
def test_coefficients_and_rotations_equal_the_per_function_expansion(point):
    sys, h, c1, _ = point
    part = sys.partition
    for m in probe_methods(c1):
        want, got = old_coefficients(m, part, h), m.coefficients(part, h)
        assert [None if x is None else x.tobytes() for x in got] == \
               [None if x is None else x.tobytes() for x in want], m.name
    # rotation is the flow over h; the rows at the node c1 are the stage's,
    # compared with the coefficients above
    assert [x.tobytes() for x in rotation(part, h)] == [x.tobytes() for x in old_rotation(part, h)]


@PROPERTY
@given(operating_points())
def test_structure_defects_equal_the_state_level_route(point):
    sys, h, c1, s = point
    for m in probe_methods(c1):
        want = outcome(old_structure_defects, m, sys, h, s)
        assert outcome(defect_values, m, sys, h, s) == want, m.name
        assert outcome(probe_values, m, sys, h, s) == want, m.name


def kink_system(part: Partition) -> System:
    """U = sum |q|, so g(q) = -sign(q), the sign of a zero included."""
    return System(part, lambda q: np.sum(np.abs(q), axis=0),
                  lambda q: -np.copysign(np.ones_like(q), q), "kink")


def test_structure_defects_from_a_negative_zero_equal_the_state_level_route():
    """The adjoint probe steps back a copy of the state itself, with each -0.0
    kept (adding a zero perturbation would make it +0.0); on the kink force a
    lost sign flips a kick, which moves the adjoint defect by up to |h|."""
    sys, c1 = kink_system(Partition(2, 2, 30.0)), 0.3
    s = State([-0.0, 0.0, -0.0, 0.25], [0.0, -0.0, -0.0, -0.5])
    for h in (0.1, -0.05):
        for m in probe_methods(c1):
            want = outcome(old_structure_defects, m, sys, h, s)
            assert outcome(defect_values, m, sys, h, s) == want, m.name
            assert outcome(probe_values, m, sys, h, s) == want, m.name


@PROPERTY
@given(operating_points(), st.integers(1, 6))
def test_conjugacy_check_equals_the_state_level_route(point, n):
    sys, h, c1, s = point
    for m in [*(METHODS[k] for k in SYMMETRIC), symplectic("S", c1)]:
        assert outcome(conjugacy_values, m, sys, h, s, n) == \
               outcome(old_conjugacy_check, m, sys, h, s, n), m.name


@PROPERTY
@given(operating_points())
def test_the_public_flows_keep_their_bits(point):
    sys, h, _, s = point
    part, ups = sys.partition, upsilon_from(METHODS["ERKN3"])

    def result(route):
        with np.errstate(over="ignore", invalid="ignore"):
            return route().z.tobytes()

    tm = trig_method_from(METHODS["ERKN4"])
    for new, old in (
        (lambda: flow_linear(part, h, s), lambda: old_flow_linear(part, h, s)),
        (lambda: flow_kick(sys, ups, h, s), lambda: old_flow_kick(sys, ups, h, s)),
        (lambda: flow_kick(sys, ups, 0.5 * h, s, nu=h * part.omega),
         lambda: old_flow_kick(sys, ups, 0.5 * h, s, nu=h * part.omega)),
        (lambda: strang_lnl_step(METHODS["ERKN2"], sys, h, s),
         lambda: old_strang_lnl_step(METHODS["ERKN2"], sys, h, s)),
        (lambda: trig_step_composed(tm, sys, h, s), lambda: old_trig_step_composed(tm, sys, h, s)),
    ):
        assert result(new) == result(old)


def spoiled(weight: str, value: float, every: int, at_zero: bool = True) -> ErknMethod:
    """ERKN3 with one weight replaced by value wherever int(10 nu) is a
    multiple of every, nu = 0 included only if at_zero."""
    base = METHODS["ERKN3"]
    f = getattr(base, weight)

    def bad(nu: float) -> float:
        return value if int(10 * nu) % every == 0 and (nu or at_zero) else f(nu)

    return dataclasses.replace(base, name=f"ERKN3/{weight}={value}", **{weight: bad})


@PROPERTY
@given(st.lists(st.floats(0.0, 200.0), max_size=60), st.floats(0.05, 0.95),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(2, 7))
def test_one_pass_reports_equal_the_per_point_loops(check_grid, grid, c1, value, every):
    methods = [*METHODS.values(), symplectic("S", c1), spoiled("b", value, every),
               spoiled("bbar", value, every), spoiled("b", value, every, at_zero=False)]
    for g in (grid, NU_GRID, check_grid(25.0 + 10.0 * c1)):
        for m in methods:
            sym, sp = structure_reports(m, g)
            want_sym, want_sp = old_check_symmetry(m, g), old_check_symplecticity(m, g)
            assert (sym.passed, sym.max_residual.hex()) == \
                   (want_sym.passed, want_sym.max_residual.hex()), m.name
            assert (sp.passed, sp.d1.hex(), sp.max_residual.hex()) == \
                   (want_sp.passed, want_sp.d1.hex(), want_sp.max_residual.hex()), m.name


def test_check_text_equals_the_per_point_loops(monkeypatch, check_grid):
    """`check` for every registry method on an (h, omega) grid that crosses
    h*omega = 10 and includes omega = 0 and 1e5, against the same command
    with the scalar-loop reports on the per-point grid: `check_reports` scans
    the per-point stretch beyond NU_GRID, and no stretch at nu <= 10."""
    hs, omegas = (0.01, 0.1, 0.3), (0.0, 1.0, 50.0, 99.0, 101.0, 200.0, 1e5)
    nus = (0.0, 9.99, 10.0, 10.05, 10.1, 23.0, 90.0, 109.95, 110.0, 3e4, 1e5)

    def texts():
        out = []
        for h in hs:
            for omega in omegas:
                for name in METHODS:
                    buf = io.StringIO()
                    out.append((cli.cmd_check(name, h=h, omega=omega, out=buf, err=buf),
                                buf.getvalue()))
        return out

    def loops(m, grid=NU_GRID):
        return old_check_symmetry(m, grid), old_check_symplecticity(m, grid)

    def stretch_loops(m, grid):  # the loops on the per-point stretch to grid[-1] = nu
        want = check_grid(grid[-1])[len(NU_GRID):]
        same.append(grid.tolist() == want)
        return loops(m, want)

    got, same = texts(), []
    monkeypatch.setattr(methods, "nu_grid_reports", loops)
    monkeypatch.setattr(methods, "structure_reports", stretch_loops)
    assert got == texts()
    for nu in nus:
        methods.check_reports(METHODS["ERKN2"], nu)
    stretched = sum(h * omega > 10.0 for h in hs for omega in omegas) * len(METHODS)
    assert same == [True] * (stretched + sum(nu > 10.0 for nu in nus))


def report_hexes(reports) -> list:
    return [x if isinstance(x, bool) else x.hex() for r in reports for x in dataclasses.astuple(r)]


@PROPERTY
@given(st.sampled_from([0.0, 10.0]) | st.floats(0.0, 200.0) |
       st.floats(10.0, 20.0, exclude_min=True, exclude_max=True) |
       st.floats(110.0, 200.0, exclude_min=True))
def test_check_reports_equal_the_reports_on_the_whole_check_grid(check_grid, nu):
    """`check_reports` joins the NU_GRID memo with the stretch to nu: the
    reports of one scan of the per-point grid, for every registry method and
    for a weight that takes only scalars, whose residual grows beyond 10."""
    scalar_only = ErknMethod("scalar", 0.5, bbar=lambda x: 0.5 * float(sinc(0.5 * x)),
                             b=lambda x: math.cos(0.5 * x) * (1.0 + 1e-3 * max(0.0, x - 10.0)))
    for m in [*METHODS.values(), scalar_only]:
        assert report_hexes(methods.check_reports(m, nu)) == \
               report_hexes(structure_reports(m, check_grid(nu))), m.name


def mixed_batch(sys: System, h: float, c1: float, s: State, kinds: list) -> tuple:
    """The coefficient columns of a batch (one-stage where kinds[j] is False,
    ERKN3's kick-first scheme where True) and its (2, dim, B) block of starts."""
    part, trig = sys.partition, trig_method_from(METHODS["ERKN3"])
    coefs = [(trig if kick else symplectic("S", c1)).coefficients(part, h) for kick in kinds]
    block = np.stack([s.z * (1.0 - 0.1 * j) for j in range(len(kinds))], axis=-1)
    return Coefficients.columns(coefs), block


@PROPERTY
@given(operating_points(), st.integers(1, 5),
       st.lists(st.booleans(), min_size=1, max_size=4))
def test_advance_equals_n_calls_of_one_bound_kernel(point, n, kinds):
    """`advance` lifts or copies z, binds one kernel and calls it n times:
    one-stage, kick-first and a batch with a column of each kind alike, with
    the input left as it was."""
    sys, h, c1, s = point
    cases = [(symplectic("S", c1).coefficients(sys.partition, h), s.z),
             (trig_method_from(METHODS["ERKN3"]).coefficients(sys.partition, h), s.z),
             mixed_batch(sys, h, c1, s, kinds)]
    with np.errstate(over="ignore", invalid="ignore"):
        for c, z in cases:
            start = z.copy()
            want = lift(sys.force, c, z) if c.kick is not None else z.copy()
            step = step_map(sys.force, c, want)
            for _ in range(n):
                step()
            got = advance(sys.force, c, z, n)
            assert got.shape == z.shape and got.tobytes() == want[:2].tobytes()
            assert z.tobytes() == start.tobytes()


@PROPERTY
@given(operating_points())
def test_erkn_step_equals_one_call_of_the_stepper(point):
    """`erkn_step` (for one-stage and kick-first methods alike) is one call of
    the bound stepper, and its state is a read-only (2, dim) array."""
    sys, h, c1, s = point
    for m in probe_methods(c1):
        with np.errstate(over="ignore", invalid="ignore"):
            want, got = stepper(m, sys, h)(s).z, erkn_step(m, sys, h, s).z
        assert got.shape == (2, sys.partition.dim) and not got.flags.writeable, m.name
        assert got.tobytes() == want.tobytes(), m.name
