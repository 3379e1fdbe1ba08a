"""Built-in scenarios: geometry, loop families, targets and rewrite data.

Each constructor bundles a gauge domain with the loop families whose extremal
lengths feed the width bounds, the target classes those bounds apply to, and
the intersection/sweep tables the symbolic calculus consults.  Each target
class carries the recipe that derives its certificate.  Each constructor
checks its own arguments and raises ``ScenarioParameterError`` for a value out
of type or range.  ``SCENARIOS`` declares each scenario name once, with its
constructor and the configuration keys it takes and their defaults, and
``build_scenario`` builds a scenario from a configuration through it.
``REFERENCE_CASES`` holds the paper's reference cases with their closed forms.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ScenarioParameterError
from .gauge import (
    BaseDescriptor,
    BasePoint,
    GaugeDomain,
    MetricSpec,
    TangentVector,
    codisk_domain,
)
from .loops import (
    GridAxis,
    LoopFamily,
    ParamGrid,
    QuadratureSpec,
    cutoff,
    cutoff_deriv,
)
from .stralg import (
    RuleContext,
    closed_page_recipe,
    diagonal_action_recipe,
    non_orientable_recipe,
    open_book_fundamental_recipe,
    open_book_point_recipe,
    product_torus_recipe,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Scenario types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TargetClass:
    """The homology class a bound applies to, with the cohomology label it
    pairs nontrivially with.  The pairing is declared, never inferred.

    ``recipe`` is the ``stralg`` rule chain that derives the target's
    certificate; ``both_orientations`` marks a chain that holds for either
    rotation orientation, so the bound is the smaller of the two."""

    name: str
    declared_nonzero_pairing: str
    recipe: Callable
    justification: str = ""
    both_orientations: bool = False


@dataclass(frozen=True, slots=True)
class BindingSelector:
    """Resolves a symbolic filtration name to scale x (sup or inf) of a
    named loop family."""

    family: str
    mode: str  # "sup" | "inf"
    scale: float = 1.0


@dataclass(frozen=True, eq=False)
class Scenario:
    id: str
    params: dict
    domain: GaugeDomain
    families: dict[str, LoopFamily]
    targets: tuple[TargetClass, ...]
    symbolic_bindings: dict[str, BindingSelector]
    rule_context: RuleContext
    quad: QuadratureSpec = QuadratureSpec(panels=64)
    equality: dict = field(default_factory=dict)  # target name -> note
    notes: str = ""

    def __post_init__(self):
        for name, sel in self.symbolic_bindings.items():
            if sel.family not in self.families:
                raise ScenarioParameterError(
                    f"binding {name!r} refers to unknown family {sel.family!r}"
                )
            if sel.mode not in ("sup", "inf"):
                raise ScenarioParameterError(f"binding {name!r} has bad mode {sel.mode!r}")

    def target(self, name: str) -> TargetClass:
        for t in self.targets:
            if t.name == name:
                return t
        raise ScenarioParameterError(f"scenario {self.id!r} has no target {name!r}")


# ---------------------------------------------------------------------------
# Sphere geometry helpers
# ---------------------------------------------------------------------------

def _sphere_base(n: int) -> BaseDescriptor:
    return BaseDescriptor("sphere", n, ("embedding",))


def ellipsoid_metric(n: int, a: float, stretched_axes: int = 2) -> MetricSpec:
    """Pullback of the Euclidean metric under the linear map scaling the last
    ``stretched_axes`` ambient coordinates by a; tangent vectors are given in
    ambient coordinates, so the Jacobian is the constant diagonal map."""
    diag = np.ones(n + 1)
    diag[n + 1 - stretched_axes:] = a
    jac = np.diag(diag)
    return MetricSpec("embedding-induced", lambda q: jac, 1.0)


def round_metric(n: int, a: float) -> MetricSpec:
    """The comparison metric a^2 x Euclidean, i.e. scaling every direction."""
    jac = a * np.eye(n + 1)
    return MetricSpec("embedding-induced", lambda q: jac, 1.0)


def ellipsoid_domain(n: int, a: float, stretched_axes: int = 2) -> GaugeDomain:
    return codisk_domain(
        _sphere_base(n),
        ellipsoid_metric(n, a, stretched_axes),
        metadata=f"unit codisk of stretched sphere metric, n={n}, a={a}",
    )


def ellipsoid_round_domain(n: int, a: float) -> GaugeDomain:
    return codisk_domain(
        _sphere_base(n),
        round_metric(n, a),
        metadata=f"unit codisk of scaled round metric, n={n}, a={a}",
    )


def _page_circle_family(name: str, grid: ParamGrid, sign: int) -> LoopFamily:
    """Loops rotating the circle over page points x of the sphere open book:
    t -> (x, rho cos(2 pi s t), rho sin(2 pi s t)) with rho = sqrt(1-|x|^2)."""
    w = TWO_PI * sign

    def rho(X: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, 1.0 - np.vecdot(X, X)))[:, None]

    def points(X: np.ndarray, ts: np.ndarray) -> np.ndarray:
        k, r, ang = X.shape[1], rho(X), w * ts
        out = np.empty((X.shape[0], ts.shape[0], k + 2))
        out[:, :, :k] = X[:, None, :]
        out[:, :, k] = r * np.cos(ang)
        out[:, :, k + 1] = r * np.sin(ang)
        return out

    def velocities(X: np.ndarray, ts: np.ndarray) -> np.ndarray:
        k, r, ang = X.shape[1], rho(X), w * ts
        out = np.zeros((X.shape[0], ts.shape[0], k + 2))
        out[:, :, k] = -w * r * np.sin(ang)
        out[:, :, k + 1] = w * r * np.cos(ang)
        return out

    return LoopFamily(name, grid, points=points, velocities=velocities, chart="embedding")


def _page_grid(page_dim: int) -> ParamGrid:
    # box whose corners reach the binding |x| = 1 so the family includes the
    # degenerate constant loops there
    if page_dim == 0:
        return ParamGrid(())
    s = 1.0 / math.sqrt(page_dim)
    count = 17 if page_dim == 1 else 9
    return ParamGrid(tuple(GridAxis(-s, s, count) for _ in range(page_dim)))


def _page_rotation_families(page_dim: int) -> dict[str, LoopFamily]:
    grid = _page_grid(page_dim)
    return {"L+": _page_circle_family("L+", grid, +1), "L-": _page_circle_family("L-", grid, -1)}


# the rotation families of every open book are named L+ and L-
def _rotation_bindings() -> dict[str, BindingSelector]:
    return {
        "E+": BindingSelector("L+", "sup"),
        "E-": BindingSelector("L-", "sup"),
        "e+": BindingSelector("L+", "inf"),
        "e-": BindingSelector("L-", "inf"),
    }


def _open_book_context(boundary_nonempty: bool) -> RuleContext:
    return RuleContext(
        axioms=frozenset({"ACTION_IS_BV"}),
        iota_table={"id": "PD(T*M)", "pt": "T*M_pt", "orbit": "PD_dual(V)"},
        sweep_table={"pt": "orbit"},
        boundary_nonempty=boundary_nonempty,
    )


_CONSTANT_LOOPS_TARGET = TargetClass(
    "[pt]", "PD(T*M)", open_book_point_recipe, "constant loops sweep the whole base"
)


def _fiber_pairing_target(name: str) -> TargetClass:
    """The fundamental class of an open book whose page has boundary."""
    return TargetClass(
        name,
        "T*M_pt",
        open_book_fundamental_recipe,
        "fundamental class pairs with a fiber",
        both_orientations=True,
    )


# ---------------------------------------------------------------------------
# Scenario constructors
# ---------------------------------------------------------------------------

def _real(name: str, value) -> float:
    """``value`` as a float: an int or a finite float; a bool, a string, a
    NaN or infinite number or an int past the float range raises
    ``ScenarioParameterError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioParameterError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise ScenarioParameterError(f"{name} must be finite, got {value!r}")
    return real


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an int no less than ``minimum``: an int or an
    integer-valued float; anything else raises ``ScenarioParameterError``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ScenarioParameterError(f"{name} must be >= {minimum}")
    return value


def ellipsoid_scenario(n: int, a: float) -> Scenario:
    """Unit codisk of the stretched sphere metric (last two axes scaled by a),
    with the open-book rotation families over the page disk."""
    n, a = _integer("n", n, 2), _real("a", a)
    if not (0.0 < a <= 1.0):
        raise ScenarioParameterError("a must lie in (0, 1]")
    return Scenario(
        id=f"ellipsoid1(n={n},a={a})",
        params={"scenario": "ellipsoid1", "n": n, "a": a},
        domain=ellipsoid_domain(n, a),
        families=_page_rotation_families(n - 1),
        targets=(_CONSTANT_LOOPS_TARGET, _fiber_pairing_target("[S^n]")),
        symbolic_bindings=_rotation_bindings(),
        rule_context=_open_book_context(boundary_nonempty=True),
        equality={"[S^n]": "width of the fundamental class equals the equator length"},
        notes="rotation-orbit lengths are 2 pi a sqrt(1-|x|^2); binding loops are constant",
    )


def ellipsoid2_scenario(n: int, a: float) -> Scenario:
    """Sphere metric stretched on the last four axes; the diagonal circle
    action rotates two of them, with orbit lengths 2 pi a r."""
    n, a = _integer("n", n, 3), _real("a", a)
    if not (0.0 < a <= 1.0):
        raise ScenarioParameterError("a must lie in (0, 1]")
    domain = codisk_domain(
        _sphere_base(n),
        ellipsoid_metric(n, a, stretched_axes=4),
        metadata=f"unit codisk, four stretched axes, n={n}, a={a}",
    )

    # orbits of the diagonal action at radius r = params[:, 0]
    def points(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        r = P[:, :1]
        out = np.zeros((P.shape[0], ts.shape[0], n + 1))
        out[:, :, 0] = np.sqrt(np.maximum(0.0, 1.0 - r * r))
        out[:, :, n - 1] = r * np.cos(TWO_PI * ts)
        out[:, :, n] = r * np.sin(TWO_PI * ts)
        return out

    def velocities(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        r = P[:, :1]
        out = np.zeros((P.shape[0], ts.shape[0], n + 1))
        out[:, :, n - 1] = -TWO_PI * r * np.sin(TWO_PI * ts)
        out[:, :, n] = TWO_PI * r * np.cos(TWO_PI * ts)
        return out

    grid = ParamGrid((GridAxis(0.0, 1.0, 17),))
    families = {
        "orbits": LoopFamily("orbits", grid, points=points, velocities=velocities, chart="embedding")
    }
    ctx = RuleContext(
        axioms=frozenset({"OB_BV2", "HOPF_CONTRACT"}),
        iota_table={"id": "PD(T*M)"},
    )
    return Scenario(
        id=f"ellipsoid2(n={n},a={a})",
        params={"scenario": "ellipsoid2", "n": n, "a": a},
        domain=domain,
        families=families,
        targets=(
            TargetClass("[pt]", "PD(T*M)", diagonal_action_recipe, "constant loops sweep the whole base"),
            TargetClass("[S^n]", "PD(T*M)", diagonal_action_recipe, "same derivation; equality is known"),
        ),
        symbolic_bindings={"E_A": BindingSelector("orbits", "sup")},
        rule_context=ctx,
        equality={
            "[pt]": "matching lower bound by an explicit ball family",
            "[S^n]": "matching lower bound by an explicit ball family",
        },
        notes="diagonal-action orbit lengths are 2 pi a r, supremum at r = 1",
    )


def flat_torus_domain(
    d: int,
    radius: float = 1.0,
    lengths: Optional[tuple[float, ...]] = None,
    charts: tuple[str, ...] = ("torus",),
) -> GaugeDomain:
    base = BaseDescriptor("torus", d, charts)
    if lengths is None:
        metric = MetricSpec("flat", radius=radius)
    else:
        if len(lengths) != d:
            raise ScenarioParameterError("lengths must have one entry per factor")
        jac = np.diag(np.asarray(lengths, dtype=float))
        metric = MetricSpec("embedding-induced", lambda q: jac, radius)
    return codisk_domain(base, metric, metadata=f"flat torus codisk, radius {radius}")


def camel_domain(d: int, eps: float, delta: float) -> GaugeDomain:
    """Fiberwise unbounded domain over the d-torus: the last momentum is
    bounded below everywhere and bounded above only on the q1 = 0 slice
    (expressed through a dedicated chart flag, never by thresholding)."""
    base = BaseDescriptor("torus", d, ("camel", "camel:q1zero"))
    lo = eps / 2.0 + delta
    hi = eps / 2.0 + 2.0 * delta

    def oracle(q: BasePoint, v: TangentVector):
        w = v.components
        c = w[:, -1]
        finite = ~(w[:, :-1] != 0.0).any(axis=1)
        if q.chart_id != "camel:q1zero":
            finite &= c <= 0.0
        return np.where(finite, np.where(c < 0.0, -c * lo, c * hi), math.inf)

    return GaugeDomain(base, oracle, metadata=f"camel domain, eps={eps}, delta={delta}")


def _torus_line_family(name: str, zeros: int, sign: int, d: int, chart: str, count: int) -> LoopFamily:
    """Straight loops (0 x zeros, p..., sign * t) in lifted torus coordinates,
    one per parameter p of the torus grid with ``count`` points per axis; the
    closure check folds back into the fundamental domain."""

    def points(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        out = np.empty((P.shape[0], ts.shape[0], d))
        out[:, :, :zeros] = 0.0
        out[:, :, zeros:-1] = P[:, None, :]
        out[:, :, -1] = sign * ts
        return out

    def velocities(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        out = np.zeros((P.shape[0], ts.shape[0], d))
        out[:, :, -1] = sign
        return out

    return LoopFamily(
        name,
        _torus_grid(d - zeros - 1, count),
        points=points,
        velocities=velocities,
        chart=chart,
        identify=_unit_torus_fold,
    )


def _unit_torus_fold(c: np.ndarray) -> np.ndarray:
    return np.mod(c, 1.0)


def _torus_grid(dim: int, count: int) -> ParamGrid:
    return ParamGrid(tuple(GridAxis(0.0, 1.0, count, periodic=True) for _ in range(dim)))


def _torus_scenario(params: dict, domain: GaugeDomain, k: int, charts: tuple[str, str], notes: str) -> Scenario:
    """Loop families on pt x T^d over ``domain``: the negative rotation over
    the full torus, in chart ``charts[0]``, and the positive rotation
    constrained to the first k coordinates being zero, in chart
    ``charts[1]``, with the subtorus target they bound."""
    d = domain.base.dim
    families = {
        "L-": _torus_line_family("L-", 0, -1, d, charts[0], 4),
        "L+^k": _torus_line_family("L+^k", k, +1, d, charts[1], 4),
    }
    ctx = RuleContext(
        sweep_table={"slice-": "id", "slice+k": f"T^{d - k}"},
        iota_table={f"T^{d - k}": f"PD(VxT^{d - k})"},
    )
    return Scenario(
        id=f"{params['scenario']}(" + ",".join(f"{k2}={v}" for k2, v in params.items() if k2 != "scenario") + ")",
        params=params,
        domain=domain,
        families=families,
        targets=(
            TargetClass(
                "[T^k]",
                f"PD(VxT^{d - k})",
                product_torus_recipe,
                "coordinate subtorus pairs with the complementary slice",
            ),
        ),
        symbolic_bindings={
            "E-": BindingSelector("L-", "sup"),
            "E+^k": BindingSelector("L+^k", "sup"),
        },
        rule_context=ctx,
        notes=notes,
    )


def product_torus_scenario(d: int, k: int, radius: float) -> Scenario:
    """The flat d-torus codisk of the given radius, with the loop families of
    ``_torus_scenario``."""
    d, k, radius = _integer("d", d, 1), _integer("k", k, 1), _real("radius", radius)
    if k >= d:
        raise ScenarioParameterError("k must satisfy 0 < k < d")
    if radius < 0:
        raise ScenarioParameterError("radius must be >= 0")
    params = {"scenario": "product_torus", "d": d, "k": k, "radius": radius}
    return _torus_scenario(
        params, flat_torus_domain(d, radius), k, ("torus", "torus"), "flat geodesic loops along the last factor"
    )


def camel_scenario(n: int, eps: float, delta: float) -> Scenario:
    """The camel domain over the n-torus, with the loop families of
    ``_torus_scenario`` for k = 1; the positive rotation runs in the q1 = 0
    chart, where the last momentum is bounded above."""
    n, eps, delta = _integer("n", n, 2), _real("eps", eps), _real("delta", delta)
    if eps <= 0 or delta <= 0:
        raise ScenarioParameterError("eps and delta must be positive")
    params = {"scenario": "camel", "n": n, "eps": eps, "delta": delta}
    notes = "both families have constant support integrands; the bound is eps + 3 delta"
    return _torus_scenario(params, camel_domain(n, eps, delta), 1, ("camel", "camel:q1zero"), notes)


def klein_identify(a: float, b: float):
    """Fold lifted plane coordinates into the fundamental domain of the
    quotient by (x, y) -> (x + a, -y) and (x, y) -> (x, y + b)."""

    def fold(c: np.ndarray) -> np.ndarray:
        x, y = float(c[0]), float(c[1])
        k = math.floor(x / a)
        x -= k * a
        if k % 2:
            y = -y
        return np.array([x, y % b])

    return fold


def klein_bottle_scenario(a: float, b: float, radius: float = 1.0) -> Scenario:
    """Flat Klein bottle; the loop class consists of straight lines with
    x-winding one, which reverse orientation, paired with their reverses."""
    a, b, radius = _real("a", a), _real("b", b), _real("radius", radius)
    if a <= 0 or b <= 0:
        raise ScenarioParameterError("a and b must be positive")
    if radius < 0:
        raise ScenarioParameterError("radius must be >= 0")
    base = BaseDescriptor("klein", 2, ("klein",))
    domain = codisk_domain(
        base, MetricSpec("flat", radius=radius), metadata=f"flat Klein bottle codisk, a={a}, b={b}"
    )
    fold = klein_identify(a, b)
    x0 = a / 4.0

    # the straight loop at y0 = params[:, 0] moves from (x0, y0) by the step
    # (a, -2 y0) along a profile phi(t); it closes in the quotient, where
    # (x0 + a, -y0) folds back to (x0, y0)
    def along(P: np.ndarray, phi: np.ndarray, origin: bool) -> np.ndarray:
        """origin + phi * step (origin=True) or phi * step, shape (G, m, 2)."""
        y0 = P[:, :1]
        out = np.empty((P.shape[0], phi.shape[0], 2))
        out[:, :, 0] = x0 + phi * a if origin else phi * a
        out[:, :, 1] = y0 + phi * (-2.0 * y0) if origin else phi * (-2.0 * y0)
        return out

    def straight_points(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return along(P, ts, True)

    def straight_velocities(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return along(P, np.ones(ts.shape[0]), False)

    # out along the straight loop and back along its reverse; closes in the
    # lift, so its length is l(q) + l(reverse q)
    def split(ts: np.ndarray):
        t = np.mod(ts, 1.0)
        outward = t < 0.5
        return np.where(outward, 2.0, -2.0), np.where(outward, 2.0 * t, 2.0 - 2.0 * t)

    def doubled_points(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        _, s = split(ts)
        return along(P, cutoff(s), True)

    def doubled_velocities(P: np.ndarray, ts: np.ndarray) -> np.ndarray:
        rate, s = split(ts)
        return along(P, rate * cutoff_deriv(s), False)

    grid = ParamGrid((GridAxis(-b / 4.0, b / 4.0, 17),))
    families = {
        "L": LoopFamily(
            "L", grid, points=straight_points, velocities=straight_velocities, chart="klein", identify=fold
        ),
        "Ldoubled": LoopFamily(
            "Ldoubled", grid, points=doubled_points, velocities=doubled_velocities, chart="klein", identify=fold
        ),
    }
    ctx = RuleContext(
        intersection_table={("q", "qbar"): "pt"},
        iota_table={"pt": "T*Sigma_pt"},
    )
    return Scenario(
        id=f"klein(a={a},b={b},r={radius})",
        params={"scenario": "klein", "a": a, "b": b, "radius": radius},
        domain=domain,
        families=families,
        targets=(
            TargetClass(
                "[Sigma]", "T*Sigma_pt", non_orientable_recipe, "fundamental class pairs with a fiber"
            ),
        ),
        symbolic_bindings={
            "E": BindingSelector("Ldoubled", "inf"),
            "l_q": BindingSelector("Ldoubled", "inf", scale=0.5),
            "l_qbar": BindingSelector("Ldoubled", "inf", scale=0.5),
        },
        rule_context=ctx,
        notes=(
            "loop class restricted to straight lines in the flat structure; "
            "the straight-line infimum 2a sqrt(1) is the flat optimum, "
            "cross-checked against a coarse piecewise-linear grid search"
        ),
    )


def open_book_scenario(page: str, radius: float, len_page: float, len_fiber: float) -> Scenario:
    """Rotation-invariant geometries with an explicit page/angle splitting,
    the angle rotated by the circle action.

    page 'interval' has the round profile and gives the 2-sphere, so its
    page and fiber lengths are 1; page 'circle' has the trivial profile and
    gives the flat 2-torus with page and fiber lengths len_page, len_fiber.
    """
    radius, len_page, len_fiber = _real("radius", radius), _real("len_page", len_page), _real("len_fiber", len_fiber)
    if radius < 0:
        raise ScenarioParameterError("radius must be >= 0")
    if len_page <= 0 or len_fiber <= 0:
        raise ScenarioParameterError("len_page and len_fiber must be positive")
    params = {"scenario": "open_book", "page": page, "radius": radius, "len_page": len_page, "len_fiber": len_fiber}

    if page == "interval":
        if (len_page, len_fiber) != (1.0, 1.0):
            raise ScenarioParameterError("the interval page has the round profile: len_page and len_fiber are 1")
        domain = codisk_domain(
            _sphere_base(2),
            MetricSpec("embedding-induced", lambda q: np.eye(3), radius),
            metadata=f"round 2-sphere codisk, radius {radius}",
        )
        return Scenario(
            id=f"open_book(interval,round,r={radius})",
            params=params,
            domain=domain,
            families=_page_rotation_families(1),
            targets=(_CONSTANT_LOOPS_TARGET, _fiber_pairing_target("[M]")),
            symbolic_bindings=_rotation_bindings(),
            rule_context=_open_book_context(boundary_nonempty=True),
            notes="the interval page with round profile closes up to the 2-sphere",
        )

    if page == "circle":
        # the fiber loops t -> (u, +-t) over the page points u
        return Scenario(
            id=f"open_book(circle,trivial,r={radius},lp={len_page},lf={len_fiber})",
            params=params,
            domain=flat_torus_domain(2, radius, (len_page, len_fiber)),
            families={
                "L+": _torus_line_family("L+", 0, +1, 2, "torus", 8),
                "L-": _torus_line_family("L-", 0, -1, 2, "torus", 8),
            },
            targets=(
                _CONSTANT_LOOPS_TARGET,
                TargetClass(
                    "[V]",
                    "PD_dual(V)",
                    closed_page_recipe,
                    "page class pairs with its dual",
                    both_orientations=True,
                ),
            ),
            symbolic_bindings=_rotation_bindings(),
            rule_context=_open_book_context(boundary_nonempty=False),
            notes="circle page with trivial profile: the flat 2-torus",
        )

    raise ScenarioParameterError(f"unknown page {page!r}")


# ---------------------------------------------------------------------------
# The scenario table and JSON round-tripping
# ---------------------------------------------------------------------------

# every scenario name with its constructor and the keys it takes, each with
# its default, keyed by the constructor argument the key fills; the
# constructor checks the values
SCENARIOS: dict[str, tuple[Callable[..., Scenario], dict[str, object]]] = {
    "ellipsoid1": (ellipsoid_scenario, {"n": 2, "a": 1.0}),
    "ellipsoid2": (ellipsoid2_scenario, {"n": 3, "a": 1.0}),
    "open_book": (open_book_scenario, {"page": "interval", "radius": 1.0, "len_page": 1.0, "len_fiber": 1.0}),
    "product_torus": (product_torus_scenario, {"d": 2, "k": 1, "radius": 1.0}),
    "camel": (camel_scenario, {"n": 2, "eps": 1.0, "delta": 0.1}),
    "klein": (klein_bottle_scenario, {"a": 1.0, "b": 1.0, "radius": 1.0}),
}


def build_scenario(config: dict) -> Scenario:
    """Construct the scenario that ``config["scenario"]`` names from the
    other keys of ``config``; a key the configuration leaves out takes its
    default.  An unknown name or a key the scenario does not take raises
    ``ScenarioParameterError``, and so does every value its constructor
    refuses."""
    name = config.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ScenarioParameterError(f"scenario must be one of {list(SCENARIOS)}, got {name!r}")
    build, defaults = SCENARIOS[name]
    foreign = [key for key in config if key != "scenario" and key not in defaults]
    if foreign:
        raise ScenarioParameterError(f"scenario {name!r} takes no key {', '.join(map(repr, foreign))}")
    return build(**{key: config.get(key, default) for key, default in defaults.items()})


def scenario_config(s: Scenario) -> dict:
    """The configuration mapping that reconstructs ``s`` via build_scenario."""
    return dict(s.params)


# ---------------------------------------------------------------------------
# Reference cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReferenceCase:
    """One row of the paper's regression tables: a ``build_scenario``
    configuration, one of its targets, that target's closed-form bound and
    the relative tolerance the computed bound must meet."""

    table: str
    config: dict
    target: str
    expected: float
    rel_tol: float


# rows of one configuration are adjacent, in the order of its targets
REFERENCE_CASES: tuple[ReferenceCase, ...] = (
    *(
        ReferenceCase("ellipsoid1", {"scenario": "ellipsoid1", "n": n, "a": a}, target, expected, 1e-4)
        for n in (2, 3)
        for a in (0.2, 0.5, 1.0)
        for target, expected in (("[pt]", 4 * math.pi * a), ("[S^n]", 2 * math.pi * a))
    ),
    *(
        ReferenceCase("ellipsoid2", {"scenario": "ellipsoid2", "n": n, "a": a}, "[pt]", 2 * math.pi * a, 1e-4)
        for n in (3, 4)
        for a in (0.4, 1.0)
    ),
    *(
        ReferenceCase(
            "camel", {"scenario": "camel", "n": n, "eps": eps, "delta": delta}, "[T^k]", eps + 3 * delta, 1e-9
        )
        for n in (2, 3)
        for eps in (0.4, 1.0)
        for delta in (0.1, 0.01, 0.001)
    ),
    *(
        ReferenceCase("klein", {"scenario": "klein", "a": a, "b": b}, "[Sigma]", 2 * a, 1e-6)
        for a, b in ((1.0, 1.0), (0.5, 2.0))
    ),
)
