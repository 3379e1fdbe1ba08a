"""Built-in scenarios: geometry, loop families, targets and rewrite data.

Each constructor bundles a gauge domain with the target classes its width
bounds apply to, the intersection/sweep tables the symbolic calculus consults,
and the generator table: every class some target's certificate starts from,
and no other, with the loop family whose sup or inf length bounds its
threshold.  That table is the one list of a scenario's numeric work: its
families and the extrema refined on them are read off the selectors, and no
other family or extremum is evaluated.  Each target class carries the recipe
that derives its certificate from those generators.  Each constructor
checks its own arguments and raises ``ScenarioParameterError`` for a value out
of type or range.  ``SCENARIOS`` declares each scenario name once, with its
constructor and the configuration keys it takes and their defaults, and
``build_scenario`` builds a scenario from a configuration through it; the
CLI's scenario flags are read off it too.
``REFERENCE_CASES`` holds the paper's reference cases with their closed forms.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ScenarioParameterError, is_real
from .gauge import (
    BaseDescriptor,
    BasePoint,
    GaugeDomain,
    MetricSpec,
    TangentVector,
    codisk_domain,
)
from .loops import GridAxis, LoopFamily, ParamGrid
from .stralg import (
    ActionClass,
    BVPreimage,
    LoopCycle,
    RuleContext,
    Term,
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
    rotation orientation, so the bound is the smaller of the two.
    ``equality``, when not empty, says why the width is known to equal the
    bound."""

    name: str
    declared_nonzero_pairing: str
    recipe: Callable
    both_orientations: bool = False
    equality: str = ""


@dataclass(frozen=True, slots=True)
class BindingSelector:
    """Resolves the filtration symbol ``symbol`` to scale x (sup or inf) of
    the lengths of the loop family ``family``."""

    symbol: str
    family: LoopFamily
    mode: str  # "sup" | "inf"
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise ScenarioParameterError(f"binding {self.symbol!r} has bad mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A gauge domain with its targets and rewrite data.

    ``generators`` maps each class some target's certificate starts from,
    and no other, to the selector of its threshold: the class lies in the
    filtration at the selector's symbol, which resolves to the sup or inf of
    a family's lengths.  Recipes take their leaves from this table, and the
    replay accepts no other leaf."""

    id: str
    params: dict
    domain: GaugeDomain
    targets: tuple[TargetClass, ...]
    generators: dict[Term, BindingSelector]
    rule_context: RuleContext

    def __post_init__(self):
        # a family's name keys its lengths and its grid values
        named = self.families
        if any(named[sel.family.name] is not sel.family for sel in self.generators.values()):
            raise ScenarioParameterError(f"scenario {self.id!r} has two families of one name")

    @property
    def families(self) -> dict[str, LoopFamily]:
        """The families the generators' selectors name, keyed by name, in
        order of first use."""
        return {sel.family.name: sel.family for sel in self.generators.values()}

    @property
    def symbolic_bindings(self) -> dict[str, BindingSelector]:
        """The generators' selectors, keyed by symbol."""
        return {sel.symbol: sel for sel in self.generators.values()}

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


def ellipsoid_domain(n: int, a: float, stretched_axes: int = 2) -> GaugeDomain:
    """Unit codisk of the metric pulled back under the constant diagonal map
    that scales the last ``stretched_axes`` ambient coordinates by a."""
    diag = np.ones(n + 1)
    diag[n + 1 - stretched_axes:] = a
    return codisk_domain(_sphere_base(n), MetricSpec(np.diag(diag)))


def ellipsoid_round_domain(n: int, a: float) -> GaugeDomain:
    """Unit codisk of the comparison metric a^2 x Euclidean."""
    return codisk_domain(_sphere_base(n), MetricSpec(a * np.eye(n + 1)))


def _page_circle_family(name: str, grid: ParamGrid, sign: int) -> LoopFamily:
    """Loops rotating the circle over page points x of the sphere open book:
    t -> (x, rho cos(2 pi s t), rho sin(2 pi s t)) with rho = sqrt(1-|x|^2)."""
    w = TWO_PI * sign

    def samples(X: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k, ang = X.shape[1], w * ts
        r = np.sqrt(np.maximum(0.0, 1.0 - np.vecdot(X, X)))[:, None]
        cos, sin = np.cos(ang), np.sin(ang)
        q, v = np.empty((2, k + 2, X.shape[0], ts.shape[0]))  # coordinate-major
        q[:k] = X.T[:, :, None]
        np.multiply(r, cos, out=q[k])
        np.multiply(r, sin, out=q[k + 1])
        v[:k] = 0.0
        np.multiply(-w * r, sin, out=v[k])
        np.multiply(w * r, cos, out=v[k + 1])
        return q.transpose(1, 2, 0), v.transpose(1, 2, 0)

    return LoopFamily(name, grid, samples, chart="embedding", panels=8)


def _page_grid(page_dim: int) -> ParamGrid:
    # box whose corners reach the binding |x| = 1 so the family includes the
    # degenerate constant loops there
    s = 1.0 / math.sqrt(page_dim)
    count = 17 if page_dim == 1 else 9
    return ParamGrid(tuple(GridAxis(-s, s, count) for _ in range(page_dim)))


def _page_rotation_families(page_dim: int) -> tuple[LoopFamily, LoopFamily]:
    grid = _page_grid(page_dim)
    return _page_circle_family("L+", grid, +1), _page_circle_family("L-", grid, -1)


def _open_book_generators(plus: LoopFamily, minus: LoopFamily) -> dict[Term, BindingSelector]:
    """The page rotations of an open book with positive and negative rotation
    families ``plus`` and ``minus``, each bounded by its longest loop: the
    generators every open-book recipe starts from."""
    return {
        BVPreimage(ActionClass("id", +1), "ACTION_IS_BV"): BindingSelector("E+", plus, "sup"),
        BVPreimage(ActionClass("id", -1), "ACTION_IS_BV"): BindingSelector("E-", minus, "sup"),
    }


def _open_book_context(boundary_nonempty: bool) -> RuleContext:
    """A page with boundary cuts down to a fiber ``pt``; a closed page sweeps ``pt`` to its ``orbit``."""
    iota, sweep = ({"pt": "T*M_pt"}, {}) if boundary_nonempty else ({"orbit": "PD_dual(V)"}, {"pt": "orbit"})
    return RuleContext(
        axioms=frozenset({"ACTION_IS_BV"}),
        iota_table={"id": "PD(T*M)", **iota},
        sweep_table=sweep,
        boundary_nonempty=boundary_nonempty,
    )


# the constant loops sweep the whole base
_CONSTANT_LOOPS_TARGET = TargetClass("[pt]", "PD(T*M)", open_book_point_recipe)


def _fiber_pairing_target(name: str, equality: str = "") -> TargetClass:
    """The fundamental class of an open book whose page has boundary: it
    pairs with a fiber."""
    return TargetClass(name, "T*M_pt", open_book_fundamental_recipe, both_orientations=True, equality=equality)


# ---------------------------------------------------------------------------
# Scenario constructors
# ---------------------------------------------------------------------------

# the largest dimension (n or d) a constructor takes: a stretched sphere's
# Jacobian then has 8 MB, and the refusal of a family grid too large to
# evaluate can still print its size
MAX_DIM = 2**10


def _real(name: str, value) -> float:
    """``value`` as a float: an int or a finite float; a bool, a string, a
    NaN or infinite number or an int past the float range raises
    ``ScenarioParameterError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioParameterError(f"{name} must be a number, got {value!r}")
    if not is_real(value):
        raise ScenarioParameterError(f"{name} must be finite, got {value!r}")
    return float(value)


def _integer(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an int in [``minimum``, ``maximum``]: an int or an
    integer-valued float; anything else raises ``ScenarioParameterError``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ScenarioParameterError(f"{name} must be >= {minimum}")
    if value > maximum:
        raise ScenarioParameterError(f"{name} must be <= {maximum}")
    return value


def ellipsoid_scenario(n: int, a: float) -> Scenario:
    """Unit codisk of the stretched sphere metric (last two axes scaled by a),
    with the open-book rotation families over the page disk, whose orbits
    have length 2 pi a sqrt(1-|x|^2) and are constant at the binding."""
    n, a = _integer("n", n, 2, MAX_DIM), _real("a", a)
    if not (0.0 < a <= 1.0):
        raise ScenarioParameterError("a must lie in (0, 1]")
    return Scenario(
        id=f"ellipsoid1(n={n},a={a})",
        params={"scenario": "ellipsoid1", "n": n, "a": a},
        domain=ellipsoid_domain(n, a),
        targets=(
            _CONSTANT_LOOPS_TARGET,
            _fiber_pairing_target("[S^n]", "width of the fundamental class equals the equator length"),
        ),
        generators=_open_book_generators(*_page_rotation_families(n - 1)),
        rule_context=_open_book_context(boundary_nonempty=True),
    )


def ellipsoid2_scenario(n: int, a: float) -> Scenario:
    """Sphere metric stretched on the last four axes; the diagonal circle
    action rotates two of them, with orbit lengths 2 pi a r."""
    n, a = _integer("n", n, 3, MAX_DIM), _real("a", a)
    if not (0.0 < a <= 1.0):
        raise ScenarioParameterError("a must lie in (0, 1]")
    domain = ellipsoid_domain(n, a, stretched_axes=4)

    # orbits of the diagonal action at radius r = params[:, 0], of length
    # 2 pi a r, longest at r = 1
    def samples(P: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, ang = P[:, :1], TWO_PI * ts
        cos, sin = np.cos(ang), np.sin(ang)
        q, v = np.zeros((2, n + 1, P.shape[0], ts.shape[0]))  # coordinate-major
        q[0] = np.sqrt(np.maximum(0.0, 1.0 - r * r))
        np.multiply(r, cos, out=q[n - 1])
        np.multiply(r, sin, out=q[n])
        np.multiply(-TWO_PI * r, sin, out=v[n - 1])
        np.multiply(TWO_PI * r, cos, out=v[n])
        return q.transpose(1, 2, 0), v.transpose(1, 2, 0)

    orbits = LoopFamily("orbits", ParamGrid((GridAxis(0.0, 1.0, 17),)), samples, chart="embedding", panels=8)
    ball = "matching lower bound by an explicit ball family"
    ctx = RuleContext(
        axioms=frozenset({"OB_BV2", "HOPF_CONTRACT"}),
        iota_table={"id": "PD(T*M)"},
    )
    return Scenario(
        id=f"ellipsoid2(n={n},a={a})",
        params={"scenario": "ellipsoid2", "n": n, "a": a},
        domain=domain,
        targets=(
            TargetClass("[pt]", "PD(T*M)", diagonal_action_recipe, equality=ball),
            TargetClass("[S^n]", "PD(T*M)", diagonal_action_recipe, equality=ball),
        ),
        generators={BVPreimage(ActionClass("id", +1), "OB_BV2"): BindingSelector("E_A", orbits, "sup")},
        rule_context=ctx,
    )


def flat_torus_domain(d: int, radius: float = 1.0, lengths: Optional[tuple[float, ...]] = None) -> GaugeDomain:
    if lengths is not None:
        if not isinstance(lengths, (tuple, list)) or len(lengths) != d:
            raise ScenarioParameterError(f"lengths must be a tuple or list of {d} reals, got {lengths!r}")
        if not all(is_real(length) and length > 0.0 for length in lengths):
            raise ScenarioParameterError(f"lengths must be finite and > 0, got {lengths}")
    jac = None if lengths is None else np.diag(np.asarray(lengths, dtype=float))
    return codisk_domain(BaseDescriptor("torus", d, ("torus",)), MetricSpec(jac, radius))


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
        finite = ~np.not_equal(w[:, :-1].T, 0.0, order="C").any(axis=0)
        if q.chart_id != "camel:q1zero":
            finite &= c <= 0.0
        return np.where(finite, np.where(c < 0.0, -c * lo, c * hi), math.inf)

    return GaugeDomain(base, oracle)


def _torus_line_family(name: str, zeros: int, sign: int, d: int, chart: str, count: int) -> LoopFamily:
    """Straight loops (0 x zeros, p..., sign * t) on the unit torus, one per
    parameter p of the torus grid with ``count`` points per axis; the last
    coordinate is folded into [0, 1), once on the ts row, so each loop closes
    in the coordinates it is sampled in."""

    def samples(P: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, v = np.zeros((2, d, P.shape[0], ts.shape[0]))  # coordinate-major
        q[zeros:-1] = P.T[:, :, None]
        q[-1] = np.mod(sign * ts, 1.0)
        v[-1] = sign
        return q.transpose(1, 2, 0), v.transpose(1, 2, 0)

    return LoopFamily(name, _torus_grid(d - zeros - 1, count), samples, chart=chart, panels=8)


def _torus_grid(dim: int, count: int) -> ParamGrid:
    return ParamGrid(tuple(GridAxis(0.0, 1.0, count, periodic=True) for _ in range(dim)))


def _torus_scenario(params: dict, domain: GaugeDomain, k: int, charts: tuple[str, str]) -> Scenario:
    """Loop families on pt x T^d over ``domain``: the negative rotation over
    the full torus, in chart ``charts[0]``, and the positive rotation
    constrained to the first k coordinates being zero, in chart
    ``charts[1]``, with the subtorus target they bound; the coordinate
    subtorus pairs with the complementary slice."""
    d = domain.base.dim
    minus = _torus_line_family("L-", 0, -1, d, charts[0], 4)
    plus_k = _torus_line_family("L+^k", k, +1, d, charts[1], 4)
    ctx = RuleContext(
        sweep_table={"slice-": "id", "slice+k": f"T^{d - k}"},
        iota_table={f"T^{d - k}": f"PD(VxT^{d - k})"},
    )
    return Scenario(
        id=f"{params['scenario']}(" + ",".join(f"{k2}={v}" for k2, v in params.items() if k2 != "scenario") + ")",
        params=params,
        domain=domain,
        targets=(TargetClass("[T^k]", f"PD(VxT^{d - k})", product_torus_recipe),),
        generators={
            ActionClass("slice-", -1): BindingSelector("E-", minus, "sup"),
            ActionClass("slice+k", +1): BindingSelector("E+^k", plus_k, "sup"),
        },
        rule_context=ctx,
    )


def product_torus_scenario(d: int, k: int, radius: float) -> Scenario:
    """The flat d-torus codisk of the given radius, with the loop families of
    ``_torus_scenario``."""
    d, k, radius = _integer("d", d, 1, MAX_DIM), _integer("k", k, 1), _real("radius", radius)
    if k >= d:
        raise ScenarioParameterError("k must satisfy 0 < k < d")
    if radius < 0:
        raise ScenarioParameterError("radius must be >= 0")
    params = {"scenario": "product_torus", "d": d, "k": k, "radius": radius}
    return _torus_scenario(params, flat_torus_domain(d, radius), k, ("torus", "torus"))


def camel_scenario(n: int, eps: float, delta: float) -> Scenario:
    """The camel domain over the n-torus, with the loop families of
    ``_torus_scenario`` for k = 1; the positive rotation runs in the q1 = 0
    chart, where the last momentum is bounded above.  Both families have
    constant support integrands, and the bound is eps + 3 delta."""
    n, eps, delta = _integer("n", n, 2, MAX_DIM), _real("eps", eps), _real("delta", delta)
    if eps <= 0 or delta <= 0:
        raise ScenarioParameterError("eps and delta must be positive")
    params = {"scenario": "camel", "n": n, "eps": eps, "delta": delta}
    return _torus_scenario(params, camel_domain(n, eps, delta), 1, ("camel", "camel:q1zero"))


def klein_bottle_scenario(a: float, b: float, radius: float = 1.0) -> Scenario:
    """Flat Klein bottle; the loop class consists of straight lines with
    x-winding one, which reverse orientation, paired with their reverses.
    Restricted to straight lines in the flat structure, the infimum 2a is
    the flat optimum."""
    a, b, radius = _real("a", a), _real("b", b), _real("radius", radius)
    if a <= 0 or b <= 0:
        raise ScenarioParameterError("a and b must be positive")
    if radius < 0:
        raise ScenarioParameterError("radius must be >= 0")
    base = BaseDescriptor("klein", 2, ("klein",))
    domain = codisk_domain(base, MetricSpec(radius=radius))

    # the straight loop at y0 = params[:, 0] steps from (a/4, y0) by (a, -2 y0)
    # and closes in the quotient; out along it and back along its reverse,
    # the doubled loop closes in the lift, with length l(q) + l(reverse q)
    def segment(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y0 = P[:, 0]
        return np.stack([np.full_like(y0, a / 4.0), y0], axis=1), np.stack([np.full_like(y0, a), -2.0 * y0], axis=1)

    grid = ParamGrid((GridAxis(-b / 4.0, b / 4.0, 17),))
    doubled = LoopFamily("Ldoubled", grid, chart="klein", segment=segment)
    ctx = RuleContext(
        intersection_table={("q", "qbar"): "pt"},
        iota_table={"pt": "T*Sigma_pt"},
    )
    return Scenario(
        id=f"klein(a={a},b={b},r={radius})",
        params={"scenario": "klein", "a": a, "b": b, "radius": radius},
        domain=domain,
        targets=(TargetClass("[Sigma]", "T*Sigma_pt", non_orientable_recipe),),
        generators={
            LoopCycle("q"): BindingSelector("l_q", doubled, "inf", scale=0.5),
            LoopCycle("qbar"): BindingSelector("l_qbar", doubled, "inf", scale=0.5),
        },
        rule_context=ctx,
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
        return Scenario(
            id=f"open_book(interval,round,r={radius})",
            params=params,
            domain=codisk_domain(_sphere_base(2), MetricSpec(np.eye(3), radius)),
            targets=(_CONSTANT_LOOPS_TARGET, _fiber_pairing_target("[M]")),
            generators=_open_book_generators(*_page_rotation_families(1)),
            rule_context=_open_book_context(boundary_nonempty=True),
        )

    if page == "circle":
        # the fiber loops t -> (u, +-t) over the page points u; the page
        # class pairs with its dual, whose recipe alone rotates a single
        # orbit, bounded by the shortest loop
        plus, minus = _torus_line_family("L+", 0, +1, 2, "torus", 8), _torus_line_family("L-", 0, -1, 2, "torus", 8)
        return Scenario(
            id=f"open_book(circle,trivial,r={radius},lp={len_page},lf={len_fiber})",
            params=params,
            domain=flat_torus_domain(2, radius, (len_page, len_fiber)),
            targets=(
                _CONSTANT_LOOPS_TARGET,
                TargetClass("[V]", "PD_dual(V)", closed_page_recipe, both_orientations=True),
            ),
            generators={
                **_open_book_generators(plus, minus),
                ActionClass("pt", +1): BindingSelector("e+", plus, "inf"),
                ActionClass("pt", -1): BindingSelector("e-", minus, "inf"),
            },
            rule_context=_open_book_context(boundary_nonempty=False),
        )

    raise ScenarioParameterError(f"unknown page {page!r}")


# ---------------------------------------------------------------------------
# The scenario table
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
    refuses, and so does a configuration that is not a ``dict``."""
    if not isinstance(config, dict):
        raise ScenarioParameterError(f"a scenario configuration must be a dict, got {config!r}")
    name = config.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ScenarioParameterError(f"scenario must be one of {list(SCENARIOS)}, got {name!r}")
    build, defaults = SCENARIOS[name]
    foreign = [key for key in config if key != "scenario" and key not in defaults]
    if foreign:
        raise ScenarioParameterError(f"scenario {name!r} takes no key {', '.join(map(repr, foreign))}")
    return build(**{key: config.get(key, default) for key, default in defaults.items()})


# ---------------------------------------------------------------------------
# Reference cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReferenceCase:
    """One row of the paper's regression tables: a ``build_scenario``
    configuration, whose scenario name is the row's table id, one of its
    targets, that target's closed-form bound and the relative tolerance the
    computed bound must meet."""

    config: dict
    target: str
    expected: float
    rel_tol: float


# rows of one configuration are adjacent, in the order of its targets
REFERENCE_CASES: tuple[ReferenceCase, ...] = (
    *(
        ReferenceCase({"scenario": "ellipsoid1", "n": n, "a": a}, target, expected, 1e-4)
        for n in (2, 3)
        for a in (0.2, 0.5, 1.0)
        for target, expected in (("[pt]", 4 * math.pi * a), ("[S^n]", 2 * math.pi * a))
    ),
    *(
        ReferenceCase({"scenario": "ellipsoid2", "n": n, "a": a}, "[pt]", 2 * math.pi * a, 1e-4)
        for n in (3, 4)
        for a in (0.4, 1.0)
    ),
    *(
        ReferenceCase({"scenario": "camel", "n": n, "eps": eps, "delta": delta}, "[T^k]", eps + 3 * delta, 1e-9)
        for n in (2, 3)
        for eps in (0.4, 1.0)
        for delta in (0.1, 0.01, 0.001)
    ),
    *(
        ReferenceCase({"scenario": "klein", "a": a, "b": b}, "[Sigma]", 2 * a, 1e-6)
        for a, b in ((1.0, 1.0), (0.5, 2.0))
    ),
)
