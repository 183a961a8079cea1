"""The single network registry: family name → dynamic-network builder.

Before this registry existed the CLI, the standard-networks helper and the
individual experiment modules each kept their own table of network
constructors.  Scenario resolution now goes through one place: a *family* is
a named builder with a declared parameter schema (names, defaults, which are
required), so

* the CLI can validate that a flag applies to the chosen family before
  building anything,
* :class:`repro.scenarios.scenario.Scenario` objects stay plain data (family
  name + parameter dict) that round-trips through JSON, and
* new constructions become available everywhere by registering once.

Builders take the declared parameters as keyword arguments plus an optional
``rng`` (used only by families with a random component); they return a fresh
:class:`repro.dynamics.base.DynamicNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.dynamics.absolute_diligent import AbsolutelyDiligentNetwork
from repro.dynamics.base import DynamicNetwork
from repro.dynamics.dichotomy import CliqueBridgeNetwork, DynamicStarNetwork
from repro.dynamics.diligent import DiligentDynamicNetwork
from repro.dynamics.edge_markovian import EdgeMarkovianNetwork
from repro.dynamics.mobile_agents import MobileAgentsNetwork
from repro.dynamics.sequences import StaticDynamicNetwork
from repro.dynamics.standard import (
    alternating_regular_complete_network,
    static_clique_network,
    static_cycle_network,
    static_star_network,
)
from repro.graphs.generators import (
    erdos_renyi_csr,
    path_csr,
    random_regular_expander,
)
from repro.utils.rng import RngLike
from repro.utils.validation import require

#: Sentinel marking a parameter with no default (must be supplied).
REQUIRED = object()


@dataclass(frozen=True)
class NetworkFamily:
    """One registered network construction.

    Attributes
    ----------
    name:
        Registry key (the CLI ``--network`` choice and the scenario
        ``network`` field).
    builder:
        ``(rng=..., **params) -> DynamicNetwork`` (``rng`` passed only when
        ``uses_rng`` is true).
    defaults:
        Declared parameters mapped to their defaults; :data:`REQUIRED` marks
        parameters that must be supplied (``n`` for every family).
    uses_rng:
        Whether the construction has a random component (expander sampling,
        edge-Markovian dynamics, ...).
    description:
        One-line description shown by ``repro scenarios list``.
    """

    name: str
    builder: Callable[..., DynamicNetwork] = field(repr=False)
    defaults: Mapping[str, Any]
    uses_rng: bool
    description: str

    @property
    def param_names(self) -> Tuple[str, ...]:
        """Declared parameter names, in declaration order."""
        return tuple(self.defaults)

    def resolve_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``params`` over the defaults, rejecting unknown/missing keys."""
        unknown = sorted(set(params) - set(self.defaults))
        require(
            not unknown,
            f"network family {self.name!r} does not take parameter(s) {unknown}; "
            f"declared parameters: {list(self.defaults)}",
        )
        merged = {**self.defaults, **dict(params)}
        missing = sorted(name for name, value in merged.items() if value is REQUIRED)
        require(
            not missing,
            f"network family {self.name!r} requires parameter(s) {missing}",
        )
        return merged

    def build(self, rng: RngLike = None, **params) -> DynamicNetwork:
        """Build a fresh network instance from ``params`` (over the defaults)."""
        merged = self.resolve_params(params)
        if self.uses_rng:
            return self.builder(rng=rng, **merged)
        return self.builder(**merged)


_REGISTRY: Dict[str, NetworkFamily] = {}


def register_network(
    name: str,
    builder: Callable[..., DynamicNetwork],
    defaults: Mapping[str, Any],
    uses_rng: bool = False,
    description: str = "",
) -> NetworkFamily:
    """Register a network family under ``name`` (rejecting duplicates)."""
    require(name not in _REGISTRY, f"network family {name!r} is already registered")
    family = NetworkFamily(
        name=name,
        builder=builder,
        defaults=dict(defaults),
        uses_rng=uses_rng,
        description=description,
    )
    _REGISTRY[name] = family
    return family


def network_families() -> Tuple[str, ...]:
    """Registered family names, in registration order."""
    return tuple(_REGISTRY)


def get_network_family(name: str) -> NetworkFamily:
    """Look up a family by name (raising with the known names on a miss)."""
    require(
        name in _REGISTRY,
        f"unknown network family {name!r}; known families: {sorted(_REGISTRY)}",
    )
    return _REGISTRY[name]


def build_network(name: str, rng: RngLike = None, **params) -> DynamicNetwork:
    """Build a network from its family name and parameters."""
    return get_network_family(name).build(rng=rng, **params)


# ---------------------------------------------------------------------------
# Built-in families.  ``n`` is the size parameter of every family; for the
# dichotomy networks it keeps the constructor's own convention (G1 has n+1
# nodes, G2 has n leaves plus the centre) so CLI behaviour is unchanged.
# ---------------------------------------------------------------------------

register_network(
    "clique",
    lambda n: static_clique_network(n),
    {"n": REQUIRED},
    description="static complete graph K_n (analytic metrics attached)",
)
register_network(
    "star",
    lambda n: static_star_network(n),
    {"n": REQUIRED},
    description="static star on n nodes, centre 0 (analytic metrics attached)",
)
register_network(
    "cycle",
    lambda n: static_cycle_network(n),
    {"n": REQUIRED},
    description="static cycle C_n (analytic metrics attached)",
)
register_network(
    "path",
    lambda n: StaticDynamicNetwork(path_csr(range(n))),
    {"n": REQUIRED},
    description="static path P_n",
)
register_network(
    "expander",
    lambda n, degree, rng=None: StaticDynamicNetwork(
        random_regular_expander(degree, range(n), rng=rng)
    ),
    {"n": REQUIRED, "degree": 4},
    uses_rng=True,
    description="static random degree-regular expander",
)
register_network(
    "erdos-renyi",
    lambda n, p, rng=None: StaticDynamicNetwork(erdos_renyi_csr(n, p, rng=rng)),
    {"n": REQUIRED, "p": 0.05},
    uses_rng=True,
    description="static G(n, p), sampled directly into CSR form",
)
register_network(
    "dynamic-star",
    lambda n: DynamicStarNetwork(n),
    {"n": REQUIRED},
    description="G2 of Figure 1(b): adaptive dynamic star with n leaves",
)
register_network(
    "clique-bridge",
    lambda n: CliqueBridgeNetwork(n),
    {"n": REQUIRED},
    description="G1 of Figure 1(a): clique with pendant, then bridged cliques",
)
register_network(
    "diligent",
    lambda n, rho, rng=None: DiligentDynamicNetwork(n, rho, rng=rng),
    {"n": REQUIRED, "rho": 0.25},
    uses_rng=True,
    description="Theorem 1.2 adaptive Θ(ρ)-diligent family G(n, ρ)",
)
register_network(
    "absolute-diligent",
    lambda n, rho, rng=None: AbsolutelyDiligentNetwork(n, rho, rng=rng),
    {"n": REQUIRED, "rho": 0.25},
    uses_rng=True,
    description="Theorem 1.5 absolutely Θ(ρ)-diligent adaptive family",
)
register_network(
    "edge-markovian",
    lambda n, birth, death, rng=None: EdgeMarkovianNetwork(n, birth, death, rng=rng),
    {"n": REQUIRED, "birth": 0.3, "death": 0.3},
    uses_rng=True,
    description="edge-Markovian evolving graph (per-edge birth/death chain)",
)
register_network(
    "mobile-agents",
    lambda n, side, radius, rng=None: MobileAgentsNetwork(
        n, side=side, radius=radius, rng=rng
    ),
    {"n": REQUIRED, "side": 10, "radius": 1},
    uses_rng=True,
    description="random-walk mobile agents on a torus grid with proximity links",
)
register_network(
    "alternating-regular-complete",
    lambda n, degree, rng=None: alternating_regular_complete_network(
        n, degree=degree, rng=rng
    ),
    {"n": REQUIRED, "degree": 3},
    uses_rng=True,
    description="Section 1.2 example: d-regular graph alternating with K_n",
)


__all__ = [
    "REQUIRED",
    "NetworkFamily",
    "build_network",
    "get_network_family",
    "network_families",
    "register_network",
]
