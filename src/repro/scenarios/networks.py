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
``rng`` (passed only to families whose construction is random); they return
a fresh :class:`repro.dynamics.base.DynamicNetwork`.  The built-in families
name their builders as ``"module:function"`` strings, imported on the first
:meth:`NetworkFamily.build`: the registry's names, parameter schemas and
descriptions are declarative and load no engine or graph module.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Tuple, Union

from repro.utils.rng import RngLike
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.dynamics.base import DynamicNetwork

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
        ``uses_rng`` is true), or a ``"module:function"`` string naming a
        callable imported on the first build and given the parameters
        positionally, in declaration order.
    defaults:
        Declared parameters mapped to their defaults; :data:`REQUIRED` marks
        parameters that must be supplied (``n`` for every family).
    uses_rng:
        Whether construction itself draws randomness (expander sampling,
        G(n, p) edges, ...).  Families whose randomness is all per-run
        (edge-Markovian chains, adaptive rebuilds, agent walks) draw it from
        ``reset(rng)`` and declare ``False``, so no construction generator
        is seeded for them.
    description:
        One-line description shown by ``repro scenarios list``.
    """

    name: str
    builder: Union[str, Callable[..., "DynamicNetwork"]] = field(repr=False)
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

    def build(self, rng: RngLike = None, **params) -> "DynamicNetwork":
        """Build a fresh network instance from ``params`` (over the defaults)."""
        merged = self.resolve_params(params)
        extra = {"rng": rng} if self.uses_rng else {}
        if isinstance(self.builder, str):
            module, _, name = self.builder.partition(":")
            return getattr(importlib.import_module(module), name)(*merged.values(), **extra)
        return self.builder(**merged, **extra)


_REGISTRY: Dict[str, NetworkFamily] = {}


def register_network(
    name: str,
    builder: Union[str, Callable[..., "DynamicNetwork"]],
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


def build_network(name: str, rng: RngLike = None, **params) -> "DynamicNetwork":
    """Build a network from its family name and parameters."""
    return get_network_family(name).build(rng=rng, **params)


# ---------------------------------------------------------------------------
# Built-in families.  ``n`` is the size parameter of every family; for the
# dichotomy networks it keeps the constructor's own convention (G1 has n+1
# nodes, G2 has n leaves plus the centre) so CLI behaviour is unchanged.
# ---------------------------------------------------------------------------

register_network(
    "clique",
    "repro.dynamics.standard:static_clique_network",
    {"n": REQUIRED},
    description="static complete graph K_n (analytic metrics attached)",
)
register_network(
    "star",
    "repro.dynamics.standard:static_star_network",
    {"n": REQUIRED},
    description="static star on n nodes, centre 0 (analytic metrics attached)",
)
register_network(
    "cycle",
    "repro.dynamics.standard:static_cycle_network",
    {"n": REQUIRED},
    description="static cycle C_n (analytic metrics attached)",
)
register_network(
    "path",
    "repro.dynamics.standard:static_path_network",
    {"n": REQUIRED},
    description="static path P_n",
)
register_network(
    "expander",
    "repro.dynamics.standard:static_expander_network",
    {"n": REQUIRED, "degree": 4},
    uses_rng=True,
    description="static random degree-regular expander",
)
register_network(
    "erdos-renyi",
    "repro.dynamics.standard:static_erdos_renyi_network",
    {"n": REQUIRED, "p": 0.05},
    uses_rng=True,
    description="static G(n, p), sampled directly into CSR form",
)
register_network(
    "dynamic-star",
    "repro.dynamics.dichotomy:DynamicStarNetwork",
    {"n": REQUIRED},
    description="G2 of Figure 1(b): adaptive dynamic star with n leaves",
)
register_network(
    "clique-bridge",
    "repro.dynamics.dichotomy:CliqueBridgeNetwork",
    {"n": REQUIRED},
    description="G1 of Figure 1(a): clique with pendant, then bridged cliques",
)
register_network(
    "diligent",
    "repro.dynamics.diligent:DiligentDynamicNetwork",
    {"n": REQUIRED, "rho": 0.25},
    description="Theorem 1.2 adaptive Θ(ρ)-diligent family G(n, ρ)",
)
register_network(
    "absolute-diligent",
    "repro.dynamics.absolute_diligent:AbsolutelyDiligentNetwork",
    {"n": REQUIRED, "rho": 0.25},
    description="Theorem 1.5 absolutely Θ(ρ)-diligent adaptive family",
)
register_network(
    "edge-markovian",
    "repro.dynamics.edge_markovian:EdgeMarkovianNetwork",
    {"n": REQUIRED, "birth": 0.3, "death": 0.3},
    description="edge-Markovian evolving graph (per-edge birth/death chain)",
)
register_network(
    "mobile-agents",
    "repro.dynamics.mobile_agents:MobileAgentsNetwork",
    {"n": REQUIRED, "side": 10, "radius": 1},
    description="random-walk mobile agents on a torus grid with proximity links",
)
register_network(
    "alternating-regular-complete",
    "repro.dynamics.standard:alternating_regular_complete_network",
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
