"""Contact-rate variants of the asynchronous algorithm.

For a crossing edge ``{u, v}`` with ``u`` informed and ``v`` uninformed, the
rate at which the rumor travels across the edge depends on the variant:

* **push–pull** (Definition 1): ``1/d_u + 1/d_v`` — ``u`` pushes at rate
  ``1/d_u`` and ``v`` pulls at rate ``1/d_v``;
* **push**: ``1/d_u`` only;
* **pull**: ``1/d_v`` only;
* **2-push** (Section 4 and 5.2 analysis device): every node carries a rate-2
  clock and only pushes, so the edge fires at rate ``2/d_u``.

The module also implements the *forward 2-push* process of Lemma 4.2, a
restricted push process on the cluster chain of ``H_{k,Δ}`` where informed
nodes only push "forward" to the next cluster — the coupling the paper uses to
upper bound how far the rumor can travel along the chain in one unit of time.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require


class Variant(enum.Enum):
    """Which contact actions carry the rumor in the asynchronous process."""

    PUSH_PULL = "push-pull"
    PUSH = "push"
    PULL = "pull"
    TWO_PUSH = "2-push"

    def edge_rate(self, informed_degree: int, uninformed_degree: int) -> float:
        """Rate at which the rumor crosses an informed→uninformed edge.

        Parameters are the degrees of the informed endpoint and the uninformed
        endpoint in the current snapshot.
        """
        require(informed_degree >= 1, "informed endpoint must have positive degree")
        require(uninformed_degree >= 1, "uninformed endpoint must have positive degree")
        if self is Variant.PUSH_PULL:
            return 1.0 / informed_degree + 1.0 / uninformed_degree
        if self is Variant.PUSH:
            return 1.0 / informed_degree
        if self is Variant.PULL:
            return 1.0 / uninformed_degree
        if self is Variant.TWO_PUSH:
            return 2.0 / informed_degree
        raise AssertionError(f"unhandled variant {self!r}")

    def total_clock_rate(self, n: int) -> float:
        """Total clock rate across ``n`` nodes (used by the naive engine)."""
        return 2.0 * n if self is Variant.TWO_PUSH else float(n)

    def rate_coefficients(self) -> Tuple[float, float]:
        """``(a, b)`` such that the crossing-edge rate is ``a/d_inf + b/d_uninf``.

        This is the form the vectorised boundary engine consumes: the rate of
        an informed→uninformed edge is ``a · (1/d_informed) + b · (1/d_uninformed)``
        with the same values :meth:`edge_rate` computes pairwise.
        """
        if self is Variant.PUSH_PULL:
            return (1.0, 1.0)
        if self is Variant.PUSH:
            return (1.0, 0.0)
        if self is Variant.PULL:
            return (0.0, 1.0)
        if self is Variant.TWO_PUSH:
            return (2.0, 0.0)
        raise AssertionError(f"unhandled variant {self!r}")


def forward_two_push_chain(
    cluster_sizes: Sequence[int],
    duration: float = 1.0,
    rng: RngLike = None,
    initially_informed: int = None,
) -> List[int]:
    """Simulate the forward 2-push process on a chain of clusters.

    Lemma 4.2 couples the rumor's progress along the bipartite chain
    ``S_0 - S_1 - ... - S_k`` of ``H_{k,Δ}`` with the *forward 2-push*
    process: every informed node of cluster ``S_i`` (``i < k``) carries a
    rate-2 exponential clock and, when it rings, pushes the rumor to a
    uniformly random node of ``S_{i+1}``.  All of ``S_0`` starts informed.

    This function simulates the process exactly for ``duration`` time units
    and returns the number of informed nodes in each cluster at the end.
    The expected count in the last cluster is at most ``(2·duration)^k/k! · Δ``
    (the bound the proof of Lemma 4.2 derives), which the tests and the
    Lemma 4.2 experiment check empirically.

    Parameters
    ----------
    cluster_sizes:
        ``[|S_0|, |S_1|, ..., |S_k|]``.
    duration:
        Length of the simulated time window (the paper uses one time unit).
    initially_informed:
        How many nodes of ``S_0`` start informed; defaults to all of them.
    """
    cluster_sizes = list(cluster_sizes)
    require(len(cluster_sizes) >= 2, "need at least two clusters")
    require(all(size >= 1 for size in cluster_sizes), "cluster sizes must be positive")
    require(duration >= 0, "duration must be non-negative")
    gen = ensure_rng(rng)
    k = len(cluster_sizes) - 1
    informed_counts = [0] * len(cluster_sizes)
    informed_counts[0] = cluster_sizes[0] if initially_informed is None else min(
        initially_informed, cluster_sizes[0]
    )
    require(informed_counts[0] >= 1, "at least one node of S_0 must start informed")

    # Every event draws what the old loop with ``gen.choice(k, p=w / w.sum())``
    # drew: the exponential wait, choice's one uniform, the acceptance
    # uniform.  The cluster pick repeats choice's float arithmetic: running
    # sums of ``count / total``, each divided by the last, and the first
    # index whose value exceeds the uniform (a right-side search).
    exponential, uniform = gen.exponential, gen.random
    pushers = informed_counts[0]  # informed nodes of S_0 .. S_{k-1}
    now = 0.0
    while pushers:
        now += exponential(1.0 / (2.0 * pushers))
        if now > duration:
            break
        pick = uniform()
        total = float(pushers)
        cumulative = []
        acc = 0.0
        for count in informed_counts[:k]:
            acc += count / total
            cumulative.append(acc)
        last = cumulative[-1]
        index = 0
        while cumulative[index] / last <= pick:
            index += 1
        target_cluster = index + 1
        target_size = cluster_sizes[target_cluster]
        # The push hits a uniformly random node of the next cluster; it only
        # matters if that node was still uninformed.
        if uniform() < (target_size - informed_counts[target_cluster]) / target_size:
            informed_counts[target_cluster] += 1
            if target_cluster < k:
                pushers += 1
    return informed_counts


def forward_two_push_tail_bound(k: int, delta: int, duration: float = 1.0) -> float:
    """Return the Lemma 4.2 expectation bound ``(2·duration)^k / k! · Δ``."""
    require(k >= 1, "k must be at least 1")
    require(delta >= 1, "delta must be at least 1")
    value = delta
    for i in range(1, k + 1):
        value *= (2.0 * duration) / i
    return value


__all__ = ["Variant", "forward_two_push_chain", "forward_two_push_tail_bound"]
