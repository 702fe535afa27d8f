"""Cluster-based denoising of the evidence pool.

Snippet descriptions are embedded, clustered with density-based clustering,
and only the cluster(s) containing evidence from the top-ranked (anchor)
homolog are kept. Border points are attached to the cluster of their
smallest-canonical-index core neighbor (canonical index = rank under
lexicographic vector order), which makes the partition invariant to input
order; classical density clustering is order-dependent there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .config import DenoiseConfig
from .homology import EvidencePool, Stage


class EmbeddingError(RuntimeError):
    pass


class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        ...


def embed_values(provider: EmbeddingProvider, values: Sequence[str]) -> np.ndarray:
    """Embed texts through the provider, checking count, a shared non-zero
    dimension, and finiteness."""
    values = list(values)
    if not values:
        return np.zeros((0, 0))
    try:
        vectors = provider.embed(values)
    except Exception as exc:
        raise EmbeddingError(f"embedding failed for batch of {len(values)} texts: {exc}") from exc
    if len(vectors) != len(values):
        raise EmbeddingError(f"provider returned {len(vectors)} vectors for {len(values)} texts")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise EmbeddingError(f"embedding dimensions are not uniform: {sorted(dims)}")
    if 0 in dims:
        raise EmbeddingError(f"embedding is empty: {len(values)} vectors of size 0")
    arr = np.asarray(vectors, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise EmbeddingError("embedding contains non-finite values")
    return arr


@dataclass(frozen=True)
class SemanticCluster:
    id: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class ClusterSet:
    """Partition of point indices into clusters plus noise."""

    clusters: tuple[SemanticCluster, ...]
    noise: tuple[int, ...]
    n_points: int

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.clusters:
            if not c.members:
                raise ValueError(f"cluster {c.id} has no members")
            seen.update(c.members)
        seen.update(self.noise)
        if seen != set(range(self.n_points)) or sum(
            len(c.members) for c in self.clusters
        ) + len(self.noise) != self.n_points:
            raise ValueError("clusters plus noise do not partition the input")

    def label_of(self) -> list[Optional[int]]:
        """Per-point cluster id, None for noise."""
        labels: list[Optional[int]] = [None] * self.n_points
        for c in self.clusters:
            for i in c.members:
                labels[i] = c.id
        return labels


def _distance_matrix(points: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        diff = points[:, None, :] - points[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    if metric == "cosine":
        norms = np.linalg.norm(points, axis=1)
        zero = norms == 0
        masked = zero.any()
        if masked:
            norms = np.where(norms > 0, norms, 1.0)
        unit = points / norms[:, None]
        sim = unit @ unit.T
        # clip to [-1, 1] and take 1 - sim in place, same bits as np.clip
        np.minimum(sim, 1.0, out=sim)
        np.maximum(sim, -1.0, out=sim)
        dist = np.subtract(1.0, sim, out=sim)
        if masked:  # zero vectors carry no direction: maximally distant from everything
            dist[zero, :] = 1.0
            dist[:, zero] = 1.0
        np.fill_diagonal(dist, 0.0)
        return dist
    raise ValueError(f"unknown metric {metric!r}")


def _all_noise(n: int) -> ClusterSet:
    """The partition of fewer than min_pts points: no point has min_pts
    neighbours, itself included, so none is core and all are noise."""
    return ClusterSet(clusters=(), noise=tuple(range(n)), n_points=n)


def _canonical_rank(points: np.ndarray) -> list[int]:
    """Each point's position under lexicographic vector ordering."""
    # the list sort stops at the first coordinate that differs, unlike np.lexsort
    coords = points.tolist()
    canon = [0] * len(coords)
    for pos, i in enumerate(sorted(range(len(coords)), key=coords.__getitem__)):
        canon[i] = pos
    return canon


def dbscan(vectors: Sequence[Sequence[float]] | np.ndarray, cfg: DenoiseConfig) -> ClusterSet:
    """Density-based clustering with order-independent labeling.

    A point is core when it has >= min_pts neighbors within eps (itself
    included). Clusters are the connected components of core points; a
    non-core point within eps of a core joins the cluster of its
    smallest-canonical-index core neighbor; everything else is noise.
    Cluster ids are assigned in canonical order of their smallest member.
    """
    points = np.asarray(vectors, dtype=float)
    if points.size == 0 or len(points) == 0:
        raise ValueError("dbscan requires at least one vector")
    if points.ndim != 2:
        raise ValueError("vectors must share one dimension")
    n = len(points)
    if n < cfg.min_pts:
        return _all_noise(n)

    # Python lists: at the few points a pool holds, per-row numpy calls cost
    # more than the loops they would replace
    within = (_distance_matrix(points, cfg.metric) <= cfg.eps).tolist()
    is_core = [sum(row) >= cfg.min_pts for row in within]

    # the canonical rank is computed only where it is read: border attachment
    # (never at min_pts <= 2, where a point with a neighbour is core) and the
    # order of two or more clusters
    canon: Optional[list[int]] = None

    # connected components over core points
    component = [-1] * n
    comp_id = 0
    for i in range(n):
        if not is_core[i] or component[i] != -1:
            continue
        stack = [i]
        component[i] = comp_id
        while stack:
            cur = stack.pop()
            for j, near in enumerate(within[cur]):
                if near and is_core[j] and component[j] == -1:
                    component[j] = comp_id
                    stack.append(j)
        comp_id += 1

    # border attachment via smallest-canonical core neighbor
    for i in range(n):
        if is_core[i]:
            continue
        core_neighbors = [j for j, near in enumerate(within[i]) if near and is_core[j]]
        if core_neighbors:
            if canon is None:
                canon = _canonical_rank(points)
            chosen = min(core_neighbors, key=canon.__getitem__)
            component[i] = component[chosen]

    members: dict[int, list[int]] = {}
    noise: list[int] = []
    for i in range(n):
        if component[i] == -1:
            noise.append(i)
        else:
            members.setdefault(component[i], []).append(i)

    ordered = list(members.values())
    if len(ordered) > 1:
        if canon is None:
            canon = _canonical_rank(points)
        ordered.sort(key=lambda ms: min(canon[i] for i in ms))
    clusters = tuple(
        SemanticCluster(id=cid, members=tuple(sorted(ms))) for cid, ms in enumerate(ordered)
    )
    return ClusterSet(clusters=clusters, noise=tuple(sorted(noise)), n_points=n)


@dataclass(frozen=True)
class AnchorSelection:
    indices: tuple[int, ...]        # selected flat snippet indices
    anchor_ranks: tuple[int, ...]   # homolog ranks that anchored the selection
    cluster_ids: tuple[int, ...]    # clusters contributing to the selection
    passthrough: bool
    warnings: tuple[str, ...] = ()


def select_anchor_clusters(
    cluster_set: ClusterSet,
    pool: EvidencePool,
    anchor_top_m: int,
) -> AnchorSelection:
    """Select every cluster containing evidence from the anchor homologs.

    Anchors are the first `anchor_top_m` homolog ranks that contribute at
    least one clustered (non-noise) snippet; ranks whose snippets are all
    noise or were filtered out earlier are skipped in favor of the next
    rank. If no homolog qualifies the whole pool passes through with a
    recorded warning.
    """
    flat = pool.snippets()
    if cluster_set.n_points != len(flat):
        raise ValueError(
            f"cluster set covers {cluster_set.n_points} points but pool has "
            f"{len(flat)} snippets"
        )
    labels = cluster_set.label_of()
    clustered_ranks: dict[int, set[int]] = {}
    for i, snippet in enumerate(flat):
        if labels[i] is not None:
            clustered_ranks.setdefault(snippet.homolog_rank, set()).add(labels[i])

    chosen_ranks: list[int] = []
    warnings: list[str] = []
    for homolog in pool.homologs:
        if len(chosen_ranks) >= anchor_top_m:
            break
        if homolog.rank in clustered_ranks:
            chosen_ranks.append(homolog.rank)
        else:
            warnings.append(
                f"homolog rank {homolog.rank} has no clustered snippet; "
                f"falling back to the next rank"
            )
    if not chosen_ranks:
        warnings.append("no homolog anchors any cluster; passing pool through unfiltered")
        return AnchorSelection(
            indices=tuple(range(len(flat))),
            anchor_ranks=(),
            cluster_ids=(),
            passthrough=True,
            warnings=tuple(warnings),
        )

    selected_clusters: set[int] = set()
    for rank in chosen_ranks:
        selected_clusters.update(clustered_ranks[rank])
    indices = tuple(
        i for i in range(len(flat))
        if labels[i] is not None and labels[i] in selected_clusters
    )
    return AnchorSelection(
        indices=indices,
        anchor_ranks=tuple(chosen_ranks),
        cluster_ids=tuple(sorted(selected_clusters)),
        passthrough=False,
        warnings=tuple(warnings),
    )


def render_context(pool: EvidencePool) -> str:
    """Deterministic text rendering of a pool, one line per snippet."""
    lines = []
    for h in pool.homologs:
        for s in h.snippets:
            lines.append(f"Homolog {h.rank} ({h.hit.subject_accession}): [{s.tag}]: {s.value}")
    return "\n".join(lines)


def assemble_context(
    pool: EvidencePool,
    selected_indices: Sequence[int],
) -> tuple[EvidencePool, str]:
    """The VERTICAL pool of the selected flat indices, and its rendering."""
    vertical = pool.keep(Stage.VERTICAL, selected_indices)
    return vertical, render_context(vertical)


def vertical_filter(
    pool: EvidencePool,
    embedder: EmbeddingProvider,
    cfg: DenoiseConfig,
) -> tuple[EvidencePool, str, tuple[str, ...]]:
    """The vertical stage: embed the pool's snippet values, cluster them and
    keep the anchor homologs' clusters.

    Returns the vertical pool, its rendered context and the anchor
    selection's warnings. A pool without snippets is passed on empty without
    an embedding request. A pool of fewer than `cfg.min_pts` snippets cannot
    form a cluster, so it is taken as all noise without an embedding request
    either; its anchor selection passes it through, as `dbscan`'s answer would.
    """
    flat = pool.snippets()
    if not flat:
        return *assemble_context(pool, []), ()
    if len(flat) < cfg.min_pts:
        clusters = _all_noise(len(flat))
    else:
        clusters = dbscan(embed_values(embedder, [s.value for s in flat]), cfg)
    selection = select_anchor_clusters(clusters, pool, cfg.anchor_top_m)
    return *assemble_context(pool, selection.indices), selection.warnings
