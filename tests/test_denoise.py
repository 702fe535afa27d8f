"""Density clustering against a brute-force reference, anchor selection,
and context assembly."""

import math
import random

import numpy as np
import pytest

from homorag.annotations import AnnotationSnippet
from homorag import denoise
from homorag.config import BackendConfig, DenoiseConfig
from homorag.denoise import (
    AnchorSelection,
    ClusterSet,
    EmbeddingError,
    SemanticCluster,
    assemble_context,
    dbscan,
    embed_values,
    render_context,
    select_anchor_clusters,
    vertical_filter,
)
from homorag.gateway import Gateway, mock_hash_embedding
from homorag.homology import EvidencePool, HomologHit, PoolHomolog, Stage


# -- brute-force reference -------------------------------------------------------

def ref_distance(a, b, metric):
    if metric == "euclidean":
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0 and nb == 0:
        return 0.0
    if na == 0 or nb == 0:
        return 1.0
    cos = sum(x * y for x, y in zip(a, b)) / (na * nb)
    return 1.0 - max(-1.0, min(1.0, cos))


def ref_dbscan(points, eps, min_pts, metric):
    """Independent reference: region queries by exhaustive scan, components
    by repeated closure, borders to the smallest-canonical core neighbor."""
    n = len(points)
    neighbors = [
        [j for j in range(n) if ref_distance(points[i], points[j], metric) <= eps]
        for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    canon = {i: rank for rank, i in enumerate(
        sorted(range(n), key=lambda i: tuple(points[i]))
    )}
    assigned = {}
    clusters = []
    for i in range(n):
        if not core[i] or i in assigned:
            continue
        cluster = {i}
        frontier = {i}
        while frontier:
            nxt = set()
            for p in frontier:
                for q in neighbors[p]:
                    if core[q] and q not in cluster:
                        cluster.add(q)
                        nxt.add(q)
            frontier = nxt
        for p in cluster:
            assigned[p] = len(clusters)
        clusters.append(cluster)
    for i in range(n):
        if core[i] or i in assigned:
            continue
        core_nbrs = [j for j in neighbors[i] if core[j]]
        if core_nbrs:
            chosen = min(core_nbrs, key=lambda j: canon[j])
            clusters[assigned[chosen]] = clusters[assigned[chosen]] | {i}
            assigned[i] = assigned[chosen]
    noise = {i for i in range(n) if i not in assigned}
    return {frozenset(c) for c in clusters}, noise


def as_partition(cluster_set):
    return {frozenset(c.members) for c in cluster_set.clusters}, set(cluster_set.noise)


# -- fixed examples ---------------------------------------------------------------

def test_two_close_one_far():
    points = [(0.0, 0.0), (0.1, 0.0), (5.0, 5.0)]
    out = dbscan(points, DenoiseConfig(eps=0.5, min_pts=2, metric="euclidean"))
    assert as_partition(out) == ({frozenset({0, 1})}, {2})


def test_min_pts_one_has_no_noise():
    points = [(0.0, 0.0), (10.0, 0.0), (10.2, 0.0)]
    out = dbscan(points, DenoiseConfig(eps=0.5, min_pts=1, metric="euclidean"))
    assert as_partition(out) == ({frozenset({0}), frozenset({1, 2})}, set())


def test_single_point():
    out = dbscan([(1.0, 2.0)], DenoiseConfig(eps=0.5, min_pts=1, metric="euclidean"))
    assert as_partition(out) == ({frozenset({0})}, set())
    out2 = dbscan([(1.0, 2.0)], DenoiseConfig(eps=0.5, min_pts=2, metric="euclidean"))
    assert as_partition(out2) == (set(), {0})


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("n, min_pts", [(1, 2), (2, 3), (4, 5), (3, 10)])
def test_fewer_points_than_min_pts_are_all_noise_without_distances(monkeypatch, metric, n,
                                                                   min_pts):
    def no_distances(points, metric):
        raise AssertionError("distance matrix built below min_pts")

    monkeypatch.setattr(denoise, "_distance_matrix", no_distances)
    points = [(0.5, 0.5)] * n  # every point within eps of every other
    out = dbscan(points, DenoiseConfig(eps=0.3, min_pts=min_pts, metric=metric))
    assert out == ClusterSet(clusters=(), noise=tuple(range(n)), n_points=n)
    assert as_partition(out) == ref_dbscan(points, 0.3, min_pts, metric)


def test_duplicate_points_cluster_together():
    points = [(1.0, 1.0), (1.0, 1.0), (9.0, 9.0)]
    out = dbscan(points, DenoiseConfig(eps=0.25, min_pts=2, metric="euclidean"))
    assert as_partition(out) == ({frozenset({0, 1})}, {2})


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="at least one vector"):
        dbscan([], DenoiseConfig())


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        dbscan([[1.0, 2.0], [1.0]], DenoiseConfig(metric="euclidean"))


def test_partition_property_random_cloud():
    rng = random.Random(0)
    points = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)]
    out = dbscan(points, DenoiseConfig(eps=0.6, min_pts=3, metric="euclidean"))
    sizes = sum(len(c.members) for c in out.clusters) + len(out.noise)
    assert sizes == 40
    seen = set(out.noise)
    for c in out.clusters:
        assert not (seen & set(c.members))
        seen.update(c.members)
    assert seen == set(range(40))


def test_matches_reference_on_random_clouds():
    rng = random.Random(123)
    for trial in range(60):
        n = rng.randint(1, 40)
        dim = rng.choice([2, 3])
        metric = rng.choice(["euclidean", "cosine"])
        points = [tuple(rng.uniform(-1, 1) for _ in range(dim)) for _ in range(n)]
        # duplicate a few points to exercise ties
        for _ in range(rng.randint(0, 3)):
            points.append(points[rng.randrange(len(points))])
        eps = rng.uniform(0.05, 1.2)
        min_pts = rng.randint(1, 5)
        cfg = DenoiseConfig(eps=eps, min_pts=min_pts, metric=metric)
        got = as_partition(dbscan(points, cfg))
        want = ref_dbscan(points, eps, min_pts, metric)
        assert got == want, f"trial {trial}: eps={eps} min_pts={min_pts} metric={metric}"


def test_permutation_invariance():
    rng = random.Random(5)
    points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(30)]
    cfg = DenoiseConfig(eps=0.4, min_pts=2, metric="euclidean")
    base = dbscan(points, cfg)
    base_sets = {frozenset(tuple(points[i]) for i in c.members) for c in base.clusters}
    base_noise = {tuple(points[i]) for i in base.noise}
    for _ in range(5):
        perm = rng.sample(range(len(points)), len(points))
        shuffled = [points[i] for i in perm]
        out = dbscan(shuffled, cfg)
        out_sets = {frozenset(tuple(shuffled[i]) for i in c.members) for c in out.clusters}
        out_noise = {tuple(shuffled[i]) for i in out.noise}
        assert out_sets == base_sets
        assert out_noise == base_noise


def test_cluster_ids_are_canonical():
    points = [(5.0, 5.0), (5.1, 5.0), (0.0, 0.0), (0.1, 0.0)]
    out = dbscan(points, DenoiseConfig(eps=0.5, min_pts=2, metric="euclidean"))
    # cluster containing the lexicographically smallest members gets id 0
    assert out.clusters[0].members == (2, 3)
    assert out.clusters[0].id == 0
    assert out.clusters[1].members == (0, 1)


# -- same bits as the eager implementation ---------------------------------------------

def eager_distance_matrix(points, metric):
    """Straight-line copy of the distance matrix before its in-place trim."""
    if metric == "euclidean":
        diff = points[:, None, :] - points[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    norms = np.linalg.norm(points, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = points / safe[:, None]
    sim = unit @ unit.T
    dist = 1.0 - np.clip(sim, -1.0, 1.0)
    zero = norms == 0
    dist[zero, :] = 1.0
    dist[:, zero] = 1.0
    np.fill_diagonal(dist, 0.0)
    return dist


def eager_dbscan(vectors, cfg):
    """Straight-line copy of `dbscan` with the canonical rank always computed,
    returned with its neighbourhood matrix (empty below min_pts)."""
    points = np.asarray(vectors, dtype=float)
    n = len(points)
    if n < cfg.min_pts:
        return ClusterSet(clusters=(), noise=tuple(range(n)), n_points=n), []
    within = (eager_distance_matrix(points, cfg.metric) <= cfg.eps).tolist()
    is_core = [sum(row) >= cfg.min_pts for row in within]
    coords = points.tolist()
    order = sorted(range(n), key=coords.__getitem__)
    canon = [0] * n
    for pos, i in enumerate(order):
        canon[i] = pos
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
    for i in range(n):
        if is_core[i]:
            continue
        core_neighbors = [j for j, near in enumerate(within[i]) if near and is_core[j]]
        if core_neighbors:
            chosen = min(core_neighbors, key=canon.__getitem__)
            component[i] = component[chosen]
    members = {}
    noise = []
    for i in range(n):
        if component[i] == -1:
            noise.append(i)
        else:
            members.setdefault(component[i], []).append(i)
    ordered = sorted(members.values(), key=lambda ms: min(canon[i] for i in ms))
    clusters = tuple(
        SemanticCluster(id=cid, members=tuple(sorted(ms))) for cid, ms in enumerate(ordered)
    )
    return ClusterSet(clusters=clusters, noise=tuple(sorted(noise)), n_points=n), within


def bridged_clusters(rng, dim):
    """Two clusters one step apart with a non-core point between them: at
    eps 0.35 and min_pts 4 it touches a core of each, in both metrics."""
    steps = np.array([-1, -1, -1, 0, 1, 2, 3, 3, 3], dtype=float)
    points = np.zeros((len(steps), dim))
    if rng.random() < 0.5:  # euclidean steps of 0.3
        points[:, 0] = 0.3 * steps
    else:  # cosine steps of 0.8 rad: 1 - cos(0.8) = 0.30
        points[:, 0], points[:, 1] = np.cos(0.8 * steps), np.sin(0.8 * steps)
    return points[rng.permutation(len(steps))]


def test_distance_matrix_and_dbscan_keep_the_eager_bits():
    rng = np.random.default_rng(2201)
    seen = {"zero": 0, "border": 0, "contested": 0, "several": 0}
    for trial in range(600):
        n = int(rng.integers(1, 12))
        dim = int(rng.choice([2, 3, 32]))
        # coarse coordinates give ties, exact duplicates and +-1 similarities
        points = rng.integers(-2, 3, size=(n, dim)).astype(float)
        if rng.random() < 0.5:
            points = points * rng.random()
        else:
            points[rng.random(n) < 0.3] = rng.normal(size=dim)
        for i in range(n):
            if rng.random() < 0.15:
                points[i] = 0.0
            elif i and rng.random() < 0.3:  # a duplicate, or its opposite
                points[i] = points[int(rng.integers(0, i))] * rng.choice([1.0, -1.0])
        if trial % 5 == 0:
            points = bridged_clusters(rng, dim)
        seen["zero"] += bool((np.linalg.norm(points, axis=1) == 0).any())
        for metric in ("cosine", "euclidean"):
            assert denoise._distance_matrix(points.copy(), metric).tobytes() == \
                eager_distance_matrix(points.copy(), metric).tobytes(), (trial, metric)
            for eps in (0.05, 0.35, 1.5):
                # a border point can touch cores of two clusters only from min_pts 4
                for min_pts in (1, 2, 3, 4):
                    cfg = DenoiseConfig(eps=eps, min_pts=min_pts, metric=metric)
                    want, within = eager_dbscan(points, cfg)
                    assert dbscan(points, cfg) == want, (trial, metric, eps, min_pts)
                    seen["several"] += len(want.clusters) > 1
                    labels = want.label_of()
                    core = [sum(row) >= min_pts for row in within]
                    for i, row in enumerate(within):
                        if core[i] or labels[i] is None:
                            continue
                        seen["border"] += 1
                        seen["contested"] += len(
                            {labels[j] for j, near in enumerate(row) if near and core[j]}) > 1
    # the inputs reach every branch the lazy rank and the zero-vector mask guard
    assert min(seen.values()) > 20, seen


def test_cluster_set_validation():
    with pytest.raises(ValueError, match="partition"):
        ClusterSet(clusters=(SemanticCluster(id=0, members=(0,)),), noise=(0,), n_points=1)


# -- embeddings --------------------------------------------------------------------

class ListProvider:
    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return self.vectors[: len(texts)]


def test_embed_values_empty():
    out = embed_values(ListProvider([]), [])
    assert out.shape[0] == 0


def test_embed_values_checks_cardinality():
    with pytest.raises(EmbeddingError, match="2 vectors for 3 texts"):
        embed_values(ListProvider([[1.0], [2.0]]), ["a", "b", "c"])


def test_embed_values_checks_dimensions():
    with pytest.raises(EmbeddingError, match="not uniform"):
        embed_values(ListProvider([[1.0], [2.0, 3.0]]), ["a", "b"])


def test_embed_values_checks_finite():
    with pytest.raises(EmbeddingError, match="non-finite"):
        embed_values(ListProvider([[float("nan")]]), ["a"])


def test_embed_values_refuses_empty_vectors():
    with pytest.raises(EmbeddingError, match="^embedding is empty: 2 vectors of size 0$"):
        embed_values(ListProvider([[], []]), ["a", "b"])


def test_empty_embedder_answer_is_refused_and_never_cached(tmp_path):
    calls = []

    def transport(url, payload, timeout, headers):
        calls.append(payload["input"])
        if len(calls) == 1:
            return {"embeddings": [[], []]}
        return {"embeddings": [[1.0, 0.0], [0.0, 1.0]]}

    gw = Gateway(cache_dir=tmp_path, transport=transport)
    handle = gw.embedder_handle(BackendConfig(role="embedder", endpoint="http://embedder.test/embed",
                                              max_retries=0))
    with pytest.raises(EmbeddingError, match="an embedding is empty$"):
        embed_values(handle, ["alpha", "beta"])
    assert list(tmp_path.glob("embedder-*.json")) == []
    # the backend is fixed: nothing of the empty answer was kept, so it is asked again
    assert embed_values(handle, ["alpha", "beta"]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert calls == [["alpha", "beta"], ["alpha", "beta"]]
    assert len(list(tmp_path.glob("embedder-*.json"))) == 1


def test_mock_embeddings_deterministic_for_duplicate_texts():
    a = mock_hash_embedding("oxidoreductase activity", 32)
    b = mock_hash_embedding("oxidoreductase activity", 32)
    assert a == b
    assert len(a) == 32
    assert sum(v * v for v in a) == pytest.approx(1.0)


def test_mock_embeddings_match_frozen_fixture():
    import json
    from pathlib import Path

    frozen = json.loads(
        (Path(__file__).parent / "fixtures" / "embeddings_frozen.json").read_text()
    )
    dim = frozen["dim"]
    for text, vector in frozen["vectors"].items():
        assert mock_hash_embedding(text, dim) == vector


# -- anchor selection ----------------------------------------------------------------

def hit_for(acc):
    return HomologHit(query_id="q", subject_accession=acc, percent_identity=90.0,
                      alignment_length=100, identity_count=90, e_value=1e-30, bitscore=250.0)


def pool_of(values_by_rank, stage=Stage.HORIZONTAL):
    homologs = []
    for rank, values in enumerate(values_by_rank, start=1):
        acc = f"P{rank:05d}"
        snippets = tuple(
            AnnotationSnippet(tag="FUNCTION", value=v, source_accession=acc, homolog_rank=rank)
            for v in values
        )
        homologs.append(PoolHomolog(rank=rank, hit=hit_for(acc), snippets=snippets))
    return EvidencePool(stage=stage, homologs=tuple(homologs))


def clusters_from(members_by_cluster, noise, n):
    clusters = tuple(
        SemanticCluster(id=i, members=tuple(m)) for i, m in enumerate(members_by_cluster)
    )
    return ClusterSet(clusters=clusters, noise=tuple(noise), n_points=n)


def test_select_anchor_cluster_simple():
    # flat indices: rank1 -> 0, rank2 -> 1, 2
    pool = pool_of([["a"], ["b", "c"]])
    cs = clusters_from([(0, 1), (2,)], [], 3)
    sel = select_anchor_clusters(cs, pool, anchor_top_m=1)
    assert sel.indices == (0, 1)
    assert sel.anchor_ranks == (1,)
    assert not sel.passthrough


def test_select_falls_back_when_anchor_is_noise():
    pool = pool_of([["a"], ["b", "c"]])
    cs = clusters_from([(1, 2)], [0], 3)
    sel = select_anchor_clusters(cs, pool, anchor_top_m=1)
    assert sel.indices == (1, 2)
    assert sel.anchor_ranks == (2,)
    assert any("rank 1" in w for w in sel.warnings)


def test_select_top2_unions_distinct_clusters():
    pool = pool_of([["a"], ["b"], ["c", "d"]])
    cs = clusters_from([(0,), (1,), (2, 3)], [], 4)
    sel = select_anchor_clusters(cs, pool, anchor_top_m=2)
    assert sel.indices == (0, 1)
    assert sel.anchor_ranks == (1, 2)
    assert set(sel.cluster_ids) == {0, 1}


def test_select_passthrough_when_everything_is_noise():
    pool = pool_of([["a"], ["b"]])
    cs = clusters_from([], [0, 1], 2)
    sel = select_anchor_clusters(cs, pool, anchor_top_m=1)
    assert sel.passthrough
    assert sel.indices == (0, 1)
    assert any("unfiltered" in w for w in sel.warnings)


def test_anchor_guarantee_on_random_pools():
    rng = random.Random(17)
    for _ in range(100):
        n_homologs = rng.randint(1, 4)
        values = [[f"v{r}-{i}" for i in range(rng.randint(0, 3))] for r in range(n_homologs)]
        pool = pool_of(values)
        flat = pool.snippets()
        if not flat:
            continue
        labels = [rng.choice([None, 0, 1]) for _ in flat]
        members = {}
        noise = []
        for i, lab in enumerate(labels):
            if lab is None:
                noise.append(i)
            else:
                members.setdefault(lab, []).append(i)
        ordered = [members[k] for k in sorted(members)]
        cs = clusters_from(ordered, noise, len(flat))
        sel = select_anchor_clusters(cs, pool, anchor_top_m=1)
        rank1_clustered = [i for i, s in enumerate(flat)
                           if s.homolog_rank == 1 and labels[i] is not None]
        if rank1_clustered:
            assert set(rank1_clustered) <= set(sel.indices)


def test_selection_cardinality_check():
    pool = pool_of([["a"]])
    cs = clusters_from([(0, 1)], [], 2)
    with pytest.raises(ValueError, match="covers 2 points"):
        select_anchor_clusters(cs, pool, anchor_top_m=1)


# -- context assembly ------------------------------------------------------------------

def test_assemble_context_renders_in_rank_order():
    pool = pool_of([["first"], ["second", "third"]])
    vertical, text = assemble_context(pool, [0, 2])
    assert vertical.stage == Stage.VERTICAL
    assert text == (
        "Homolog 1 (P00001): [FUNCTION]: first\n"
        "Homolog 2 (P00002): [FUNCTION]: third"
    )


def test_assemble_context_single_snippet():
    pool = pool_of([["only"]])
    _, text = assemble_context(pool, [0])
    assert text == "Homolog 1 (P00001): [FUNCTION]: only"


def test_assemble_context_deterministic():
    pool = pool_of([["x"], ["y"]])
    a = assemble_context(pool, [0, 1])[1]
    b = assemble_context(pool, [0, 1])[1]
    assert a.encode() == b.encode()


def test_assemble_context_empty_selection():
    pool = pool_of([["x"]])
    vertical, text = assemble_context(pool, [])
    assert text == ""
    assert vertical.snippets() == []


def test_vertical_multiset_is_subset():
    pool = pool_of([["a", "b"], ["c"]])
    vertical, _ = assemble_context(pool, [0, 2])
    assert set(vertical.snippet_multiset()) <= set(pool.snippet_multiset())


def test_render_context_covers_all_stages():
    pool = pool_of([["a"]], stage=Stage.RAW)
    assert render_context(pool) == "Homolog 1 (P00001): [FUNCTION]: a"


# -- the vertical stage ----------------------------------------------------------------

class CountingProvider:
    """Counts embedding requests; each one raises when `fail` is set."""

    def __init__(self, fail=False):
        self.calls = 0
        self.fail = fail

    def embed(self, texts):
        self.calls += 1
        if self.fail:
            raise RuntimeError("embedder down")
        return [mock_hash_embedding(t, 32) for t in texts]


@pytest.mark.parametrize("values_by_rank, min_pts", [
    ([["only"]], 2),
    ([[], ["only"]], 2),
    ([["a"], ["b"]], 3),
    ([["a", "a"]], 3),
], ids=["one-snippet", "one-snippet-second-rank", "two-below-3", "duplicates-below-3"])
def test_vertical_filter_below_min_pts_sends_no_embedding_request(values_by_rank, min_pts):
    pool = pool_of(values_by_rank)
    cfg = DenoiseConfig(min_pts=min_pts)
    failing = CountingProvider(fail=True)
    got = vertical_filter(pool, failing, cfg)
    assert failing.calls == 0
    # what clustering the working embedder's vectors gives: an all-noise passthrough
    vectors = embed_values(CountingProvider(), [s.value for s in pool.snippets()])
    selection = select_anchor_clusters(dbscan(vectors, cfg), pool, cfg.anchor_top_m)
    assert selection.passthrough
    assert got == (*assemble_context(pool, selection.indices), selection.warnings)
    assert got[0].snippets() == pool.snippets()


@pytest.mark.parametrize("min_pts", [1, 2, 3])
def test_vertical_filter_at_min_pts_sends_one_request(min_pts):
    pool = pool_of([[f"value {i}"] for i in range(min_pts)])
    cfg = DenoiseConfig(min_pts=min_pts)
    provider = CountingProvider()
    vertical_filter(pool, provider, cfg)
    assert provider.calls == 1
    failing = CountingProvider(fail=True)
    with pytest.raises(EmbeddingError, match="embedder down"):
        vertical_filter(pool, failing, cfg)
    assert failing.calls == 1
