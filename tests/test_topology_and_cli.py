"""Tests for the decentralized-averaging topologies and the CLI entry point."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.averaging import average_states
from repro.distributed.topology import (
    TOPOLOGIES,
    chordal_ring_graph,
    complete_mixing_matrix,
    consensus_distance,
    metropolis_hastings_weights,
    mix_states,
    mixing_matrix_for,
    ring_mixing_matrix,
    rounds_to_consensus,
    spectral_gap,
    star_mixing_matrix,
)
from repro.experiments.cli import build_parser, main


def random_connected_adjacency(n: int, p: float, seed: int) -> np.ndarray:
    """Seeded Erdős–Rényi G(n, p) adjacency plus the path 0-1-...-(n-1),
    which forces connectivity."""
    A = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
    A[np.arange(n - 1), np.arange(1, n)] = True
    return A | A.T


class TestMixingMatrices:
    @pytest.mark.parametrize("builder", [complete_mixing_matrix, ring_mixing_matrix, star_mixing_matrix])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_doubly_stochastic(self, builder, m):
        W = builder(m)
        assert W.shape == (m, m)
        np.testing.assert_allclose(W.sum(axis=0), np.ones(m), atol=1e-10)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(m), atol=1e-10)
        assert np.all(W >= -1e-12)

    def test_complete_graph_has_unit_spectral_gap(self):
        assert spectral_gap(complete_mixing_matrix(6)) == pytest.approx(1.0, abs=1e-10)

    def test_ring_gap_shrinks_with_size(self):
        assert spectral_gap(ring_mixing_matrix(4)) > spectral_gap(ring_mixing_matrix(16))

    def test_metropolis_hastings_on_random_graph(self):
        W = metropolis_hastings_weights(random_connected_adjacency(10, 0.5, seed=0))
        np.testing.assert_allclose(W.sum(axis=1), np.ones(10), atol=1e-10)
        assert spectral_gap(W) > 0

    def test_metropolis_hastings_rejects_disconnected(self):
        A = np.zeros((4, 4), dtype=bool)
        A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = True
        with pytest.raises(ValueError, match="must be connected"):
            metropolis_hastings_weights(A)

    def test_metropolis_hastings_rejects_malformed_adjacency(self):
        with pytest.raises(ValueError, match="square"):
            metropolis_hastings_weights(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            metropolis_hastings_weights(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="symmetric"):
            metropolis_hastings_weights(np.triu(np.ones((3, 3)), k=1))

    def test_metropolis_hastings_ignores_the_diagonal(self):
        A = random_connected_adjacency(7, 0.3, seed=1)
        with_loops = A.copy()
        np.fill_diagonal(with_loops, True)
        assert metropolis_hastings_weights(with_loops).tobytes() == metropolis_hastings_weights(A).tobytes()

    def test_chordal_ring_degrees(self):
        assert chordal_ring_graph(4).sum(axis=1).tolist() == [3, 3, 3, 3]
        A = chordal_ring_graph(9)
        assert A.sum(axis=1).tolist() == [4] * 9 and not A.diagonal().any()

    def test_mh_mixing_matrices_are_pinned(self):
        """Byte pin of the "mh" topology for m = 1..69, computed by the
        earlier graph-library implementation: the adjacency rewrite keeps
        every gossip trajectory byte-identical."""
        digest = hashlib.sha256()
        for m in range(1, 70):
            digest.update(mixing_matrix_for("mh", m).tobytes())
        assert digest.hexdigest() == "71849d66c5917ddf9ebfec519cff9de2cc1a73edb40ad047b4bc282447539785"

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(np.array([[0.5, 0.6], [0.4, 0.5]]))
        with pytest.raises(ValueError):
            spectral_gap(np.array([[1.0, 0.0]]))


class TestGossipAveraging:
    def _states(self, m=6, dim=10, seed=0):
        gen = np.random.default_rng(seed)
        return [gen.normal(size=dim) for _ in range(m)]

    def test_complete_mixing_matches_exact_average(self):
        states = self._states()
        mixed = mix_states(states, complete_mixing_matrix(len(states)), rounds=1)
        exact = average_states(states)
        for s in mixed:
            np.testing.assert_allclose(s, exact, atol=1e-12)

    def test_gossip_preserves_global_mean(self):
        states = self._states()
        W = ring_mixing_matrix(len(states))
        mixed = mix_states(states, W, rounds=5)
        np.testing.assert_allclose(average_states(mixed), average_states(states), atol=1e-10)

    def test_gossip_reduces_consensus_distance(self):
        states = self._states()
        W = ring_mixing_matrix(len(states))
        d0 = consensus_distance(states)
        d5 = consensus_distance(mix_states(states, W, rounds=5))
        d20 = consensus_distance(mix_states(states, W, rounds=20))
        assert d5 < d0 and d20 < d5

    def test_rounds_to_consensus_bound_is_sufficient(self):
        states = self._states(m=8)
        W = ring_mixing_matrix(8)
        rounds = rounds_to_consensus(W, tolerance=1e-3)
        mixed = mix_states(states, W, rounds=rounds)
        assert consensus_distance(mixed) < 1.1e-3 * consensus_distance(states)

    def test_zero_rounds_is_identity(self):
        states = self._states()
        mixed = mix_states(states, ring_mixing_matrix(len(states)), rounds=0)
        for a, b in zip(states, mixed):
            np.testing.assert_allclose(a, b)

    def test_state_count_mismatch(self):
        with pytest.raises(ValueError):
            mix_states(self._states(m=3), ring_mixing_matrix(4))

    def test_rounds_to_consensus_validation(self):
        with pytest.raises(ValueError):
            rounds_to_consensus(ring_mixing_matrix(4), tolerance=2.0)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=10),
    rounds=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_gossip_is_mean_preserving_contraction(m, rounds, seed):
    """Any number of ring-gossip rounds preserves the mean and never increases
    the consensus distance."""
    gen = np.random.default_rng(seed)
    states = [gen.normal(size=5) for _ in range(m)]
    W = ring_mixing_matrix(m)
    mixed = mix_states(states, W, rounds=rounds)
    np.testing.assert_allclose(average_states(mixed), average_states(states), atol=1e-9)
    assert consensus_distance(mixed) <= consensus_distance(states) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    m=st.integers(min_value=1, max_value=12),
)
def test_property_every_topology_builds_doubly_stochastic_matrix(topology, m):
    """Every named topology yields a non-negative doubly-stochastic W for
    every cluster size, so gossip always preserves the global mean."""
    W = mixing_matrix_for(topology, m)
    assert W.shape == (m, m)
    assert np.all(W >= -1e-12)
    np.testing.assert_allclose(W.sum(axis=0), np.ones(m), atol=1e-9)
    np.testing.assert_allclose(W.sum(axis=1), np.ones(m), atol=1e-9)
    gap = spectral_gap(W)
    assert 0.0 <= gap <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_metropolis_hastings_on_random_connected_graphs(n, p, seed):
    """MH weights over any connected graph are symmetric doubly-stochastic."""
    W = metropolis_hastings_weights(random_connected_adjacency(n, p, seed))
    np.testing.assert_allclose(W, W.T, atol=1e-12)
    np.testing.assert_allclose(W.sum(axis=1), np.ones(n), atol=1e-9)
    assert np.all(W >= -1e-12)
    assert spectral_gap(W) > 0.0


@settings(max_examples=25, deadline=None)
@given(
    topology=st.sampled_from(["ring", "star", "mh"]),
    m=st.integers(min_value=3, max_value=10),
    rounds=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_contraction_rate_matches_spectral_gap(topology, m, rounds, seed):
    """The consensus deviation contracts at least as fast as |λ2|^rounds —
    the linear-rate guarantee ``spectral_gap`` / ``rounds_to_consensus``
    promise (Frobenius norm of the deviation from the preserved mean)."""
    gen = np.random.default_rng(seed)
    X0 = np.stack([gen.normal(size=6) for _ in range(m)])
    W = mixing_matrix_for(topology, m)
    Xr = np.stack(mix_states(list(X0), W, rounds=rounds))
    lam2 = 1.0 - spectral_gap(W)
    dev0 = np.linalg.norm(X0 - X0.mean(axis=0))
    devr = np.linalg.norm(Xr - Xr.mean(axis=0))
    assert devr <= (lam2**rounds) * dev0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10),
    dim=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_complete_mix_equals_exact_average(m, dim, seed):
    """One complete-topology mix is the exact global average for every
    worker — the invariant that keeps gossip a strict generalization."""
    gen = np.random.default_rng(seed)
    states = [gen.normal(size=dim) for _ in range(m)]
    mixed = mix_states(states, mixing_matrix_for("complete", m), rounds=1)
    exact = average_states(states)
    for s in mixed:
        np.testing.assert_allclose(s, exact, atol=1e-12)


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.config == "vgg_cifar10_fixed_lr"
        assert args.scale == 1.0

    def test_parser_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--config", "does-not-exist"])

    def test_main_runs_smoke_config_and_saves(self, tmp_path, capsys):
        out_path = tmp_path / "runs.json"
        exit_code = main(["--config", "smoke", "--save", str(out_path), "--points", "4"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "adacomm" in captured
        assert "Time to target training loss" in captured
        payload = json.loads(out_path.read_text())
        assert {run["name"] for run in payload["runs"]} == {"sync-sgd", "pasgd-tau8", "adacomm"}

    def test_main_with_explicit_target_and_seed(self, capsys):
        assert main(["--config", "smoke", "--seed", "3", "--target-loss", "0.5"]) == 0
        assert "speed-up" in capsys.readouterr().out.lower()

    def test_parser_accepts_topology_and_staleness(self):
        args = build_parser().parse_args(["--topology", "ring", "--staleness", "0.5"])
        assert args.topology == "ring"
        assert args.staleness == 0.5
        assert build_parser().parse_args([]).topology is None

    def test_parser_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--topology", "mesh"])

    def test_main_runs_gossip_via_topology_flag(self, capsys):
        exit_code = main(
            ["--config", "smoke", "--topology", "ring",
             "--set", "methods=('pasgd-tau4',)", "--points", "3"]
        )
        assert exit_code == 0
        assert "pasgd-tau4" in capsys.readouterr().out

    def test_main_runs_async_with_staleness_flag(self, capsys):
        exit_code = main(
            ["--config", "smoke", "--staleness", "0.5",
             "--set", "methods=('async-tau4',)", "--points", "3"]
        )
        assert exit_code == 0
        assert "async-tau4-d0.5" in capsys.readouterr().out
