"""Replication study machinery: seeding, summaries, histograms, surrogates."""

import numpy as np
import pytest

from snowball_sbm import (
    ClusterOverlay,
    DesignConfig,
    McmcConfig,
    SbmParams,
    StudyConfig,
    ValidationError,
    clustered_population,
    generate_population,
    run_study,
    summarize_histograms,
)
from snowball_sbm.harness import (
    SURVEY_SCALE_N,
    estimand_names,
    survey_scale_params,
    replicate_seeds,
)


def small_study_config(**overrides):
    params = SbmParams([0.5, 0.5], [0.2, 0.08, 0.15])
    base = dict(
        replicates=3,
        design=DesignConfig(mode="fixed_size", n0=8),
        mcmc=McmcConfig(chain_length=60, burn_in_fraction=0.1),
        master_seed=31,
        params=params,
        population_size=50,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_requires_exactly_one_population_source(self):
        params = SbmParams([1.0], [0.2])
        with pytest.raises(ValidationError, match="population source"):
            StudyConfig(replicates=1, design=DesignConfig(mode="bernoulli", q=0.1))
        graph = generate_population(params, 10, seed=0)
        with pytest.raises(ValidationError, match="population source"):
            StudyConfig(
                replicates=1,
                design=DesignConfig(mode="bernoulli", q=0.1),
                population=graph,
                params=params,
                population_size=10,
            )

    def test_replicate_seed_rule_is_stable(self):
        assert replicate_seeds(5, 0) == replicate_seeds(5, 0)
        assert replicate_seeds(5, 0) != replicate_seeds(5, 1)
        assert replicate_seeds(5, 0) != replicate_seeds(6, 0)


class TestRunStudy:
    def test_single_replicate_matches_direct_pipeline(self):
        from snowball_sbm import draw_initial, run_chain, trace_one_wave
        from snowball_sbm.harness import population_seed, resolve_population

        cfg = small_study_config(replicates=1)
        summary = run_study(cfg)
        assert summary.estimate_rows.shape[0] == 1

        population = resolve_population(cfg)
        design_seed, chain_seed = replicate_seeds(cfg.master_seed, 0)
        s0 = draw_initial(population, cfg.design, design_seed)
        data = trace_one_wave(population, s0)
        trace = run_chain(data, cfg.mcmc, chain_seed, n_strata=2)
        mean = dict(zip(estimand_names(2), trace.reduce(np.mean).tolist()))
        assert summary.estimates_for("N")[0] == mean["N"]
        assert summary.estimates_for("lambda_1")[0] == mean["lambda_1"]

    def test_reproducible_and_thread_count_invariant(self):
        a = run_study(small_study_config())
        b = run_study(small_study_config())
        assert np.array_equal(a.estimate_rows, b.estimate_rows)

    def test_targets_are_full_graph_mles(self):
        from snowball_sbm import mle_from_full_graph
        from snowball_sbm.harness import resolve_population

        cfg = small_study_config()
        summary = run_study(cfg)
        expected = mle_from_full_graph(resolve_population(cfg), n_strata=2)
        assert summary.targets.lam.tolist() == expected.lam.tolist()

    def test_failed_replicates_are_recorded_not_fatal(self):
        # a cap below any conceivable sample size forces per-replicate failure
        cfg = small_study_config(mcmc=McmcConfig(chain_length=10, n_max_cap=1))
        summary = run_study(cfg)
        assert len(summary.failures) == 3
        assert summary.estimate_rows.shape[0] == 0

    def test_bugs_propagate_instead_of_counting_as_failures(self, monkeypatch):
        import snowball_sbm.harness as harness

        def broken_chain(*args, **kwargs):
            raise TypeError("a bug in the chain")

        monkeypatch.setattr(harness, "run_chains", broken_chain)
        with pytest.raises(TypeError, match="a bug in the chain"):
            run_study(small_study_config())

    @pytest.mark.parametrize("step", ["chain_stats", "run_chains"])
    def test_broadcast_bugs_propagate(self, monkeypatch, step):
        """numpy raises ValueError for shape bugs; neither a per-replicate
        step nor the lockstep chains may record one as a failed replicate."""
        import snowball_sbm.harness as harness

        def broken(*args, **kwargs):
            return np.zeros(3) + np.zeros(2)

        monkeypatch.setattr(harness, step, broken)
        with pytest.raises(ValueError, match="broadcast"):
            run_study(small_study_config())

    def test_every_replicate_matches_its_own_pipeline(self, monkeypatch):
        """A G = 3 study with the cap inside the range of sample sizes: some
        replicates fail on the cap, some bind at it (grid draws of N), the
        rest take the negative-binomial draw. Each completed replicate must
        equal its own pipeline bit for bit, and the failures must match."""
        import snowball_sbm.augmentation as augmentation

        from snowball_sbm import draw_initial, run_chain, trace_one_wave
        from snowball_sbm.harness import resolve_population

        decisions = []
        takes_negative_binomial = augmentation._takes_negative_binomial

        def recording_decision(*args):
            rejection = takes_negative_binomial(*args)
            decisions.append(np.atleast_1d(rejection))
            return rejection

        monkeypatch.setattr(augmentation, "_takes_negative_binomial", recording_decision)
        params = SbmParams([0.3, 0.3, 0.4], [0.15, 0.05, 0.08, 0.2, 0.06, 0.12])
        cfg = small_study_config(
            replicates=10,
            design=DesignConfig(mode="bernoulli", q=0.15),
            mcmc=McmcConfig(chain_length=100, n_max_cap=45),
            master_seed=1,
            params=params,
            population_size=60,
        )
        summary = run_study(cfg)
        rejection = np.concatenate(decisions)
        assert rejection.any() and not rejection.all()  # both draws of N ran

        population = resolve_population(cfg)
        expected_rows, expected_failures, cap_hits = [], [], 0
        for index in range(cfg.replicates):
            design_seed, chain_seed = replicate_seeds(cfg.master_seed, index)
            s0 = draw_initial(population, cfg.design, design_seed)
            data = trace_one_wave(population, s0)
            try:
                trace = run_chain(data, cfg.mcmc, chain_seed, n_strata=3)
            except ValidationError as exc:
                expected_failures.append((index, str(exc)))
                continue
            mean = dict(zip(estimand_names(3), trace.reduce(np.mean).tolist()))
            expected_rows.append([index, *(mean[name] for name in summary.column_names)])
            cap_hits += trace.cap_hits
        assert expected_failures and cap_hits and len(expected_rows) > len(expected_failures)
        assert summary.failures == expected_failures
        expected = np.array(expected_rows)
        assert summary.replicate_indices.tolist() == expected[:, 0].tolist()
        assert summary.estimate_rows == pytest.approx(expected[:, 1:], abs=0)

    def test_sample_fractions(self):
        cfg = small_study_config(replicates=5)
        summary = run_study(cfg)
        assert summary.mean_initial_fraction == pytest.approx(8 / 50)
        assert summary.mean_final_fraction >= summary.mean_initial_fraction

    def test_column_names(self):
        assert estimand_names(2) == ["N", "lambda_1", "lambda_2", "beta_1_1", "beta_1_2", "beta_2_2"]


class TestSurveyScaleBehavior:
    def test_single_run_sanity_band(self):
        """One 15%-initial sample from a survey-scale population must give a
        size estimate in a wide sanity band around the truth."""
        from snowball_sbm import draw_initial, run_chain, trace_one_wave

        population = generate_population(survey_scale_params(), SURVEY_SCALE_N, seed=90)
        s0 = draw_initial(population, DesignConfig(mode="fixed_size", n0=90), 91)
        data = trace_one_wave(population, s0)
        trace = run_chain(data, McmcConfig(chain_length=1000), 92, n_strata=2)
        mean = dict(zip(estimand_names(2), trace.reduce(np.mean).tolist()))
        assert 350 < mean["N"] < 950
        assert 0.3 < mean["lambda_1"] < 0.6

    def test_degree_biased_design_keeps_beta_order_of_magnitude(self):
        """Misspecified degree-weighted recruitment may bias the link
        probabilities but must keep their order of magnitude."""
        cfg = StudyConfig(
            replicates=24,
            design=DesignConfig(mode="degree_biased", n0=89),
            mcmc=McmcConfig(chain_length=600, burn_in_fraction=0.1),
            master_seed=77,
            params=survey_scale_params(),
            population_size=SURVEY_SCALE_N,
        )
        summary = run_study(cfg)
        assert not summary.failures
        for name, target in zip(["beta_1_1", "beta_1_2", "beta_2_2"], summary.targets.beta):
            median = summary.stats[name]["median"]
            assert target / 3 < median < target * 3, f"{name}: {median} vs {target}"


class TestHistograms:
    def test_constant_values_single_occupied_bin(self):
        rows = np.full((10, 1), 3.25)
        hists = summarize_histograms(rows, ["N"], bins=7)
        edges, counts = hists["N"]
        assert counts.sum() == 10
        assert (counts > 0).sum() == 1

    def test_uniform_counts_within_three_se(self):
        rng = np.random.default_rng(0)
        rows = rng.random((1000, 1))
        hists = summarize_histograms(rows, ["x"], bins=10)
        _, counts = hists["x"]
        se = np.sqrt(1000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 100) < 3 * se)

    def test_counts_conserve_replicates(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(137, 3))
        hists = summarize_histograms(rows, ["a", "b", "c"], bins=12)
        for _, counts in hists.values():
            assert counts.sum() == 137


class TestSurrogates:
    def test_survey_scale_params(self):
        params = survey_scale_params()
        assert params.lam.tolist() == [0.425, 0.575]
        assert params.beta.tolist() == [0.0046, 0.0014, 0.0058]
        assert SURVEY_SCALE_N == 595

    def test_clustered_population_preserves_edge_budget(self):
        params = survey_scale_params()
        base = generate_population(params, SURVEY_SCALE_N, seed=3)
        clustered = clustered_population(params, SURVEY_SCALE_N, ClusterOverlay(), seed=3)
        e_base, e_clustered = len(base.edge_list()), len(clustered.edge_list())
        assert abs(e_clustered - e_base) < 0.2 * e_base

    def test_clustered_population_is_clustered(self):
        # within-stratum neighborhoods close into triangles by construction
        pop = clustered_population(survey_scale_params(), SURVEY_SCALE_N, ClusterOverlay(), seed=3)
        adj = pop.adjacency.astype(int)
        triangles = np.trace(adj @ adj @ adj) // 6
        base = generate_population(survey_scale_params(), SURVEY_SCALE_N, seed=3)
        base_adj = base.adjacency.astype(int)
        base_triangles = np.trace(base_adj @ base_adj @ base_adj) // 6
        assert triangles > 10 * max(base_triangles, 1)

    def test_overlay_validation(self):
        with pytest.raises(ValidationError):
            ClusterOverlay(clique_size=1)
        with pytest.raises(ValidationError):
            ClusterOverlay(background_scale=1.5)
