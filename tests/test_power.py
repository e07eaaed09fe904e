"""Planted defects: each row plants one named defect in the package and
asserts that the test named next to it then fails.

A defect is the package's own source with one anchor string replaced,
recompiled and monkeypatched in, so a row breaks exactly one thing. A row
whose anchor is no longer in the source fails, rather than planting nothing.
"""

import inspect
import textwrap

import pytest

import test_acceptance
import test_cli
import test_distances
import test_ensembles
import test_experiments
import test_geometry
import test_quantizer
from qembed import cli as C
from qembed import distances as D
from qembed import ensembles as E
from qembed import experiments as X
from qembed import geometry as G
from qembed import quantizer as Q

# name: (owner, function, anchor, replacement)
DEFECTS = {
    # the fix-up's mask of moved indices comes back all False
    "floor-without-upward-fixup":
        (Q, "_floor_index", "np.less_equal(wall, t, out=moved)",
         "np.logical_and(moved, False, out=moved)"),
    "floor-without-downward-fixup":
        (Q, "_floor_index", "np.greater(wall, t, out=moved)",
         "np.logical_and(moved, False, out=moved)"),
    # a direction the filter rejects (its draw returns False) is kept
    "filtered-draw-keeps-a-failing-draw":
        (X, "_first_passing", "if got := draw():", "if (got := draw()) is not None:"),
    "radius-to-the-wall-behind":
        (X, "_chord_radii", "enumerate((rising, falling))", "enumerate((falling, rising))"),
    "backward-walls-from-the-forward-rule":
        (X, "_chord_radii", "enumerate((rising, falling))", "enumerate((rising, rising))"),
    # only the anchors carry the dither: Phi u + xi is no direction
    "directions-take-the-dither":
        (X._Rays, "step", "product(block.phi, self.dirs)", "block.project_many(self.dirs)"),
    # the cap behind along u read as the cap ahead
    "cap-behind-is-the-cap-ahead": (X, "_radial_caps", "root + xu", "root - xu"),
    "row-blocks-drop-the-partial-block":
        (E, "_row_blocks", "range(0, m, rows)", "range(0, m - m % rows, rows)"),
    # the sweeps call map_blocks through experiments' own binding of it
    "sweeps-draw-the-whole-matrix-as-one-block":
        (X, "map_blocks", "sample_matrix(ensemble, m, n, mat_seed, rows)",
         "sample_matrix(ensemble, m, n, mat_seed, m)"),
    # the sweep's one block loop feeds the finite-set label refinement
    "finite-refinement-drops-the-last-block":
        (X, "_sweep", "map_blocks(plan.ensemble, m, n, plan.delta, map_seed, rows)",
         "iter(list(map_blocks(plan.ensemble, m, n, plan.delta, map_seed, rows))[:-1])"),
    # the fold waits for the block being drawn, so it never sees the first
    # block and sees the last one twice
    "draw-ahead-hands-the-block-being-drawn":
        (X, "_drawn_ahead", "yield block", "yield drawn.result() or block"),
    # the first draw is submitted at the first next(), after the folds drew
    # their pairs or rays
    "draw-ahead-waits-for-the-first-next":
        (X, "_drawn_ahead",
         "drawn = helpers.submit(next, blocks, None)\n\n"
         "    def handed():\n        nonlocal drawn\n",
         "def handed():\n        drawn = helpers.submit(next, blocks, None)\n"),
    "both-statistics-share-one-generator":
        (X, "_sweep", "stat.start(plan, np.random.default_rng(sample_seed), workspaces.work)",
         "stat.start(plan, rng, workspaces.work) for rng in [np.random.default_rng(sample_seed)]"),
    # a partial last block sums the workspace's whole code difference, whose
    # rows past the block's are the previous block's
    "fold-buffer-reads-stale-rows":
        (X._Distortion, "step", "pair_counts(block, self.batch, work=self.work).sum(axis=0)",
         "pair_counts(block, self.batch, work=self.work).base.sum(axis=0)"),
    # the fold draws one pair more than the sweep sized its blocks for
    "distortion-projects-past-its-statement":
        (X._Distortion, "__init__", "range(columns // 2)", "range(columns // 2 + 1)"),
    "slots-sorted-without-their-values":
        (Q.SparseColumns, "__post_init__", "np.take_along_axis(values, order, axis=0)", "values"),
    # the directions' slots take the values of the dense anchor rows
    "direction-slots-from-the-anchors":
        (X, "_consistency_width", "zip(points, dirs)", "zip(points, anchors)"),
    "enumerator-ignores-the-block-budget":
        (D, "soft_count_enumerated", "chunk = block_rows(len(ks), 1)", "chunk = 4000"),
    "width-search-compares-256-points-at-once":
        (X, "_max_filtered_distance", "chunk = block_rows(points.size, 1)", "chunk = 256"),
    # mu_sg reads block_rows through ensembles' own binding of it
    "block-rows-reads-a-literal-budget":
        (E, "block_rows", "BLOCK_ENTRIES // max(n, count)", "2**17 // max(n, count)"),
    # criterion 1 and map_blocks draw every dither through quantizer's own binding of dither
    "dither-on-half-the-bin": (Q, "dither", "random(m) * delta", "random(m) * delta / 2"),
    "dither-left-out":
        (Q, "dither", "np.random.default_rng(seed).random(m) * delta", "np.zeros(m)"),
    "rademacher-entries-for-gaussian-ones":
        (E, "sample_iid", "return rng.standard_normal(shape)",
         "return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0"),
    "irwin-hall-without-its-last-term":
        (E, "_uniform_sum_tail", "range(int(y) + 1)", "range(int(y))"),
    "fit-point-is-the-mean-not-the-worst":
        (X, "_sweep", "float(np.max(vals))", "float(np.mean(vals))"),
    "tail-gap-piece-not-split-at-the-crossing":
        (E, "exact_tail_gap_discrete",
         "pieces = [(lo, t_star, -1.0), (t_star, hi, 1.0)]", "pieces = [(lo, hi, 1.0)]"),
    "width-search-filters-on-the-norm-ratio":
        (X, "_max_filtered_distance", "anti_sparse(diff, k0)",
         "np.divide(norms, np.max(np.abs(diff), axis=2), out=np.zeros_like(norms),"
         " where=norms > 0) ** 2 >= k0"),
    "anti-sparsity-by-division":
        (G, "anti_sparse", "np.vecdot(u, u) >= k0 * sup**2", "np.vecdot(u, u) / sup**2 >= k0"),
    "zero-difference-passes": (G, "anti_sparse", "sup > 0.0", "sup >= 0.0"),
    "outputs-keep-a-stale-tail": (C, "_write", "fh.truncate()", "pass"),
    "map-counts-sum-strided-rows":
        (D, "map_counts", "reshape(by_map).sum(axis=-2,",
         "reshape(by_map[:-3] + (m, -1, by_map[-1])).sum(axis=-3,"),
    "stirling-upper-constant-is-the-lower-one":
        (X, "stirling_gosper_margins", "np.log(n + 1 / 5)", "np.log(n + 1 / 6)"),
    # criterion 9 still passes under it: only the 40-digit reference sees it
    "stirling-increment-through-log":
        (X, "stirling_gosper_margins", "np.log1p(1.0 / k)", "np.log(1.0 + 1.0 / k)"),
    "stirling-error-budget-zero":
        (X, "stirling_gosper_margins", "16.0 * n * np.finfo(float).eps", "0.0 * n"),
    "width-estimate-draws-every-gaussian-at-once":
        (G, "width_estimate",
         "rows = block_rows(dim, spec.points.shape[0] if isinstance(spec, FiniteSet) else 1)",
         "rows = draws"),
    "count-law-softens-by-t-not-2t":
        (E, "gaussian_count_tails", "(2.0 * t + k * delta) / dist", "(t + k * delta) / dist"),
    "count-law-k-off-by-one":
        (E, "gaussian_count_tails", "for k in range(k_max + 1)]", "for k in range(1, k_max + 2)]"),
    "chernoff-bound-against-the-monte-carlo-tail":
        (X, "lemma5_chernoff_check", "bound_holds=tail + budget <= bound",
         "bound_holds=hits / trials <= bound"),
    # a plan whose filter passes no draw runs its trials, whose pairs or rays
    # then starve one by one
    "filter-check-never-refuses":
        (X, "_check_filter", "rate * MAX_FILTER_DRAWS < 1.0", "rate * MAX_FILTER_DRAWS < 0.0"),
    "soft-count-counts-the-upper-threshold":
        (D, "soft_count_array", "hi1 = np.ceil((a - t) / delta) - 1.0",
         "hi1 = np.ceil((a - t) / delta)"),
}

# (defect, test that must fail, its arguments); the test's remaining
# parameters are pytest fixtures
ROWS = [
    ("floor-without-upward-fixup", test_quantizer.test_lattice_exactness, (0.1,)),
    ("floor-without-downward-fixup", test_quantizer.test_floor_bracket_at_lattice_neighbours,
     (0.1,)),
    *[(defect, test_quantizer.test_floor_bracket_near_the_range_guard, (delta,))
      for defect in ("floor-without-upward-fixup", "floor-without-downward-fixup")
      for delta in (0.1, 1e260)],
    *[("filtered-draw-keeps-a-failing-draw",
       test_experiments.test_ray_rows_equal_the_rays_drawn_one_at_a_time, (spec, 3.0))
      for spec in (G.SparseBall(n=64, k=4, radius=1.0),
                   G.LowRankBall(n1=8, n2=8, r=2, radius=1.0))],
    ("filtered-draw-keeps-a-failing-draw",
     test_experiments.test_a_low_rank_anchor_that_passes_no_direction_gives_up, ()),
    ("radius-to-the-wall-behind", test_experiments.test_consistent_radius_is_tight,
     ("gaussian", 256)),
    ("backward-walls-from-the-forward-rule", test_experiments.test_consistent_radius_is_tight,
     ("gaussian", 256)),
    ("backward-walls-from-the-forward-rule",
     test_experiments.test_chord_ends_keep_the_anchor_codes_and_lie_in_the_set,
     (G.LowRankBall(n1=8, n2=8, r=2, radius=1.0), 16, 1e-12)),
    ("directions-take-the-dither", test_experiments.test_ray_radii_blocked_equals_whole,
     ("gaussian",)),
    ("directions-take-the-dither",
     test_experiments.test_chord_ends_keep_the_anchor_codes_and_lie_in_the_set,
     (G.SparseBall(n=64, k=4, radius=1.0), 16, 1e-12)),
    ("cap-behind-is-the-cap-ahead",
     test_experiments.test_ray_rows_equal_the_rays_drawn_one_at_a_time,
     (G.SparseBall(n=64, k=4, radius=1.0), 1.0)),
    ("cap-behind-is-the-cap-ahead",
     test_experiments.test_ray_rows_equal_the_rays_drawn_one_at_a_time,
     (G.LowRankBall(n1=8, n2=8, r=2, radius=1.0), 3.0)),
    ("cap-behind-is-the-cap-ahead",
     test_experiments.test_radial_caps_at_the_sphere_without_a_warning, ()),
    ("cap-behind-is-the-cap-ahead",
     test_experiments.test_cap_behind_is_the_cap_ahead_of_the_reversed_ray,
     (G.EuclideanBall(n=16, radius=1.0),)),
    ("row-blocks-drop-the-partial-block", test_distances.test_pair_distances_blocked_equals_whole,
     ("gaussian",)),
    ("row-blocks-drop-the-partial-block", test_experiments.test_ray_radii_blocked_equals_whole,
     ("gaussian",)),
    ("row-blocks-drop-the-partial-block",
     test_ensembles.test_sample_matrix_blocks_stack_to_the_whole, ("gaussian",)),
    ("sweeps-draw-the-whole-matrix-as-one-block",
     test_experiments.test_sweep_holds_one_block_of_phi, (X.quasi_isometry_sweep,)),
    ("sweeps-draw-the-whole-matrix-as-one-block",
     test_experiments.test_sweep_holds_one_block_of_phi, (X.consistency_width_sweep,)),
    ("sweeps-draw-the-whole-matrix-as-one-block",
     test_experiments.test_finite_sweep_holds_one_block_of_codes, (4096, 1.0)),
    ("finite-refinement-drops-the-last-block",
     test_experiments.test_shared_code_widths_streamed_equals_whole, (1.0,)),
    *[("draw-ahead-hands-the-block-being-drawn",
       test_experiments.test_drawing_ahead_keeps_every_row, (kind, 1))
      for kind in test_experiments.DRAW_AHEAD_PLANS],
    ("draw-ahead-waits-for-the-first-next",
     test_experiments.test_drawing_ahead_asks_for_the_first_block_before_it_returns, ()),
    *[("fold-buffer-reads-stale-rows",
       test_experiments.test_distortion_folds_on_one_workspace_equal_pair_distances, (spec,))
      for spec in (G.SparseBall(n=512, k=4, radius=1.0),
                   G.LowRankBall(n1=16, n2=16, r=2, radius=1.0))],
    ("distortion-projects-past-its-statement",
     test_experiments.test_folds_project_the_columns_their_statistic_states,
     (G.SparseBall(n=64, k=4, radius=1.0),)),
    ("slots-sorted-without-their-values",
     test_experiments.test_pair_batch_from_slots_equals_csc_array_of_the_dense_pairs, (4, 1.5)),
    ("slots-sorted-without-their-values",
     test_experiments.test_sparse_columns_equal_csc_array_of_the_dense_batch, ()),
    ("slots-sorted-without-their-values",
     test_quantizer.test_sparse_columns_sort_slots_given_in_any_order, ()),
    *[("direction-slots-from-the-anchors",
       test_experiments.test_ray_rows_equal_the_rays_drawn_one_at_a_time,
       (G.SparseBall(n=64, k=4, radius=1.0), k0)) for k0 in (1.0, 3.0)],
    ("enumerator-ignores-the-block-budget",
     test_distances.test_enumerator_stays_within_the_block_budget, ()),
    ("width-search-compares-256-points-at-once",
     test_experiments.test_finite_sweep_holds_one_block_of_codes, (2, 0.02)),
    ("block-rows-reads-a-literal-budget",
     test_ensembles.test_every_block_shrinks_with_the_one_budget, ("mu_sg",)),
    ("rademacher-entries-for-gaussian-ones", test_ensembles.test_sample_matrix_law, ()),
    ("rademacher-entries-for-gaussian-ones",
     test_acceptance.test_criterion_05_expectation_identity, ()),
    ("dither-on-half-the-bin", test_acceptance.test_criterion_01_dithered_floor_identity, ()),
    ("dither-left-out", test_acceptance.test_criterion_01_dithered_floor_identity, ()),
    ("irwin-hall-without-its-last-term",
     test_ensembles.test_uniform_sum_tail_matches_empirical_tail, (2,)),
    ("both-statistics-share-one-generator",
     test_experiments.test_paired_sweep_equals_the_one_statistic_views, ("quick", 1)),
    ("fit-point-is-the-mean-not-the-worst",
     test_experiments.test_fit_points_are_the_worst_uncensored_statistics, ()),
    ("tail-gap-piece-not-split-at-the-crossing",
     test_ensembles.test_exact_tail_gap_discrete_matches_quadrature, ()),
    ("width-search-filters-on-the-norm-ratio",
     test_experiments.test_width_search_filters_with_the_anti_sparsity_level, ()),
    ("anti-sparsity-by-division",
     test_geometry.test_anti_sparse_is_exact_on_the_mesh_differences, ()),
    ("zero-difference-passes", test_geometry.test_stacked_anti_sparse_equals_each_row, ()),
    ("outputs-keep-a-stale-tail", test_cli.test_sweep_over_longer_files_leaves_no_stale_tail,
     ("quasi-isometry",)),
    ("soft-count-counts-the-upper-threshold",
     test_distances.test_code_difference_is_the_t0_count, ()),
    ("map-counts-sum-strided-rows", test_distances.test_map_counts_are_the_m_row_slices,
     (E.BLOCK_ENTRIES,)),
    ("stirling-upper-constant-is-the-lower-one",
     test_experiments.test_stirling_small_and_medium, ()),
    ("stirling-increment-through-log",
     test_experiments.test_stirling_margins_within_their_budget_of_40_digits, ()),
    ("stirling-error-budget-zero",
     test_experiments.test_stirling_check_fails_safe_past_its_budget, ()),
    ("count-law-softens-by-t-not-2t",
     test_ensembles.test_count_law_is_a_quadrature_of_the_soft_count, (1.3, 0.4, 0.3)),
    ("count-law-softens-by-t-not-2t", test_ensembles.test_count_law_agrees_with_map_counts, ()),
    ("count-law-k-off-by-one",
     test_ensembles.test_count_law_is_a_quadrature_of_the_soft_count, (0.5, 1.0, 0.0)),
    ("count-law-k-off-by-one", test_ensembles.test_count_law_agrees_with_map_counts, ()),
    ("filter-check-never-refuses",
     test_experiments.test_filter_check_estimates_a_k0_above_every_draws_nonzeros, ()),
    ("chernoff-bound-against-the-monte-carlo-tail",
     test_experiments.test_lemma5_verdict_reads_the_exact_tail, ()),
    *[("width-estimate-draws-every-gaussian-at-once",
       test_geometry.test_width_estimate_holds_one_block, (spec,))
      for spec in test_geometry.WIDTH_BLOCK_SPECS],
]


def _planted(owner, name: str, anchor: str, replacement: str):
    """owner.name recompiled from its source with anchor replaced."""
    func = inspect.getattr_static(owner, name)
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(anchor) == 1, f"{anchor!r} is not in the source of {name} exactly once"
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(src.replace(anchor, replacement), inspect.getsourcefile(func), "exec"),
         namespace)
    return namespace[name]


@pytest.mark.parametrize("defect, test, args", ROWS,
                         ids=[f"{d}-{t.__name__}" for d, t, _ in ROWS])
def test_planted_defect_is_caught(defect, test, args, monkeypatch, request):
    owner, name, anchor, replacement = DEFECTS[defect]
    monkeypatch.setattr(owner, name, _planted(owner, name, anchor, replacement))
    fixtures = list(inspect.signature(test).parameters)[len(args):]
    # a test whose check is a pytest.raises block fails with pytest's own
    # Failed ("DID NOT RAISE"), which is no AssertionError
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test(*args, *map(request.getfixturevalue, fixtures))
