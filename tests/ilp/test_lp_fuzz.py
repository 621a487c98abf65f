"""Differential LP fuzzing suite: three kernels, one answer.

Seeded generators (shared with the kernel micro-benchmark via
:mod:`repro.ilp.instances`, plus the status cases of
``lp_status_cases.py`` next to this file) build random :class:`StandardForm`
instances — mixed ``==``/``<=`` rows, free/fixed/bounded variables,
degenerate, infeasible, unbounded and large sparse cases.  The suite
cross-checks the revised simplex against the legacy dense tableau and
(when SciPy is present) HiGHS.  Statuses must agree exactly; objectives
to 1e-6.  On top of the kernel cross-check, both basis representations
(dense inverse / sparse LU) must agree with each other — the
canonicalization step pins the final vertex, so even the *solution
vectors* are compared.  The corpus is a fixed seed list so the suite is
deterministic and runs as part of tier-1; when a fuzz failure is found
in the wild, append its seed to the matching corpus tuple below so it
becomes a permanent regression case (see CONTRIBUTING.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp import (
    RevisedOptions,
    RevisedSimplex,
    SimplexOptions,
    highs_available,
    solve_lp_highs,
    solve_lp_revised,
    solve_lp_simplex,
)
from repro.ilp.instances import (
    degenerate_lp,
    feasible_box_lp,
    large_sparse_lp,
    mixed_variable_lp,
)

from lp_status_cases import infeasible_lp, unbounded_lp

# --------------------------------------------------------------------------
# Seed corpus.  Every seed is one deterministic LP; append the seed of any
# newly-found fuzz failure to keep it as a regression case forever.
# --------------------------------------------------------------------------
FEASIBLE_SEEDS = tuple(range(1, 21)) + (911, 4242)
MIXED_VAR_SEEDS = tuple(range(100, 116))
INFEASIBLE_SEEDS = tuple(range(200, 210))
UNBOUNDED_SEEDS = tuple(range(300, 308))
DEGENERATE_SEEDS = tuple(range(400, 406))
LARGE_SPARSE_SEEDS = (500, 501, 502)

#: both basis representations, each forced (the auto default at fuzz
#: sizes is dense).  The ``test_pricing_rules_*`` cases check these; their
#: names date from when the kernel also had partial and Devex pricing.
FACTORIZATIONS = ("dense", "lu")


# --------------------------------------------------------------------------
# Differential oracles
# --------------------------------------------------------------------------

def _assert_agree(form, expected_status=None, check_tableau=True):
    """Solve with every available kernel and demand one answer."""
    results = {"revised": solve_lp_revised(form, RevisedOptions())}
    if check_tableau:
        results["simplex"] = solve_lp_simplex(form, SimplexOptions())
    if highs_available():
        results["highs"] = solve_lp_highs(form)
    statuses = {name: r.status for name, r in results.items()}
    assert len(set(statuses.values())) == 1, f"status mismatch: {statuses}"
    status = results["revised"].status
    if expected_status is not None:
        assert status == expected_status, statuses
    if status == "optimal":
        objectives = {name: r.objective for name, r in results.items()}
        reference = objectives["revised"]
        for name, value in objectives.items():
            assert value == pytest.approx(reference, abs=1e-6), objectives
    return results["revised"]


def _assert_factorizations_agree(form):
    """The dense inverse and the sparse LU must return the same answer.

    The post-optimality canonicalization step pins the optimal vertex,
    so on optimal instances the solution vector — not just the
    objective — is representation-independent.
    """
    dense, lu = (
        solve_lp_revised(form, RevisedOptions(factorization=factorization))
        for factorization in FACTORIZATIONS
    )
    assert lu.status == dense.status
    if dense.status == "optimal":
        assert lu.objective == pytest.approx(dense.objective, abs=1e-6)
        np.testing.assert_allclose(lu.x, dense.x, atol=1e-6)


class TestFuzzFeasible:
    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS)
    def test_three_kernels_agree(self, seed):
        _assert_agree(feasible_box_lp(seed), expected_status="optimal")

    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:10])
    def test_pricing_rules_reach_the_same_vertex(self, seed):
        _assert_factorizations_agree(feasible_box_lp(seed))


class TestFuzzMixedVariables:
    @pytest.mark.parametrize("seed", MIXED_VAR_SEEDS)
    def test_revised_matches_highs_on_free_and_fixed_vars(self, seed):
        # Infinite lower bounds are outside the tableau kernel's contract.
        _assert_agree(mixed_variable_lp(seed), check_tableau=False)

    @pytest.mark.parametrize("seed", MIXED_VAR_SEEDS[:6])
    def test_pricing_rules_agree_on_mixed_variables(self, seed):
        _assert_factorizations_agree(mixed_variable_lp(seed))


class TestFuzzInfeasible:
    @pytest.mark.parametrize("seed", INFEASIBLE_SEEDS)
    def test_all_kernels_prove_infeasibility(self, seed):
        _assert_agree(infeasible_lp(seed), expected_status="infeasible")

    @pytest.mark.parametrize("seed", INFEASIBLE_SEEDS[:3])
    def test_pricing_rules_agree_on_infeasibility(self, seed):
        _assert_factorizations_agree(infeasible_lp(seed))


class TestFuzzUnbounded:
    @pytest.mark.parametrize("seed", UNBOUNDED_SEEDS)
    def test_all_kernels_detect_the_ray(self, seed):
        _assert_agree(unbounded_lp(seed), expected_status="unbounded")

    @pytest.mark.parametrize("seed", UNBOUNDED_SEEDS[:3])
    def test_pricing_rules_agree_on_unboundedness(self, seed):
        _assert_factorizations_agree(unbounded_lp(seed))


class TestFuzzDegenerate:
    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
    def test_degenerate_instances_agree(self, seed):
        _assert_agree(degenerate_lp(seed), expected_status="optimal")

    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
    def test_pricing_rules_survive_degeneracy(self, seed):
        _assert_factorizations_agree(degenerate_lp(seed))

    @pytest.mark.parametrize("seed", DEGENERATE_SEEDS[:3])
    def test_bland_mode_from_the_first_pivot(self, seed):
        """Anti-cycling pricing must reach the same optimum."""
        form = degenerate_lp(seed)
        aggressive = solve_lp_revised(
            form, RevisedOptions(stall_iterations=0)
        )
        reference = solve_lp_revised(form, RevisedOptions())
        assert aggressive.status == reference.status == "optimal"
        assert aggressive.objective == pytest.approx(reference.objective, abs=1e-9)


class TestFuzzLargeSparse:
    """The LU kernel's home turf: m, n ≥ 100 at <5% density.

    The dense tableau is excluded (it is quadratic in the row count and
    contributes nothing at this scale); dense-inverse revised, LU
    revised and HiGHS must all agree.
    """

    @pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS)
    def test_lu_matches_dense_inverse_and_highs(self, seed):
        form = large_sparse_lp(seed, m=120, n=150)
        dense = solve_lp_revised(form, RevisedOptions(factorization="dense"))
        lu = solve_lp_revised(form, RevisedOptions(factorization="lu"))
        assert dense.status == lu.status == "optimal"
        assert lu.objective == pytest.approx(dense.objective, abs=1e-6)
        np.testing.assert_allclose(lu.x, dense.x, atol=1e-6)
        # The LU solve really ran on the eta file, not on refactorizations.
        assert lu.etas_applied > 10 * max(1, lu.refactorizations)
        if highs_available():
            highs = solve_lp_highs(form)
            assert highs.status == "optimal"
            assert highs.objective == pytest.approx(dense.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS[:2])
    def test_pricing_rules_agree_at_scale(self, seed):
        form = large_sparse_lp(seed, m=100, n=120)
        _assert_factorizations_agree(form)


class TestFuzzWarmEqualsCold:
    """A reused basis may change effort, never the answer."""

    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:8])
    def test_warm_resolve_after_bound_tightening(self, seed):
        form = feasible_box_lp(seed)
        engine = RevisedSimplex(form)
        first = engine.solve(form.lb, form.ub)
        if first.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        rng = np.random.RandomState(seed + 77)
        lb2, ub2 = form.lb.copy(), form.ub.copy()
        for j in rng.choice(form.num_variables,
                            size=max(1, form.num_variables // 3),
                            replace=False):
            ub2[j] = lb2[j] if rng.rand() < 0.5 else max(
                lb2[j], float(first.x[j]) * 0.5
            )
        warm = engine.solve(lb2, ub2, basis=first.basis)
        cold = engine.solve(lb2, ub2)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            # Canonicalization makes the vertex itself path-independent.
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    @pytest.mark.parametrize("factorization", FACTORIZATIONS)
    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:3])
    def test_warm_equals_cold_for_both_factorizations(self, seed, factorization):
        form = feasible_box_lp(seed)
        engine = RevisedSimplex(form, RevisedOptions(factorization=factorization))
        first = engine.solve(form.lb, form.ub)
        if first.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        ub2 = form.ub.copy()
        ub2[0] = max(form.lb[0], float(first.x[0]) * 0.5)
        warm = engine.solve(form.lb, ub2, basis=first.basis)
        cold = engine.solve(form.lb, ub2)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    @pytest.mark.parametrize("seed", FEASIBLE_SEEDS[:6])
    def test_dive_chain_warm_equals_cold(self, seed):
        """The pattern of a branch-and-bound path: a chain of re-solves,
        each fixing one more variable to a rounded value and warm-starting
        from the previous step's basis.  Every link of the chain must
        agree with a cold solve of the same bounds — a warm re-solve may
        never be cheaper by being *wrong*."""
        form = feasible_box_lp(seed)
        engine = RevisedSimplex(form)
        current = engine.solve(form.lb, form.ub)
        if current.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        lb, ub = form.lb.copy(), form.ub.copy()
        rng = np.random.RandomState(seed + 31)
        for _ in range(4):
            open_vars = np.where(ub - lb > 1e-9)[0]
            if open_vars.size == 0:
                break
            j = int(open_vars[rng.randint(open_vars.size)])
            lb[j] = ub[j] = float(np.clip(np.round(current.x[j]), lb[j], ub[j]))
            warm = engine.solve(lb, ub, basis=current.basis)
            cold = engine.solve(lb, ub)
            assert warm.status == cold.status
            if warm.status != "optimal":
                break  # the chain hit a dead end; both kernels agree it did
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)
            current = warm

    @pytest.mark.parametrize("seed", MIXED_VAR_SEEDS[:4])
    def test_dive_chain_on_mixed_variables_lu(self, seed):
        """Same chained-fixing pattern over free/fixed variables on the
        LU kernel."""
        form = mixed_variable_lp(seed)
        engine = RevisedSimplex(form, RevisedOptions(factorization="lu"))
        current = engine.solve(form.lb, form.ub)
        if current.status != "optimal":
            pytest.skip("generator produced a non-optimal base case")
        lb, ub = form.lb.copy(), form.ub.copy()
        rng = np.random.RandomState(seed + 53)
        finite = np.where(np.isfinite(lb) & np.isfinite(ub) & (ub - lb > 1e-9))[0]
        for j in rng.choice(finite, size=min(3, finite.size), replace=False):
            j = int(j)
            lb[j] = ub[j] = float(np.clip(np.round(current.x[j]), lb[j], ub[j]))
            warm = engine.solve(lb, ub, basis=current.basis)
            cold = engine.solve(lb, ub)
            assert warm.status == cold.status
            if warm.status != "optimal":
                break
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)
            current = warm

    @pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS[:1])
    def test_warm_equals_cold_on_large_sparse_lu(self, seed):
        form = large_sparse_lp(seed, m=100, n=120)
        engine = RevisedSimplex(form, RevisedOptions(factorization="lu"))
        first = engine.solve(form.lb, form.ub)
        assert first.status == "optimal"
        ub2 = form.ub.copy()
        rng = np.random.RandomState(seed + 13)
        for j in rng.choice(form.num_variables, size=10, replace=False):
            ub2[j] = max(form.lb[j], float(first.x[j]) * 0.5)
        warm = engine.solve(form.lb, ub2, basis=first.basis)
        cold = engine.solve(form.lb, ub2)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)


# --------------------------------------------------------------------------
# HiGHS reduced costs: the branch-and-bound tree lifts a child's bound by
# them (Driebeek penalties), so their sign must be the minimisation one.
# --------------------------------------------------------------------------
OPTIMAL_CORPUS = (
    [(feasible_box_lp, seed) for seed in FEASIBLE_SEEDS]
    + [(mixed_variable_lp, seed) for seed in MIXED_VAR_SEEDS]
    + [(degenerate_lp, seed) for seed in DEGENERATE_SEEDS]
    + [(large_sparse_lp, seed) for seed in LARGE_SPARSE_SEEDS]
)


def _corpus_id(case):
    family, seed = case
    return f"{family.__name__}-{seed}"


def _bound_masks(form, x):
    """(at lower, at upper) column masks of the vertex ``x``."""
    return x <= form.lb + 1e-9, x >= form.ub - 1e-9


@pytest.mark.skipif(not highs_available(), reason="needs SciPy's HiGHS")
class TestHighsReducedCosts:
    @pytest.mark.parametrize("case", OPTIMAL_CORPUS, ids=_corpus_id)
    def test_sign_convention_is_the_minimisation_one(self, case):
        family, seed = case
        form = family(seed)
        result = solve_lp_highs(form)
        if result.status != "optimal":
            pytest.skip("not an optimal case")
        d = result.reduced_costs
        assert d is not None and d.shape == (form.num_variables,)
        at_lower, at_upper = _bound_masks(form, result.x)
        # d >= 0 at a lower bound, d <= 0 at an upper bound, d = 0 between;
        # a fixed column (at both) may carry either sign.
        assert np.all(d[at_lower & ~at_upper] >= -1e-9)
        assert np.all(d[at_upper & ~at_lower] <= 1e-9)
        assert np.all(np.abs(d[~at_lower & ~at_upper]) <= 1e-9)

    def test_agrees_with_the_revised_kernel_on_nondegenerate_vertices(self):
        # Where both kernels stop at the same vertex and every basic
        # variable (structural or row slack) sits strictly inside its
        # bounds, the basis, and so the reduced costs, are unique.
        compared = 0
        for family, seed in OPTIMAL_CORPUS:
            form = family(seed)
            highs = solve_lp_highs(form)
            revised = solve_lp_revised(form, RevisedOptions())
            if highs.status != "optimal" or not np.allclose(highs.x, revised.x, atol=1e-7):
                continue
            at_lower, at_upper = _bound_masks(form, highs.x)
            slack = form.b_ub - form.A_ub_sparse.matvec(highs.x)
            basic = int(np.sum(~at_lower & ~at_upper)) + int(np.sum(slack > 1e-9))
            if basic != form.num_ub_rows + form.num_eq_rows:
                continue
            np.testing.assert_allclose(highs.reduced_costs, revised.reduced_costs,
                                       atol=1e-6, err_msg=_corpus_id((family, seed)))
            compared += 1
        assert compared >= 20
