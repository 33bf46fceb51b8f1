"""The gradient check can fail: a relative 1e-4 error in any one part of
the stochastic gradient, or in the feature map it is built on, is caught."""

import pytest

import specgp.gradient as gradient
from specgp import ContractError
from specgp.gradcheck import check_stochastic_gradient, run_all

REL = 1e-4

# part -> (kernel in specgp.gradient, how to perturb its output)
PERTURBATIONS = {
    "eta_data_part": ("_data_term", lambda g_alpha, v_sq: (g_alpha * (1.0 + REL), v_sq)),
    "d_log_noise": ("_dlog_variances", lambda noise, signal: (noise * (1.0 + REL), signal)),
    "d_log_signal": ("_dlog_variances", lambda noise, signal: (noise, signal * (1.0 + REL))),
}


@pytest.mark.parametrize("part", sorted(PERTURBATIONS))
def test_gradcheck_fails_a_perturbed_gradient(monkeypatch, part):
    name, perturb = PERTURBATIONS[part]
    original = getattr(gradient, name)
    monkeypatch.setattr(gradient, name, lambda *args: perturb(*original(*args)))
    result = check_stochastic_gradient(seed=0, instances=5)
    assert not result.passed, f"{part}: max rel err {result.max_rel_err:.3e}"


def test_gradcheck_fails_a_perturbed_feature_map(monkeypatch):
    # the oracle featurizes on its own, so an error in the production map
    # reaches the analytic side only
    original = gradient.feature_matrix
    monkeypatch.setattr(
        gradient, "feature_matrix", lambda *args: original(*args) * (1.0 + REL)
    )
    result = check_stochastic_gradient(seed=0, instances=5)
    assert not result.passed, f"max rel err {result.max_rel_err:.3e}"


@pytest.mark.parametrize(
    "kwargs", [{"instances": 2.5}, {"instances": True}, {"seed": 1.5}],
    ids=["fractional-instances", "boolean-instances", "fractional-seed"],
)
def test_run_all_refuses_counts_and_seeds_that_are_not_integers(kwargs):
    with pytest.raises(ContractError, match=next(iter(kwargs))):
        run_all(**kwargs)
