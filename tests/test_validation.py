from subbandeq.validation import (
    eigensolver_study,
    poisson_convergence_study,
    profile_study,
    run_validation,
)


def test_eigensolver_study():
    r = eigensolver_study()
    assert r["pass"]
    assert r["max_relative_error"] <= 1e-12
    assert r["continuum_error_mode1"] <= 5e-4


def test_poisson_study_small():
    r = poisson_convergence_study()
    assert r["resolutions"] == [16, 32, 64]
    assert r["pass"]
    assert all(3.5 <= x <= 4.5 for x in r["error_ratios"])


def test_profile_study():
    r = profile_study()
    assert r["pass"] and r["max_abs_difference"] <= 1e-10


def test_run_validation_aggregates():
    r = run_validation()
    assert r["pass"] is True
    assert set(r) == {"eigensolver", "poisson_convergence", "occupancy_profiles", "pass"}
