"""The exception hierarchy is the exit-code contract: every error class
carries its exit code and builds the JSON payload the CLI prints."""

import pytest

from paratori import errors

BY_CODE = {
    2: ["ParatoriError", "ConfigError", "DimensionMismatch",
        "StructureViolation", "NonZeroAverage", "SingularSystem",
        "TruncationTooLow"],
    3: ["HypothesisViolated", "NonPositiveLeadingCoefficient",
        "ZeroLeadingCoefficient", "EnergyBelowThreshold"],
    4: ["SmallDivisorUnderflow"],
    5: ["BoundViolated", "ContractViolated", "TailNotConverged",
        "FlowLeftSector", "Diverged"],
}
# constructor arguments of the classes that take more than a message
ARGS = {
    "SmallDivisorUnderflow": ((2, -1), 1e-16, 1e-12),
    "ContractViolated": (3, "theta_0", 1e-6, 1e-9),
}
CASES = [(name, code) for code, names in BY_CODE.items() for name in names]


def test_every_error_class_is_in_the_table():
    declared = {name for name, value in vars(errors).items()
                if isinstance(value, type)
                and issubclass(value, errors.ParatoriError)}
    assert declared == {name for name, _ in CASES}


@pytest.mark.parametrize("name,code", CASES, ids=[n for n, _ in CASES])
def test_error_class_carries_its_exit_code(name, code):
    err = getattr(errors, name)(*ARGS.get(name, ("it failed",)))
    payload = err.payload()
    assert set(payload) == {"error", "exit_code", "message", "detail"}
    assert err.exit_code == payload["exit_code"] == code
    assert payload["error"] == name
    assert payload["message"] == str(err)


def test_errors_build_their_detail():
    # each error keeps its facts in detail alone: it sets no other attribute
    err = errors.SmallDivisorUnderflow((2, -1), 1e-16, 1e-12)
    assert err.payload()["detail"] == {"mode": [2, -1], "magnitude": 1e-16,
                                       "floor": 1e-12}
    assert str(err) == ("divisor 1.000e-16 below floor 1.000e-12 at mode "
                        "(2, -1)")
    assert vars(err) == {"detail": err.detail}
    err = errors.ContractViolated(3, "theta_0", 1e-6, 1e-9)
    assert err.payload()["detail"] == {"order": 3, "component": "theta_0",
                                       "defect": 1e-6, "tol": 1e-9}
    assert str(err) == ("invariance defect 1.000e-06 in theta_0 at order 3 "
                        "exceeds 1.000e-09")
    assert vars(err) == {"detail": err.detail}
    err = errors.BoundViolated("left the sector", witness=(0.1 - 0.2j, 4))
    assert (err.detail["witness_point"],
            err.detail["witness_iterate"]) == (0.1 - 0.2j, 4)
    assert err.payload()["detail"] == {"witness_point": 0.1 - 0.2j,
                                       "witness_iterate": 4}
    assert vars(err) == {"detail": err.detail}
    err = errors.BoundViolated("bound failed")
    assert err.payload()["detail"] == {} and vars(err) == {"detail": {}}
    err = errors.Diverged("grew", report={"factors": [1.5]})
    assert err.payload()["detail"] == {"report": {"factors": [1.5]}}
    assert vars(err) == {"detail": err.detail}
