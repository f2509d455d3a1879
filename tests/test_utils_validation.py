"""Tests for repro.utils.validation."""

import pickle

import numpy as np
import pytest

from repro.utils.validation import (
    CODE_NEGATIVE,
    CODE_NOT_FINITE,
    CODE_NOT_POSITIVE,
    CODE_NOT_PROBABILITY,
    CODE_OUT_OF_RANGE,
    CODE_REQUIREMENT,
    CODE_WRONG_AXIS,
    CODE_WRONG_NDIM,
    ValidationError,
    check_count,
    check_finite,
    check_interval,
    check_positive,
    check_probability,
    check_shape,
    require,
)


class TestRequire:
    def test_pass(self):
        require(True, "nope")  # no raise

    def test_fail(self):
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")


class TestCheckPositive:
    def test_positive_ok(self):
        assert check_positive(2.5, "x") == 2.5

    def test_zero_rejected_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_zero_ok_nonstrict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x", strict=False)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")


class TestCheckProbability:
    def test_interior_ok(self):
        assert check_probability(0.5, "p") == 0.5

    @pytest.mark.parametrize("v", [0.0, 1.0])
    def test_endpoints_rejected_open(self, v):
        with pytest.raises(ValueError):
            check_probability(v, "p")

    @pytest.mark.parametrize("v", [0.0, 1.0])
    def test_endpoints_ok_closed(self, v):
        assert check_probability(v, "p", open_interval=False) == v

    @pytest.mark.parametrize("v", [-0.1, 1.1])
    def test_outside_rejected(self, v):
        with pytest.raises(ValueError):
            check_probability(v, "p", open_interval=False)


class TestCheckFinite:
    def test_finite_ok(self):
        out = check_finite([1.0, 2.0], "a")
        np.testing.assert_array_equal(out, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            check_finite([1.0, bad], "a")


class TestStructuredErrorPaths:
    """Every check raises a ValidationError with a stable reason code
    and the offending parameter name — the machine-readable contract
    the verification subsystem and audits rely on."""

    def test_is_valueerror_subclass(self):
        # Callers that catch plain ValueError keep working.
        assert issubclass(ValidationError, ValueError)

    def test_require_code(self):
        with pytest.raises(ValidationError) as exc:
            require(False, "broken")
        assert exc.value.code == CODE_REQUIREMENT
        assert exc.value.param is None

    def test_require_custom_code(self):
        with pytest.raises(ValidationError) as exc:
            require(False, "broken", code="my-code")
        assert exc.value.code == "my-code"

    def test_positive_strict_code(self):
        with pytest.raises(ValidationError) as exc:
            check_positive(0.0, "alpha")
        assert exc.value.code == CODE_NOT_POSITIVE
        assert exc.value.param == "alpha"

    def test_positive_nonstrict_code(self):
        with pytest.raises(ValidationError) as exc:
            check_positive(-1.0, "noise", strict=False)
        assert exc.value.code == CODE_NEGATIVE
        assert exc.value.param == "noise"

    @pytest.mark.parametrize("strict", [True, False])
    def test_positive_infinity_is_not_finite(self, strict):
        with pytest.raises(ValidationError) as exc:
            check_positive(float("inf"), "alpha", strict=strict)
        assert exc.value.code == CODE_NOT_FINITE
        assert exc.value.param == "alpha"

    def test_nan_hits_positive_code(self):
        with pytest.raises(ValidationError) as exc:
            check_positive(float("nan"), "gamma_th")
        assert exc.value.code == CODE_NOT_POSITIVE

    @pytest.mark.parametrize("v", [0.0, 1.0, -0.1, 1.1])
    def test_probability_code(self, v):
        with pytest.raises(ValidationError) as exc:
            check_probability(v, "eps")
        assert exc.value.code == CODE_NOT_PROBABILITY
        assert exc.value.param == "eps"

    def test_finite_code(self):
        with pytest.raises(ValidationError) as exc:
            check_finite([1.0, float("inf")], "rates")
        assert exc.value.code == CODE_NOT_FINITE
        assert exc.value.param == "rates"

    def test_shape_ndim_code(self):
        with pytest.raises(ValidationError) as exc:
            check_shape(np.zeros(3), (None, 2), "senders")
        assert exc.value.code == CODE_WRONG_NDIM

    def test_shape_axis_code(self):
        with pytest.raises(ValidationError) as exc:
            check_shape(np.zeros((3, 3)), (None, 2), "senders")
        assert exc.value.code == CODE_WRONG_AXIS

    def test_survives_pickling(self):
        # A check that fails in a worker process reaches the parent whole.
        exc = pickle.loads(pickle.dumps(ValidationError("x bad", code=CODE_NEGATIVE, param="x")))
        assert (type(exc), str(exc), exc.code, exc.param) == (
            ValidationError, "x bad", CODE_NEGATIVE, "x"
        )

    def test_problem_surfaces_codes(self):
        # End-to-end: FadingRLS construction errors carry codes too.
        from repro.core.problem import FadingRLS
        from repro.network.links import LinkSet

        links = LinkSet(
            senders=np.array([[0.0, 0.0]]), receivers=np.array([[5.0, 0.0]])
        )
        with pytest.raises(ValidationError) as exc:
            FadingRLS(links=links, eps=1.5)
        assert exc.value.code == CODE_NOT_PROBABILITY
        assert exc.value.param == "eps"


class TestCheckCount:
    def test_minimum_ok(self):
        assert check_count(0, "n") == 0
        assert check_count(1, "n", minimum=1) == 1

    @pytest.mark.parametrize(
        "value, minimum, code",
        [(-1, 0, CODE_NEGATIVE), (0, 1, CODE_NOT_POSITIVE), (float("nan"), 0, CODE_NEGATIVE)],
    )
    def test_below_minimum_rejected(self, value, minimum, code):
        with pytest.raises(ValidationError) as exc:
            check_count(value, "--steps", minimum=minimum)
        assert (exc.value.code, exc.value.param) == (code, "--steps")
        assert str(exc.value) == f"--steps must be >= {minimum}, got {value}"

    def test_note_explains_a_special_value(self):
        with pytest.raises(ValidationError) as exc:
            check_count(-5, "--trials", note="0 = skip")
        assert str(exc.value) == "--trials must be >= 0 (0 = skip), got -5"


class TestCheckInterval:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1e6])
    def test_closed_ends_ok(self, value):
        assert check_interval(value, "rate", 0.0, 1e6) == value

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), 1e308])
    def test_outside_rejected(self, value):
        with pytest.raises(ValidationError) as exc:
            check_interval(value, "--rate", 0.0, 1e6)
        assert (exc.value.code, exc.value.param) == (CODE_OUT_OF_RANGE, "--rate")
        assert str(exc.value) == f"--rate must be in [0, 1e+06], got {value!r}"

    def test_open_end_excluded(self):
        assert check_interval(1.0, "q", 0.0, 1.0, lo_open=True) == 1.0
        with pytest.raises(ValidationError, match=r"^q must be in \(0, 1\], got 0.0$"):
            check_interval(0.0, "q", 0.0, 1.0, lo_open=True)


class TestCheckShape:
    def test_exact_shape(self):
        a = np.zeros((3, 2))
        assert check_shape(a, (3, 2), "a") is not None

    def test_wildcard(self):
        a = np.zeros((5, 2))
        check_shape(a, (None, 2), "a")

    def test_wrong_ndim(self):
        with pytest.raises(ValueError, match="dims"):
            check_shape(np.zeros(3), (None, 2), "a")

    def test_wrong_axis(self):
        with pytest.raises(ValueError, match="axis"):
            check_shape(np.zeros((3, 3)), (None, 2), "a")
