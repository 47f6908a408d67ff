import numpy as np
import pytest

from mergemix.errors import NumericError
from mergemix.params import as_params, decode_params, encode_params, params_digest


class TestAsParams:
    def test_rejects_nan_input(self):
        with pytest.raises(NumericError):
            as_params([np.nan, 0.0])


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(64) * 10.0 ** rng.integers(-12, 12, 64)
        np.testing.assert_array_equal(decode_params(encode_params(theta)), theta)

    def test_17_significant_digits(self):
        assert encode_params(np.array([1 / 3]))[0] == "0.33333333333333331"

    def test_digest_changes_with_content(self):
        a = params_digest(np.array([1.0, 2.0]))
        b = params_digest(np.array([1.0, 2.0000000000000004]))
        assert a != b
        assert a == params_digest(np.array([1.0, 2.0]))
