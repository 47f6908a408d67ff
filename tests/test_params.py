import hashlib

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

    def test_edge_values_keep_their_text_and_digest(self):
        """Signed zero, subnormals, the largest magnitudes and whole numbers
        are written as format(float(x), ".17g") writes them, and read back
        bit for bit."""
        theta = np.array([-0.0, 0.0, 5e-324, -2.5e-320, 1e308, -1e308,
                          1.0, -2.0, 3e16, 2.0 ** 53, 1.7976931348623157e308])
        texts = encode_params(theta)
        assert texts == [format(float(x), ".17g") for x in theta]
        assert texts[:6] == ["-0", "0", "4.9406564584124654e-324",
                             "-2.4999721679567075e-320", "1e+308", "-1e+308"]
        assert texts[6:10] == ["1", "-2", "30000000000000000", "9007199254740992"]
        assert decode_params(texts).tobytes() == theta.tobytes()
        assert params_digest(theta) == hashlib.sha256(
            "\n".join(texts).encode("utf-8")).hexdigest()
