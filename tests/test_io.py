import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsindep import DataError, log_returns, read_csv, write_csv


class TestReadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.5,-1.25\n")
        out = read_csv(path)
        assert_allclose(out, [[1.0, 2.0], [3.0, 4.0], [5.5, -1.25]])

    def test_missing_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,NA\n")
        with pytest.raises(DataError, match=r"row 2.*'y'"):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_csv(tmp_path / "nope.csv")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x\n1.0\ninf\n")
        with pytest.raises(DataError, match="non-finite"):
            read_csv(path)


    @pytest.mark.parametrize("first", ["-1.321e-01,2.0", "1,2", "nan,inf"])
    def test_headerless_file_rejected(self, tmp_path, first):
        # Taking an all-number first row as the header would drop it.
        path = tmp_path / "headerless.csv"
        path.write_text(f"{first}\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(DataError, match="header row"):
            read_csv(path)

    def test_header_with_some_numeric_names_accepted(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("2020,price\n3.0,4.0\n")
        assert_allclose(read_csv(path), [[3.0, 4.0]])


class TestRoundtrip:
    def test_write_read_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 3)) * np.array([1e-7, 1.0, 1e9])
        path = tmp_path / "round.csv"
        write_csv(path, data, header=["u", "v", "w"])
        back = read_csv(path)
        assert np.array_equal(back, data)

    def test_default_header(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, np.ones((2, 2)))
        assert path.read_text().splitlines()[0] == "x1,x2"


class TestLogReturns:
    def test_constant_prices(self):
        out = log_returns(np.full((5, 2), 7.0))
        assert_allclose(out, 0.0)
        assert out.shape == (4, 2)

    def test_known_values(self):
        out = log_returns(np.array([[1.0], [np.e]]))
        assert_allclose(out, [[1.0]], rtol=1e-15)
        out = log_returns(np.array([[100.0], [101.0]]))
        assert_allclose(out, [[np.log(1.01)]], rtol=1e-12)
        assert abs(out[0, 0] - 0.00995) < 1e-5

    def test_nonpositive_price(self):
        with pytest.raises(DataError, match="row 2"):
            log_returns(np.array([[1.0], [0.0], [2.0]]))
