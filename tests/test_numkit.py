import io
import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from steerkit import NumericalError, csvtext, numkit
from steerkit.numkit import (
    StateSpace, c2d, dare_residual, expm, mat_solve, solve_dare, spectral_radius,
)


def value_iteration_dare(a, b, q, r, iters=200_000, tol=1e-14):
    """Independent oracle: finite-horizon backward recursion run to stationarity."""
    x = q.copy()
    for _ in range(iters):
        gram = r + b.T @ x @ b
        xn = a.T @ x @ a + q - a.T @ x @ b @ np.linalg.solve(gram, b.T @ x @ a)
        xn = 0.5 * (xn + xn.T)
        if np.linalg.norm(xn - x, "fro") < tol:
            return xn
        x = xn
    return x


def random_stabilizable(rng, n):
    a = rng.standard_normal((n, n))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n, 1))
    return a, b


class TestStateSpace:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpace(A=np.eye(2), B=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            StateSpace(A=np.eye(2), B=np.zeros((2, 1)), dt=-0.1)

    def test_rejects_non_finite(self):
        a = np.eye(2)
        a[0, 1] = np.nan
        with pytest.raises(ValueError):
            StateSpace(A=a, B=np.zeros((2, 1)))

    def test_continuous_flag(self):
        sys = StateSpace(A=np.zeros((2, 2)), B=np.zeros((2, 1)))
        assert not sys.is_discrete
        assert c2d(sys, 0.01).is_discrete


class TestC2d:
    def test_zero_a_identity(self):
        b = np.array([[2.0], [-1.0], [0.5]])
        sys = StateSpace(A=np.zeros((3, 3)), B=b)
        sysd = c2d(sys, 0.01)
        assert np.allclose(sysd.A, np.eye(3), atol=1e-15)
        assert np.allclose(sysd.B, 0.01 * b, atol=1e-15)

    def test_scalar_zoh_closed_form(self):
        sys = StateSpace(A=[[-2.0]], B=[[1.0]])
        sysd = c2d(sys, 0.1)
        assert sysd.A[0, 0] == pytest.approx(math.exp(-0.2), abs=1e-14)
        assert sysd.B[0, 0] == pytest.approx((math.exp(-0.2) - 1.0) / -2.0, abs=1e-14)

    def test_rejects_discrete_input_and_bad_dt(self):
        sys = StateSpace(A=np.zeros((2, 2)), B=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            c2d(c2d(sys, 0.1), 0.1)
        with pytest.raises(ValueError):
            c2d(sys, 0.0)

    def test_expm_against_rotation(self):
        # exp of a rotation generator is the rotation matrix
        th = 0.37
        g = np.array([[0.0, -th], [th, 0.0]])
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        assert np.allclose(expm(g), rot, atol=1e-14)


class TestSolveDare:
    def test_scalar_golden_ratio(self):
        one = np.array([[1.0]])
        x = solve_dare(one, one, one, one)
        assert x[0, 0] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_zero_a_returns_q(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 1))
        x = solve_dare(np.zeros((3, 3)), b, np.eye(3), np.eye(1))
        assert np.allclose(x, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n,seed", [(2, 1), (2, 2), (4, 3), (4, 4)])
    def test_matches_value_iteration_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_stabilizable(rng, n)
        q = np.eye(n)
        r = np.eye(1)
        x = solve_dare(a, b, q, r)
        x_ref = value_iteration_dare(a, b, q, r)
        assert np.linalg.norm(x - x_ref, "fro") < 1e-8

    def test_residual_symmetry_psd_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a, b = random_stabilizable(rng, n)
            m = rng.standard_normal((n, n))
            q = m.T @ m
            r = np.array([[float(rng.uniform(0.2, 5.0))]])
            x = solve_dare(a, b, q, r)
            assert dare_residual(a, b, q, r, x) <= 1e-9 * (1 + np.linalg.norm(x, "fro"))
            assert np.linalg.norm(x - x.T, "fro") <= 1e-10
            assert np.linalg.eigvalsh(x).min() > -1e-10

    def test_unstabilizable_pair_raises(self):
        # two decoupled unstable modes, input reaches only one
        a = np.diag([1.5, 1.5])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(NumericalError):
            solve_dare(a, b, np.eye(2), np.eye(1))

    def test_non_finite_residual_fails_gate(self, monkeypatch):
        # an overflowed residual (inf - inf) is nan, and nan > bound is False
        monkeypatch.setattr(numkit, "dare_residual",
                            lambda a, *args: np.full(a.shape[:-2], math.nan))
        one = np.array([[1.0]])
        with pytest.raises(NumericalError):
            solve_dare(one, one, one, one)

    def test_asymmetric_weight_rejected(self):
        a = np.eye(2) * 0.5
        b = np.ones((2, 1))
        q = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError):
            solve_dare(a, b, q, np.eye(1))


def _pbh_margin(a, m):
    """Smallest singular value of [A - lambda I, M] over the eigenvalues of A
    with |lambda| >= 0.99 (Popov-Belevitch-Hautus test)."""
    n = len(a)
    margins = [np.linalg.svd(np.hstack([a - lam * np.eye(n), m]), compute_uv=False)[-1]
               for lam in np.linalg.eigvals(a) if abs(lam) >= 1.0 - 1e-2]
    return min(margins, default=np.inf)


@st.composite
def dare_problems(draw):
    """Stabilizable (A, B), PSD Q detectable through A, and R > 0."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    a = draw(arrays(float, (n, n), elements=entries))
    # at most mildly unstable: a strongly unstable, weakly controlled mode
    # makes X large and the Riccati equation ill-conditioned
    assume(max(abs(np.linalg.eigvals(a))) <= 1.5)
    b = draw(arrays(float, (n, m), elements=entries))
    mq = draw(arrays(float, (draw(st.integers(1, n)), n), elements=entries))
    mr = draw(arrays(float, (m, m), elements=entries))
    q = mq.T @ mq
    r = mr.T @ mr + draw(st.floats(0.1, 5.0)) * np.eye(m)
    assume(_pbh_margin(a, b) > 1e-2)
    assume(_pbh_margin(a.T, q) > 1e-2)
    return a, b, q, r


class TestSolveDareProperties:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(dare_problems())
    def test_residual_symmetric_psd_stabilizing(self, problem):
        a, b, q, r = problem
        x = solve_dare(a, b, q, r)
        scale = 1.0 + np.linalg.norm(x, "fro")
        assert dare_residual(a, b, q, r, x) <= 1e-9 * scale
        assert np.linalg.norm(x - x.T, "fro") <= 1e-12 * scale
        assert np.linalg.eigvalsh(x).min() >= -1e-9 * scale
        k = np.linalg.solve(r + b.T @ x @ b, b.T @ x @ a)
        assert spectral_radius(a - b @ k) < 1.0


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_complex_pair(self):
        assert spectral_radius(np.array([[0.0, 1.0], [-0.25, 0.0]])) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-12)

    def test_random_against_numpy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n))
            ref = max(abs(np.linalg.eigvals(a)))
            assert spectral_radius(a) == pytest.approx(ref, abs=1e-8 * max(1.0, ref))

    def test_gram_matrix_matches_two_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            assert spectral_radius(a.T @ a) == pytest.approx(
                np.linalg.norm(a, 2) ** 2, rel=1e-6)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))


class TestMatSolve:
    def test_identity(self):
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(mat_solve(np.eye(2), b), b)

    def test_diagonal(self):
        x = mat_solve(np.diag([2.0, 4.0]), np.array([[1.0], [1.0]]))
        assert np.allclose(x.ravel(), [0.5, 0.25], atol=1e-15)

    def test_hand_elimination(self):
        x = mat_solve(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([[1.0], [2.0]]))
        assert np.allclose(x.ravel(), [1.0 / 11.0, 7.0 / 11.0], atol=1e-14)

    def test_solve_multiply_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal((n, 3))
            x = mat_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    def test_singular_raises(self):
        with pytest.raises(NumericalError):
            mat_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[1.0], [1.0]]))


def repr_rows(table: np.ndarray) -> str:
    """The row writer's contract: repr of every cell, row by row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def reference_float_csv(header, cols) -> str:
    """The writer's contract: the header, then repr_rows."""
    return ",".join(header) + "\n" + repr_rows(np.column_stack(cols).astype(float))


def first_difference(got: str, want: str):
    """(line, got, wanted) at the first line where two texts differ, else None; a
    short failure report where a diff of two long texts would take minutes."""
    for i, pair in enumerate(itertools.zip_longest(got.split("\n"), want.split("\n"))):
        if pair[0] != pair[1]:
            return i, *pair
    return None


# signed zeros twice over, so that runs of 0.0 and -0.0 often meet
_SPECIAL = [0.0, -0.0, 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, -2.5, 5e-324]


@st.composite
def _run_column(draw, n: int) -> np.ndarray:
    """n cells made of runs of repeated values, repeated cyclically up to n."""
    values = draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(), min_size=1, max_size=8))
    lengths = draw(st.lists(st.integers(1, 5000), min_size=len(values), max_size=len(values)))
    return np.resize(np.repeat(np.array(values, dtype=float), lengths), n)


class TestWriteFloatCsv:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(),
           n=st.sampled_from([1, 2, numkit.CSV_BLOCK_ROWS - 1, numkit.CSV_BLOCK_ROWS,
                              numkit.CSV_BLOCK_ROWS + 1, 2 * numkit.CSV_BLOCK_ROWS + 1])
           | st.integers(1, 3 * numkit.CSV_BLOCK_ROWS),
           widths=st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_matches_per_row_repr(self, data, n, widths):
        cols = []
        for width in widths:
            block = np.column_stack([data.draw(_run_column(n)) for _ in range(width)])
            cols.append(block[:, 0] if width == 1 else block)
        header = [f"c{i}" for i in range(sum(widths))]
        buf = io.StringIO()
        numkit.write_float_csv(buf, header, cols)
        assert first_difference(buf.getvalue(), reference_float_csv(header, cols)) is None

    def test_signed_zeros_and_nan_in_one_run(self):
        col = np.array([0.0, -0.0, -0.0, 0.0, math.nan, math.nan, math.inf, math.inf, -math.inf])
        buf = io.StringIO()
        numkit.write_float_csv(buf, ["a"], [col])
        assert buf.getvalue().split("\n")[1:-1] == [
            "0.0", "-0.0", "-0.0", "0.0", "nan", "nan", "inf", "inf", "-inf"]

    def test_bool_and_list_columns(self):
        buf = io.StringIO()
        numkit.write_float_csv(buf, ["b", "x"], [np.array([True, True, False]), [1, 1, 2]])
        assert buf.getvalue() == "b,x\n1.0,1.0\n1.0,1.0\n0.0,2.0\n"


def _edges() -> np.ndarray:
    """Cells at the kernel's seams, each with both float neighbours: its range
    ends 1e-9 and 1e9, the switch to the exponent form at 1e-4, every power of
    two and of ten in range (a binade's bottom has a narrower interval below),
    and the specials and subnormals that repr writes."""
    seams = np.concatenate(([1e-9, 1e9, 1e-4, 1e-5, 0.5, 1.5, 10.0, 9.5, 1e16],
                            np.ldexp(1.0, np.arange(-31, 31)), 10.0 ** np.arange(-10, 10)))
    near = np.concatenate((seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)))
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308]
    return np.concatenate((near, -near, specials))


def _family(name: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """n cells of one kind, from rng."""
    sign = rng.choice([-1.0, 1.0], n)
    if name == "bits":   # every exponent, so every fallback too
        return rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(float)
    if name == "kernel bits":   # the exponents of 1e-9 <= |x| < 1e9
        exponent = rng.integers(993, 1053, n).astype(np.uint64) << np.uint64(52)
        return (exponent | rng.integers(0, 2**52, n, dtype=np.uint64)).view(float) * sign
    if name == "log-uniform":
        return 10.0 ** rng.uniform(-10.0, 10.0, n) * sign
    if name == "decimal steps":
        k = rng.integers(-10**7, 10**7, n)
        return np.choose(rng.integers(0, 4, n), [k * 0.001, k / 1000, k * 0.1, k * 1.5])
    if name == "rounded":
        return np.round(10.0 ** rng.uniform(-10.0, 10.0, n), rng.integers(0, 10)) * sign
    if name == "dyadic quarters":
        return rng.integers(-4 * 10**6, 4 * 10**6, n) / 4
    if name == "short significands":
        # odd significands of 1 to 53 bits: x * 10^k is often a whole number,
        # whose removed digits can be an exact half (2.9802322387695312e-08)
        bits = rng.integers(1, 54, n)
        odd = (rng.integers(0, 2**52, n, dtype=np.uint64) >> (53 - bits).astype(np.uint64)
               | np.uint64(1) | np.uint64(1) << (bits - 1).astype(np.uint64))
        return np.ldexp(odd.astype(float), rng.integers(-30, 30, n) - bits + 1) * sign
    return rng.choice(_edges(), n)


FAMILIES = ("bits", "kernel bits", "log-uniform", "decimal steps", "rounded", "dyadic quarters",
            "short significands", "edges")


@st.composite
def kernel_tables(draw, max_cells: int = 3000) -> np.ndarray:
    """A float64 table of a few families' cells, each cell repeated a run of
    1 to 5 times down its column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.concatenate([_family(draw(st.sampled_from(FAMILIES)), rng, draw(st.integers(1, 600)))
                            for _ in range(draw(st.integers(1, 5)))])
    rng.shuffle(cells)
    cols = draw(st.integers(1, 21))
    run = rng.integers(1, 6, len(cells)) if draw(st.booleans()) else 1
    column_major = np.repeat(cells, run)[:max_cells]
    rows = max(1, len(column_major) // cols)
    return np.resize(column_major, rows * cols).reshape(cols, rows).T


class TestCsvKernel:
    """The numpy CSV cell kernel (`csvtext.csv_text`) writes repr of every
    cell, byte for byte; cells outside its range go through repr itself."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=kernel_tables())
    def test_matches_repr(self, table):
        assert first_difference(csvtext.csv_text(table), repr_rows(table)) is None

    def test_every_edge_and_its_neighbours(self):
        table = np.column_stack((_edges(), _edges()[::-1]))
        assert first_difference(csvtext.csv_text(table), repr_rows(table)) is None

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_family_at_length(self, family):
        table = _family(family, np.random.default_rng(35), 60_000).reshape(-1, 20)
        assert first_difference(csvtext.csv_text(table), repr_rows(table)) is None

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=kernel_tables(max_cells=4 * numkit.CSV_KERNEL_CELLS), data=st.data())
    def test_the_bytes_do_not_depend_on_the_cuts(self, table, data):
        # a cut can leave a piece below CSV_REPR_CELLS (repr) or above
        # CSV_KERNEL_CELLS (several kernel calls)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(table)), max_size=6)))
        whole, pieces = io.StringIO(), io.StringIO()
        numkit.write_csv_rows(whole, table)
        for lo, hi in itertools.pairwise([0] + cuts + [len(table)]):
            numkit.write_csv_rows(pieces, table[lo:hi])
        assert whole.getvalue() == pieces.getvalue() == repr_rows(table)

    def test_the_interval_ends_are_never_integers(self):
        # per exponent b: x * 10^k lies in [2.4e17, 4.8e18) over the binade,
        # 5^k is odd and below 2^63, and the shift s is at least 0, so each end
        # of the interval, odd * 5^k / 2^(s + 2), is never a whole number: whether
        # an end belongs to it (the significand's parity) cannot matter
        for i, b in enumerate(range(993, 1053)):
            k, s = int(csvtext._K[i]), int(csvtext._SHIFT[i])
            assert k >= 0 and s == 1075 - b - k >= 0 and int(csvtext._POW5[i]) == 5**k < 2**63
            bottom = Fraction(2) ** (b - 1023) * 10**k   # x * 10^k at the binade's bottom
            assert 24 * 10**16 <= bottom and 2 * bottom <= 48 * 10**17


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1 / 3,
               -2.5, 1e16, 1e308, -1e308, 1.7976931348623157e308]


def _read_back(table: np.ndarray, extra: str = "") -> np.ndarray:
    """write_float_csv, then read_csv_table on its text with `extra` appended."""
    buf = io.StringIO()
    numkit.write_float_csv(buf, [f"c{j}" for j in range(table.shape[1])], [table])
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        header, data, _ = numkit.read_csv_table(buf.getvalue() + extra, "t.csv", lambda h: None)
    assert loadtxt.call_count == 1 and header == [f"c{j}" for j in range(table.shape[1])]
    return data


class TestCsvRoundTrip:
    """write_float_csv -> read_csv_table is bit-exact on numpy's parser and on
    the row-by-row path, which a `1_0` cell (float() reads it, numpy does not)
    forces."""

    def test_one_one_zero_cell_forces_the_row_path(self):
        with pytest.raises(ValueError):
            np.loadtxt(["1_0,2"], delimiter=",", comments=None)
        assert float("1_0") == 10.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(table=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)),
                        elements=st.floats(allow_nan=False, allow_infinity=False)
                        | st.sampled_from(EDGE_FLOATS)))
    def test_bit_exact_on_both_paths(self, table):
        assert _read_back(table).tobytes() == table.tobytes()
        forced = _read_back(table, ",".join(["1_0"] * table.shape[1]) + "\n")
        assert forced[:-1].tobytes() == table.tobytes() and np.all(forced[-1] == 10.0)

    def test_edge_floats(self):
        table = np.array(EDGE_FLOATS).reshape(-1, 1) * np.array([1.0, -1.0])
        assert _read_back(table).tobytes() == table.tobytes()
        assert _read_back(table, "1_0,1_0\n")[:-1].tobytes() == table.tobytes()


class TestReadInput:
    def test_line_ends_read_as_text_mode_reads_them(self, tmp_path):
        file = tmp_path / "a.csv"
        file.write_bytes(b"a\r\nb\rc\nd\x0be\x1cf\xc2\x85g\xe2\x80\xa8h")
        assert numkit.read_input(file) == "a\nb\nc\nd\x0be\x1cf\x85g\u2028h"

    @pytest.mark.parametrize("make", ["missing", "directory", "not utf-8"])
    def test_unreadable_file_names_the_path(self, tmp_path, make):
        file = tmp_path / "in.csv"
        if make == "directory":
            file.mkdir()
        elif make == "not utf-8":
            file.write_bytes(b"t,X\n1,\xff\n")
        with pytest.raises(ValueError, match=f"^cannot read {re.escape(str(file))}: "):
            numkit.read_input(file)


class TestReadCsvTable:
    @pytest.mark.parametrize("text, message", [
        ("", "t.csv is empty"),
        ("# only\n\n  \n", "t.csv is empty"),
        ("a,b\n# none\n", "t.csv has no data rows"),
        ("# c\na, b ,a\n1,2,3\n", "t.csv line 2 ('a, b ,a') has the column 'a' twice"),
        ("a,b\n1,nan\nx,1\n", "t.csv line 2 ('1,nan') has a non-finite cell (b)"),
        ("a,b\n1,2\n\n1\n1,nan\n", "t.csv line 4 ('1') has 1 cells, the header has 2"),
        ("a,b\n1,2\n1,\x1f2\n", "t.csv line 3 ('1,\\x1f2') has a non-numeric cell"),
    ])
    def test_first_fault_in_file_order(self, text, message):
        with pytest.raises(ValueError) as e:
            numkit.read_csv_table(text, "t.csv", lambda h: None)
        assert str(e.value) == message

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    @pytest.mark.parametrize("cell", ["{}2", "2{}", "2{}5"])
    def test_ascii_separators_are_cell_text(self, sep, cell):
        # numpy's parser strips them around a cell and float() does not, and
        # text mode does not end a line at them (str.splitlines() does); a
        # line's own ends are stripped like any whitespace
        text = "a,b,c\n1,2,3\n1," + cell.format(sep) + ",3\n"
        with pytest.raises(ValueError, match=r"^t\.csv line 3 \(.*\) has a non-numeric cell$"):
            numkit.read_csv_table(text, "t.csv", lambda h: None)

    def test_header_rule_runs_before_any_row(self):
        def rule(header):
            raise ValueError(f"bad header {header}")

        with pytest.raises(ValueError, match=r"bad header \['a', 'b'\]"):
            numkit.read_csv_table("a,b\n1\n", "t.csv", rule)

    def test_at_names_the_file_line_of_a_data_row(self):
        _, data, at = numkit.read_csv_table("# c\nv,w\n\n1,2\n3,4\n", "t.csv", lambda h: None)
        assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert (at(0), at(1)) == ("t.csv line 4 ('1,2')", "t.csv line 5 ('3,4')")
