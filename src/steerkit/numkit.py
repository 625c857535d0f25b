"""Small dense-matrix numerics for systems up to ~8 states.

Matrices are plain 2-D float64 numpy arrays.  Everything here is a pure
function: inputs are validated, never mutated, and all entries must be
finite.  Linear solves and the eigenvalues of larger matrices come from
numpy.linalg.  Written here, sized for the 2- and 4-state vehicle models:
the matrix exponential (no scipy), Higham's scaling-and-squaring method
with the degree-13 Pade approximant; the zero-order hold `c2d` on top of
it; the spectral radius, closed form from trace and determinant for a
2x2 matrix; and the doubling Riccati solver.  `write_float_csv` is the one
writer of the tool's float tables, and `write_csv_rows` its row formatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import NumericalError

# Iteration caps / tolerances are fixed so results are reproducible.
DARE_STEP_TOL = 1e-15
DARE_RESIDUAL_TOL = 1e-9
DARE_MAX_ITER = 64
MAT_COND_MAX = 1e14
# rows per block of write_float_csv: a block's cell strings all exist at once
CSV_BLOCK_ROWS = 2048
# Pade coefficients b_0..b_13 of degree 13 and the 1-norm up to which that
# approximant needs no scaling (Higham 2005, Table 2.3 and eq. 2.4)
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 matrix (copy not guaranteed)."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(a, name: str) -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class StateSpace:
    """Linear state-space model x' = Ax + Bu (full-state output).

    dt is the sample period in seconds; dt == 0 marks a continuous-time
    model.
    """

    A: np.ndarray
    B: np.ndarray
    dt: float = 0.0

    def __post_init__(self):
        A = _square(self.A, "A")
        B = as_matrix(self.B, "B")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if self.dt < 0:
            raise ValueError("dt must be >= 0")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @classmethod
    def built(cls, A: np.ndarray, B: np.ndarray, dt: float = 0.0) -> "StateSpace":
        """A model from float64 arrays that steerkit built itself (A square,
        B with as many rows): stored as given, without __post_init__'s checks."""
        sys = object.__new__(cls)
        object.__setattr__(sys, "A", A)
        object.__setattr__(sys, "B", B)
        object.__setattr__(sys, "dt", dt)
        return sys

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def is_discrete(self) -> bool:
        return self.dt > 0.0


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade
    approximant (N. J. Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005).

    A is scaled by 2^-s so that its 1-norm is at most PADE13_THETA, where
    r13 = (V - U)^-1 (V + U) meets exp to double precision; the result is
    squared s times.  The odd and even parts U and V come from I, A^2, A^4
    and A^6 through one product with the coefficient block.
    """
    m = _square(a, "expm input")
    n = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max())
    s = math.ceil(math.log2(norm / PADE13_THETA)) if norm > PADE13_THETA else 0
    if s:
        m = m * 2.0**-s
    powers = np.empty((4, n, n))
    powers[0] = np.eye(n)
    a2 = np.matmul(m, m, out=powers[1])
    a4 = np.matmul(a2, a2, out=powers[2])
    a6 = np.matmul(a4, a2, out=powers[3])
    # U_6, V_6, U_0, V_0 with U = A (A^6 U_6 + U_0) and V = A^6 V_6 + V_0
    parts = (_PADE13_BLOCK @ powers.reshape(4, n * n)).reshape(4, n, n)
    uv = a6 @ parts[:2] + parts[2:]
    u, v = m @ uv[0], uv[1]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


# weights of I, A^2, A^4 and A^6 in U_6, V_6, U_0 and V_0 (one row each)
_PADE13_BLOCK = np.array([[0.0, PADE13[9], PADE13[11], PADE13[13]],
                          [0.0, PADE13[8], PADE13[10], PADE13[12]],
                          [PADE13[1], PADE13[3], PADE13[5], PADE13[7]],
                          [PADE13[0], PADE13[2], PADE13[4], PADE13[6]]])


def c2d(sys: StateSpace, dt: float) -> StateSpace:
    """Zero-order-hold discretization of a continuous-time model.

    Uses the augmented-matrix exponential: exp([[A, B], [0, 0]] * dt)
    yields Ad in the upper-left block and Bd = (int_0^dt e^{A tau} dtau) B
    in the upper-right block.
    """
    if sys.is_discrete:
        raise ValueError("c2d expects a continuous-time model (dt == 0)")
    if dt <= 0:
        raise ValueError("sample period dt must be > 0")
    n, m = sys.B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B
    phi = expm(aug * dt)
    return StateSpace.built(phi[:n, :n], phi[:n, n:], dt)


def mat_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve AX = B with numpy's LAPACK solver.

    Raises NumericalError when A is singular to working precision
    (2-norm condition number above MAT_COND_MAX).
    """
    a = _square(a, "A")
    b = as_matrix(b, "B")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
    if not np.linalg.cond(a) <= MAT_COND_MAX:
        raise NumericalError("matrix singular to working precision")
    return np.linalg.solve(a, b)


def dare_residual(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray, x: np.ndarray) -> float:
    """Frobenius norm of A'XA - X + Q - A'XB (R + B'XB)^-1 B'XA."""
    axa = a.T @ x @ a
    bxb = r + b.T @ x @ b
    gain_term = a.T @ x @ b @ mat_solve(bxb, b.T @ x @ a)
    return float(np.linalg.norm(axa - x + q - gain_term, "fro"))


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve the discrete algebraic Riccati equation by doubling.

    Structure-preserving doubling (B.D.O. Anderson, Int. J. Control 1978)
    from A0 = A, G0 = B R^-1 B', H0 = Q:

        W = I + G H,  A <- A W^-1 A,  G <- G + A W^-1 G A',
        H <- H + A' H W^-1 A,

    until H stops changing.  Each step doubles the horizon, so
    convergence is quadratic and the cap is small.  An unstabilizable
    pair makes H diverge or overflow and raises NumericalError.

    Returns the positive-semidefinite solution X with residual Frobenius
    norm <= 1e-9 * (1 + ||X||).
    """
    a = _square(a, "A")
    b = as_matrix(b, "B")
    q = _square(q, "Q")
    r = _square(r, "R")
    n = a.shape[0]
    if b.shape[0] != n or q.shape[0] != n:
        raise ValueError("A, B, Q dimensions are inconsistent")
    if r.shape[0] != b.shape[1]:
        raise ValueError(f"R must be {b.shape[1]}x{b.shape[1]}")
    if np.linalg.norm(q - q.T, "fro") > 1e-10 * (1 + np.linalg.norm(q, "fro")):
        raise ValueError("Q must be symmetric")
    if np.linalg.norm(r - r.T, "fro") > 1e-10 * (1 + np.linalg.norm(r, "fro")):
        raise ValueError("R must be symmetric")

    eye = np.eye(n)
    ak = a
    g = b @ mat_solve(r, b.T)
    h = 0.5 * (q + q.T)
    # divergence for unstabilizable pairs is caught by the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_ITER):
            w = eye + g @ h
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(ak))):
                raise NumericalError("DARE doubling diverged (unstabilizable pair?)")
            wa, wg = np.hsplit(mat_solve(w, np.hstack([ak, g])), 2)
            h_next = h + ak.T @ h @ wa
            h_next = 0.5 * (h_next + h_next.T)
            g = g + ak @ wg @ ak.T
            g = 0.5 * (g + g.T)
            ak = ak @ wa
            step = np.linalg.norm(h_next - h, "fro")
            h = h_next
            # the norms overflow to inf on a diverging H, and inf <= inf holds
            if np.isfinite(step) and step <= DARE_STEP_TOL * (1.0 + np.linalg.norm(h, "fro")):
                break
        else:
            raise NumericalError(
                f"DARE doubling did not converge in {DARE_MAX_ITER} steps "
                "(unstabilizable pair or ill-conditioning?)"
            )
    res = dare_residual(a, b, q, r, h)
    # an overflowed (inf or nan) residual must fail the gate too
    if not res <= DARE_RESIDUAL_TOL * (1.0 + np.linalg.norm(h, "fro")):
        raise NumericalError(f"DARE residual {res:.3e} exceeds tolerance after convergence")
    return h


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus.

    A 2x2 matrix [[p, q], [r, s]] has eigenvalues h +- sqrt(disc) with
    half-trace h = (p + s) / 2 and disc = ((p - s) / 2)^2 + q r; a complex
    pair has modulus sqrt(h^2 - disc), the square root of the determinant.
    Larger matrices use numpy's LAPACK eigenvalue solver.  The radius is NaN
    or inf when the 2x2 arithmetic overflows.
    """
    m = _square(a, "A")
    if m.shape[0] != 2:
        return float(np.abs(np.linalg.eigvals(m)).max())
    (p, q), (r, s) = m.tolist()
    h, d = 0.5 * (p + s), 0.5 * (p - s)
    disc = d * d + q * r
    return math.sqrt(h * h - disc) if disc < 0.0 else abs(h) + math.sqrt(disc)


def _column_reprs(col: np.ndarray) -> list[str]:
    """repr of every cell of a 1-D float column, computed once per run of equal
    consecutive values.  Equal means == and the same sign bit, so 0.0 and -0.0
    keep their own repr; NaN is never equal, so it is formatted every time."""
    new_run = np.empty(len(col), dtype=bool)
    new_run[:1] = True
    np.not_equal(col[1:], col[:-1], out=new_run[1:])
    new_run[1:] |= np.signbit(col[1:]) != np.signbit(col[:-1])
    starts = np.flatnonzero(new_run)
    if len(starts) == len(col):
        return list(map(repr, col.tolist()))
    reprs = np.array(list(map(repr, col[starts].tolist())), dtype=object)
    return reprs.repeat(np.diff(starts, append=len(col))).tolist()


def write_float_csv(fobj, header, cols) -> None:
    """Write a header line, then one row per index of the equal-length columns.

    A column is a 1-D sequence or a 2-D block of several.  Cells are
    `repr(float)`, so a reload is bit-exact; a run of repeated values in a
    column is formatted once.
    """
    fobj.write(",".join(header) + "\n")
    write_csv_rows(fobj, np.column_stack(cols).astype(float, copy=False))


def write_csv_rows(fobj, table: np.ndarray) -> None:
    """The rows of write_float_csv for a 2-D float64 table, CSV_BLOCK_ROWS at
    a time.  A run of repeated values is found per block, but its repr is the
    value's own, so the bytes do not depend on where the blocks start."""
    for i in range(0, len(table), CSV_BLOCK_ROWS):
        cells = [_column_reprs(col) for col in table[i:i + CSV_BLOCK_ROWS].T]
        fobj.writelines(",".join(row) + "\n" for row in zip(*cells))
