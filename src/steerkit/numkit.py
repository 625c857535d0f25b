"""Small dense-matrix numerics for systems up to ~8 states.

Matrices are plain 2-D float64 numpy arrays.  Everything here is a pure
function: inputs are validated, never mutated, and all entries must be
finite.  Linear solves and eigenvalues come from numpy.linalg; the
matrix exponential (no scipy) and the doubling Riccati solver are written
here, sized for the 2- and 4-state vehicle models.  `write_float_csv`
is the one writer of the tool's float tables.
"""

from __future__ import annotations

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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 matrix (copy not guaranteed)."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
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

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def is_discrete(self) -> bool:
        return self.dt > 0.0


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    Adequate for the small, well-scaled matrices handled here.  The
    series is summed until terms vanish at double precision, so nilpotent
    inputs terminate exactly.
    """
    m = _square(a, "expm input")
    n = m.shape[0]
    norm = np.linalg.norm(m, np.inf)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    x = m / (2.0**s)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 120):
        term = term @ x / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= 1e-18 * max(1.0, np.linalg.norm(result, np.inf)):
            break
    for _ in range(s):
        result = result @ result
    return result


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
    ad = phi[:n, :n]
    bd = phi[:n, n:]
    return StateSpace(A=ad, B=bd, dt=dt)


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
    """Largest eigenvalue modulus, from numpy's LAPACK eigenvalue solver."""
    return float(np.max(np.abs(np.linalg.eigvals(_square(a, "A")))))


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
    table = np.column_stack(cols).astype(float, copy=False)
    for i in range(0, len(table), CSV_BLOCK_ROWS):
        cells = [_column_reprs(col) for col in table[i:i + CSV_BLOCK_ROWS].T]
        fobj.writelines(",".join(row) + "\n" for row in zip(*cells))
