"""Small dense-matrix numerics for systems up to ~8 states.

Matrices are float64 numpy arrays, and every routine takes stacks: an
array of shape (..., r, c) holds one matrix per index of its leading axes,
and a plain 2-D matrix is a stack of one.  Each item's result is the one
the routine gives that item alone, to the bit: the stacked numpy calls
(matmul, solve, svd, eigvals) run the same kernel item by item, a scaling
or iteration count is chosen per item, and a Frobenius norm is the dot
product of the flattened item, as `np.linalg.norm(x, "fro")` takes it.
A stack that fails raises what its first failing item raises alone.

Everything here is a pure function: inputs are validated, never mutated,
and all entries must be finite.  Linear solves and eigenvalues come from
numpy.linalg.  Written here, sized for the 2- and 4-state vehicle models:
the matrix exponential (no scipy), Higham's scaling-and-squaring method
with the degree-13 Pade approximant; the zero-order hold `c2d` on top of
it; and the doubling Riccati solver.
`write_float_csv` is the one writer of the tool's float tables, and
`write_csv_rows` its row formatter.
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
    """Validate and return a finite float64 matrix or stack of matrices (copy
    not guaranteed); a 1-D input is one column."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(a, name: str) -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _t(m: np.ndarray) -> np.ndarray:
    """The transpose of every item."""
    return np.swapaxes(m, -1, -2)


def _fro(m: np.ndarray) -> np.ndarray:
    """Frobenius norm per item, as np.linalg.norm(item, "fro") computes it:
    the square root of the flattened item's dot product with itself."""
    flat = np.ascontiguousarray(m).reshape(m.shape[:-2] + (1, -1))
    with np.errstate(over="ignore"):   # a norm past the float range is inf
        return np.sqrt((flat @ _t(flat))[..., 0, 0])


@dataclass(frozen=True)
class StateSpace:
    """Linear state-space model x' = Ax + Bu (full-state output), or a stack
    of them with the same leading axes on A and B.

    dt is the sample period in seconds; dt == 0 marks a continuous-time
    model.
    """

    A: np.ndarray
    B: np.ndarray
    dt: float = 0.0

    def __post_init__(self):
        A = _square(self.A, "A")
        B = as_matrix(self.B, "B")
        if B.shape[:-1] != A.shape[:-1]:
            raise ValueError(f"B has {B.shape[-2]} rows, expected {A.shape[-1]}")
        if self.dt < 0:
            raise ValueError("dt must be >= 0")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n_states(self) -> int:
        return self.A.shape[-1]

    @property
    def is_discrete(self) -> bool:
        return self.dt > 0.0


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade
    approximant (N. J. Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005).

    Each item A is scaled by its own 2^-s so that its 1-norm is at most
    PADE13_THETA, where r13 = (V - U)^-1 (V + U) meets exp to double
    precision; its result is squared s times.  The odd and even parts U and
    V come from I, A^2, A^4 and A^6 through one product with the
    coefficient block.
    """
    m = _square(a, "expm input")
    n = m.shape[-1]
    norms = np.abs(m).sum(axis=-2).max(axis=-1)
    s = np.array([math.ceil(math.log2(x / PADE13_THETA)) if x > PADE13_THETA else 0
                  for x in norms.ravel().tolist()], dtype=np.intp).reshape(norms.shape)
    if s.any():
        m = m * np.ldexp(1.0, -s)[..., None, None]
    powers = np.empty(m.shape[:-2] + (4, n, n))
    powers[..., 0, :, :] = np.eye(n)
    a2 = np.matmul(m, m, out=powers[..., 1, :, :])
    a4 = np.matmul(a2, a2, out=powers[..., 2, :, :])
    a6 = np.matmul(a4, a2, out=powers[..., 3, :, :])
    # U_6, V_6, U_0, V_0 with U = A (A^6 U_6 + U_0) and V = A^6 V_6 + V_0
    parts = (_PADE13_BLOCK @ powers.reshape(m.shape[:-2] + (4, n * n))).reshape(powers.shape)
    uv = a6[..., None, :, :] @ parts[..., :2, :, :] + parts[..., 2:, :, :]
    u, v = m @ uv[..., 0, :, :], uv[..., 1, :, :]
    r = np.linalg.solve(v - u, v + u)
    for j in range(int(s.max(initial=0))):
        squared = s > j
        r[squared] = r[squared] @ r[squared]
    return r


# weights of I, A^2, A^4 and A^6 in U_6, V_6, U_0 and V_0 (one row each)
_PADE13_BLOCK = np.array([[0.0, PADE13[9], PADE13[11], PADE13[13]],
                          [0.0, PADE13[8], PADE13[10], PADE13[12]],
                          [PADE13[1], PADE13[3], PADE13[5], PADE13[7]],
                          [PADE13[0], PADE13[2], PADE13[4], PADE13[6]]])


def c2d(sys: StateSpace, dt: float) -> StateSpace:
    """Zero-order-hold discretization of a continuous-time model (or stack).

    Uses the augmented-matrix exponential: exp([[A, B], [0, 0]] * dt)
    yields Ad in the upper-left block and Bd = (int_0^dt e^{A tau} dtau) B
    in the upper-right block.
    """
    if sys.is_discrete:
        raise ValueError("c2d expects a continuous-time model (dt == 0)")
    if dt <= 0:
        raise ValueError("sample period dt must be > 0")
    n, m = sys.B.shape[-2:]
    aug = np.zeros(sys.A.shape[:-2] + (n + m, n + m))
    aug[..., :n, :n] = sys.A
    aug[..., :n, n:] = sys.B
    phi = expm(aug * dt)
    return StateSpace(phi[..., :n, :n], phi[..., :n, n:], dt)


def mat_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve AX = B with numpy's LAPACK solver, per item of stacks with the
    same leading axes.

    Raises NumericalError when an A is singular to working precision
    (2-norm condition number above MAT_COND_MAX).
    """
    a = _square(a, "A")
    b = as_matrix(b, "B")
    if b.shape[-2] != a.shape[-1]:
        raise ValueError(f"B has {b.shape[-2]} rows, expected {a.shape[-1]}")
    if not np.all(np.linalg.cond(a) <= MAT_COND_MAX):
        raise NumericalError("matrix singular to working precision")
    # B gets A's leading axes: numpy 1.x reads a B with one axis less than A
    # as a stack of vectors, numpy 2.x as one matrix
    if b.ndim < a.ndim:
        b = np.broadcast_to(b, a.shape[:-2] + b.shape[-2:])
    return np.linalg.solve(a, b)


def dare_residual(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray, x: np.ndarray):
    """Frobenius norm of A'XA - X + Q - A'XB (R + B'XB)^-1 B'XA, a float, or
    an array of them for stacks."""
    axa = _t(a) @ x @ a
    bxb = r + _t(b) @ x @ b
    gain_term = _t(a) @ x @ b @ mat_solve(bxb, _t(b) @ x @ a)
    return _fro(axa - x + q - gain_term)


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve the discrete algebraic Riccati equation by doubling, for one
    problem or a stack of them (leading axes broadcast).

    Structure-preserving doubling (B.D.O. Anderson, Int. J. Control 1978)
    from A0 = A, G0 = B R^-1 B', H0 = Q:

        W = I + G H,  A <- A W^-1 A,  G <- G + A W^-1 G A',
        H <- H + A' H W^-1 A,

    until H stops changing; an item that has stopped is set aside while the
    others go on.  Each step doubles the horizon, so convergence is
    quadratic and the cap is small.  An unstabilizable pair makes H diverge
    or overflow and raises NumericalError.

    Returns the positive-semidefinite solution X with residual Frobenius
    norm <= 1e-9 * (1 + ||X||).
    """
    a = _square(a, "A")
    b = as_matrix(b, "B")
    q = _square(q, "Q")
    r = _square(r, "R")
    n = a.shape[-1]
    if b.shape[-2] != n or q.shape[-1] != n:
        raise ValueError("A, B, Q dimensions are inconsistent")
    if r.shape[-1] != b.shape[-1]:
        raise ValueError(f"R must be {b.shape[-1]}x{b.shape[-1]}")
    if np.any(_fro(q - _t(q)) > 1e-10 * (1 + _fro(q))):
        raise ValueError("Q must be symmetric")
    if np.any(_fro(r - _t(r)) > 1e-10 * (1 + _fro(r))):
        raise ValueError("R must be symmetric")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], q.shape[:-2], r.shape[:-2])
    a, b, q, r = (np.broadcast_to(m, lead + m.shape[-2:]).reshape((-1,) + m.shape[-2:])
                  for m in (a, b, q, r))
    try:
        x = _doubling(a, b, q, r)
    except NumericalError:
        if len(a) == 1:
            raise
        for item in range(len(a)):   # the first item that fails alone raises
            _doubling(*(m[item:item + 1] for m in (a, b, q, r)))
        raise
    return x.reshape(lead + (n, n))


def _doubling(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """solve_dare on stacks of equal length, validated."""
    eye = np.eye(a.shape[-1])
    ak = a
    g = b @ mat_solve(r, _t(b))
    items = np.arange(len(a))   # the items still iterating
    # divergence for unstabilizable pairs, and a Q past the float range, are
    # caught by the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.5 * (q + _t(q))
        x = np.empty_like(h)
        for _ in range(DARE_MAX_ITER):
            w = eye + g @ h
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(ak))):
                raise NumericalError("DARE doubling diverged (unstabilizable pair?)")
            sol = mat_solve(w, np.concatenate([ak, g], axis=-1))
            wa, wg = np.split(sol, 2, axis=-1)
            h_next = h + _t(ak) @ h @ wa
            h_next = 0.5 * (h_next + _t(h_next))
            g = g + ak @ wg @ _t(ak)
            g = 0.5 * (g + _t(g))
            ak = ak @ wa
            step = _fro(h_next - h)
            h = h_next
            # the norms overflow to inf on a diverging H, and inf <= inf holds
            done = np.isfinite(step) & (step <= DARE_STEP_TOL * (1.0 + _fro(h)))
            if done.any():
                x[items[done]] = h[done]
                go = ~done
                items, ak, g, h = items[go], ak[go], g[go], h[go]
                if not len(items):
                    break
        else:
            raise NumericalError(
                f"DARE doubling did not converge in {DARE_MAX_ITER} steps "
                "(unstabilizable pair or ill-conditioning?)"
            )
    res = dare_residual(a, b, q, r, x)
    # an overflowed (inf or nan) residual must fail the gate too
    bad = np.flatnonzero(~(res <= DARE_RESIDUAL_TOL * (1.0 + _fro(x))))
    if len(bad):
        raise NumericalError(f"DARE residual {res[bad[0]]:.3e} exceeds tolerance after convergence")
    return x


def spectral_radius(a: np.ndarray):
    """Largest eigenvalue modulus from numpy's LAPACK eigenvalue solver: a
    float, or an array of them for a stack."""
    rho = np.abs(np.linalg.eigvals(_square(a, "A"))).max(axis=-1)
    return float(rho) if rho.ndim == 0 else rho


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
