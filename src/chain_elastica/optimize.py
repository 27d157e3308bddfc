"""Unconstrained minimization over mean-zero vectors: the periodic banded
Hessian, factored through its spectrum when it is circulant and by a
grounded block cyclic reduction otherwise; Newton, which builds and factors
a fresh Hessian at each iterate, so that the factorization certifies it,
stops on a small step (a quadratic problem after its first) and evaluates
the objective once per point; and the one-slot cache through which a
problem's callbacks share one evaluation per point. Only numpy is needed."""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["PeriodicBand", "DomainError", "MinimizeProblem",
           "MinimizeResult", "StackResult", "newton_minimize",
           "stack_of_one", "evaluate_once"]

_DENSE = 64     # cyclic reduction ends in one dense Cholesky at this size


@lru_cache(maxsize=2)
def _sin2_table(n, b):
    """sin^2(pi j o / n) for j = 0..n//2 and o = 1..b, read-only, from one
    sin^2 sweep over k <= n/2 (it is even in k with period n). A sweep cell
    reads two, its chain's (n, r_cut) and its models' (n, 5); only those
    are kept."""
    o = np.arange(1, b + 1)
    half = np.arange(n // 2 + 1)
    k = np.outer(half, o) % n
    sin2 = np.sin(np.pi / n * half) ** 2
    table = sin2[np.minimum(k, n - k)]
    table.flags.writeable = False
    return table


class PeriodicBand:
    """Symmetric periodic-banded n×n matrix with H·1 = 0, stored in O(n) as
    diags[b + o, m] = H[m, (m + o) % n] for |o| <= b. When n <= 2b, aliased
    offsets hold parts of one entry, which `factor` and `eigenvalues` sum.
    A circulant band's `diags` may be one column broadcast, read-only."""

    def __init__(self, n, b):
        self.n, self.b = n, b
        self.diags = np.zeros((2 * b + 1, n))

    def add(self, o, values, shift=0):
        """H[(m + shift) % n, (m + shift + o) % n] += values[m] for all m.
        The shift splits the add into two slices, so nothing is copied."""
        row, s = self.diags[self.b + o], shift % self.n
        if s:
            row[:s] += values[self.n - s:]
        row[s:] += values[:self.n - s]

    def _stored(self):
        """The columns of `diags` held in memory: column 0 alone when it is
        broadcast."""
        return self.diags[:, :1] if self.diags.strides[1] == 0 else self.diags

    def is_circulant(self):
        """Is H circulant: no aliased offsets (n > 2b), and every column of
        `diags` equal to column 0?"""
        stored = self._stored()
        return self.n > 2 * self.b and bool(
            (stored == stored[:, :1]).all())

    def eigenvalues(self):
        """Eigenvalues of a circulant band, lam[j] for the Fourier modes
        exp(2 pi i j m / n), j = 0..n-1 (Davis, Circulant Matrices, 1979), in
        the difference form

            lam_j = -sum_{o=1..b} 2 (H[0, o] + H[0, -o]) sin^2(pi j o / n),

        which takes H·1 = 0 as given (lam_0 = 0), as the refinement residual
        of `factor` does. Unlike a DFT of row 0, it keeps its relative
        accuracy on the smooth modes, where lam_j is O((j/n)^2). It holds
        with aliased offsets too (n <= 2b, their parts summed), so it
        raises ValueError exactly when some column differs from column 0."""
        if not np.all(self.diags == self.diags[:, :1]):
            raise ValueError("PeriodicBand is not circulant")
        lam = self._half_spectrum()
        return np.concatenate([lam, lam[(self.n - 1) // 2:0:-1]])

    def _half_spectrum(self):
        """lam_j of `eigenvalues` for j = 0..n//2, the modes of an rfft;
        lam_(n - j) = lam_j."""
        b, col = self.b, self.diags[:, 0]
        # H[0, o] + H[0, -o] for o = 1..b
        return -2.0 * (_sin2_table(self.n, b) @ (col[b + 1:] + col[b - 1::-1]))

    def factor(self):
        """Factor H and return its passes: rhs -> an iterator over mean-zero
        solutions of H x = rhs for mean-zero rhs, the last of which is the
        solution. One factorization serves any number of right-hand sides
        (Golub & Van Loan, Matrix Computations, §4.2); the band does not
        keep it, so every call factors anew. `np.linalg.LinAlgError` is
        raised exactly when H is not positive definite on mean-zero vectors.

        A circulant band (`is_circulant`) is diagonalized by the DFT, its
        one pass x = irfft(rfft(rhs) / lam) over the modes j != 0 of
        `eigenvalues`; lam_j > 0 for every j != 0 is then exact.

        Any other band goes through a reduction. Dof 0 is grounded and the
        rest ordered 1, n-1, 2, n-2, ..., an ordinary band of half-width
        w = 2b (Golub & Van Loan, §4.3). Cut into blocks of width w, it is
        block tridiagonal and is factored by block cyclic reduction. As
        H·1 = 0, the grounded matrix is positive definite iff H is on
        mean-zero vectors, which its Cholesky pivots certify. Its first pass
        is followed by one step of iterative refinement through the same
        factorization, with the residual in the difference form
        sum_o H[m, m + o]·(x[m + o] - x[m]), exact on constants: a caller
        can stop on the first pass."""
        if not np.isfinite(self._stored()).all():
            raise ValueError("PeriodicBand has non-finite entries")
        if self.is_circulant():
            return _spectral_passes(self._half_spectrum(), self.n)
        n, diags = self.n, self.diags
        layout = _grounded_layout(n, self.b)
        grounded = _cyclic_reduction(diags, layout)

        def passes(rhs):
            """The mean-zero solution after the first reduction pass, then
            after the refinement pass, which continues from the first."""
            x = np.zeros(n)
            x[layout.order], v = grounded(
                np.column_stack([rhs[layout.order], np.ones(n - 1)])).T

            def spread_row0(f, y):
                # H·1 = 0 holds only to roundoff, so row 0 keeps a residual
                # r0 of order n·|y|·1e-16; the mean-zero solution solves
                # H y = f - (r0 / n)·1
                r0 = f[0] - diags[:, 0] @ y[layout.cols[:, 0]]
                y[layout.order] -= (r0 / n) * v

            spread_row0(rhs, x)
            yield x - x.mean()
            r = rhs - np.einsum("om,om->m", diags, x[layout.cols] - x)
            d = np.zeros(n)
            d[layout.order] = grounded(r[layout.order, None])[:, 0]
            spread_row0(r, d)
            x += d
            yield x - x.mean()

        return passes


def _spectral_passes(lam, n):
    """The passes of `PeriodicBand.factor` for an n×n circulant band whose
    eigenvalues are lam_j, j = 0..n//2, and lam_(n - j) = lam_j: one, the
    solution; raises `np.linalg.LinAlgError` unless lam_j > 0 for every
    mode j != 0. The passes carry `lam`, so that a caller can solve several
    such bands at once (`_spectral_solve`)."""
    if not (lam[1:] > 0.0).all():
        raise np.linalg.LinAlgError(
            "PeriodicBand is not positive definite on mean-zero vectors")

    def passes(rhs):
        yield _spectral_solve(lam, rhs)

    passes.lam = lam
    return passes


def _spectral_solve(lam, rhs):
    """The mean-zero x = irfft(rfft(rhs) / lam) over the modes j != 0, for
    each row of rhs (..., n) and its row of eigenvalues lam (..., n//2 + 1):
    the row-wise rfft, irfft and row means give each row the bits it gets
    alone."""
    xh = np.fft.rfft(rhs)
    xh[..., 0] = 0.0
    xh[..., 1:] /= lam[..., 1:]
    x = np.fft.irfft(xh, rhs.shape[-1])
    return x - _row_means(x)


_Layout = namedtuple("_Layout", "order cols src dst pad nb")


@lru_cache(maxsize=1)
def _grounded_layout(n, b):
    """Index maps from an (n, b) PeriodicBand to its grounded, zig-zag
    ordered matrix cut into nb blocks of width w = 2b: the ordering; the
    columns cols[b + o, m] = (m + o) % n of `diags`; the `diags.ravel()`
    entries on or above the block diagonal and their flat targets in
    [diagonal blocks (nb, w, w); upper blocks (nb + 1, w, w)], where upper
    block i couples blocks i - 1 and i and the first and last stay zero;
    and the diagonal targets of the nb·w - (n - 1) padding unknowns.

    Dof j sits at position pos[j] of the zig-zag order, in block pos // w
    at offset pos % w. Entry (m, q = cols[., m]) lies on or above the block
    diagonal iff pos[q] >= w·(pos[m] // w), and in the upper block iff
    pos[q] >= w·(pos[m] // w + 1), as coupled blocks are adjacent. Its
    target is then pos[q] plus a per-row constant, so one gather of pos
    at `cols` and per-dof tables give every entry.

    Only the last layout is kept: a sweep cell factors all the chain's
    (n, r_cut) bands and then all its models' (n, 5) bands, so an older
    layout would not be read again."""
    w = 2 * b
    j = np.arange(n)
    pos = np.where(2 * j <= n, 2 * j - 2, 2 * (n - j) - 1)   # pos[0] < 0
    order = np.empty(n - 1, dtype=np.intp)
    order[pos[1:]] = j[1:]
    nb = -(-(n - 1) // w)
    cols = sliding_window_view(np.arange(-b, n + b) % n, n).copy()
    block, offset = np.divmod(pos, w)
    # the target of entry (m, q) less pos[q], for q in the block of m
    diag = block * (w * w - w) + offset * w
    block[0] = nb           # the grounded row 0 keeps no entry
    first = block * w       # the first position of m's block
    at = pos[cols]          # column 0, at pos -2, falls below every first
    src = np.flatnonzero(at >= first)
    at += np.where(at >= first + w, diag + (nb + 1) * w * w - w, diag)
    dst = at.ravel()[src]
    pad = np.arange(n - 1, nb * w)
    pad = pad // w * w * w + pad % w * (w + 1)
    layout = _Layout(order, cols, src, dst, pad, nb)
    for a in layout[:-1]:
        a.flags.writeable = False
    return layout


def _cyclic_reduction(diags, layout):
    """Factor the grounded, zig-zag ordered band of `diags` and return the
    solve R (n - 1, k) -> X (n - 1, k).

    The band is block tridiagonal, with diagonal blocks D (nb, w, w) and
    U[i] = A[i - 1, i]. Block cyclic reduction (Heller, SIAM J. Numer. Anal.
    13, 1976) eliminates the even blocks at each level: their pivots go
    through one batched Cholesky and one batched inverse, and leave their
    Schur complement on the odd blocks, again block tridiagonal. The last
    _DENSE or fewer unknowns get one dense Cholesky and, per solve, one LU
    solve. A is positive definite iff every pivot is, so
    `np.linalg.LinAlgError` is raised iff A is not.

    A level keeps what the solve reads, D^-1 of its pivots, the couplings
    Ct and P = D^-1 C, and frees each of its other arrays once it has been
    read: the old U and Ut once C and Ct are built, the old D (at the
    first level, all the blocks) once its pivots are inverted, C once P is
    formed, and S once the next level's blocks are filled."""
    nb, w = layout.nb, 2 * (len(diags) // 2)
    blocks = np.bincount(layout.dst, weights=diags.ravel()[layout.src],
                         minlength=(2 * nb + 1) * w * w)
    blocks[layout.pad] = 1.0
    D, U = np.split(blocks, [nb * w * w])
    D, U = D.reshape(nb, w, w), U.reshape(nb + 1, w, w)
    Ut = np.ascontiguousarray(U.transpose(0, 2, 1))     # Ut[i] = A[i, i - 1]
    del blocks
    levels = []
    while len(D) > 1 and len(D) * w > _DENSE:
        npiv, nodd = (len(D) + 1) // 2, len(D) // 2
        # pivot t couples to odd block t - 1 by A[2t, 2t-1] = Ut[2t] and to
        # odd block t by A[2t, 2t+1] = U[2t+1], both zero at the ends:
        # C = [A[2t, 2t-1], A[2t, 2t+1]] and Ct its transpose
        C = np.concatenate([Ut[0:2 * npiv:2], U[1::2]], axis=2)
        Ct = np.concatenate([U[0:2 * npiv:2], Ut[1::2]], axis=1)
        del U, Ut
        np.linalg.cholesky(D[0::2])     # the certificate: raises unless > 0
        Dinv = np.linalg.inv(D[0::2])
        D = D[1::2].copy()      # the odd blocks; the old D is freed
        P = Dinv @ C
        del C
        S = Ct @ P              # [[left, left-right], [right-left, right]]
        D -= S[:nodd, w:, w:]
        D[:npiv - 1] -= S[1:, :w, :w]
        U, Ut = np.zeros((2, nodd + 1, w, w))
        np.negative(S[:, :w, w:], out=U[:npiv])
        np.negative(S[:, w:, :w], out=Ut[:npiv])
        del S
        levels.append((Dinv, Ct, P))

    m = len(D)
    last = np.zeros((m, w, m, w))
    i = np.arange(m)
    last[i, :, i, :] = D
    last[i[:-1], :, i[1:], :] = U[1:-1]
    last[i[1:], :, i[:-1], :] = Ut[1:-1]
    last = last.reshape(m * w, m * w)
    np.linalg.cholesky(last)    # the last pivot: raises unless it is > 0

    def solve(rhs):
        R = np.zeros((nb * w, rhs.shape[1]))
        R[:len(rhs)] = rhs
        R = R.reshape(nb, w, -1)
        eliminated = []
        for Dinv, Ct, P in levels:
            npiv, nodd = len(P), len(R) // 2
            Pr = Dinv @ R[0::2]
            Q = Ct @ Pr                         # [A[2t-1, 2t]; A[2t+1, 2t]] x
            R = R[1::2] - Q[:nodd, w:]
            R[:npiv - 1] -= Q[1:, :w]
            eliminated.append(Pr)
        X = np.linalg.solve(last, R.reshape(m * w, -1)).reshape(R.shape)
        for (Dinv, Ct, P), Pr in zip(reversed(levels), reversed(eliminated)):
            # x_2t = D^-1 R_2t - D^-1 (A[2t, 2t-1] x_2t-1 + A[2t, 2t+1] x_2t+1)
            npiv, nodd = len(P), len(X)
            Xn = np.zeros((npiv + 1,) + X.shape[1:])
            Xn[1:nodd + 1] = X
            full = np.empty((npiv + nodd,) + X.shape[1:])
            full[0::2] = Pr - P[:, :, :w] @ Xn[:-1] - P[:, :, w:] @ Xn[1:]
            full[1::2] = X
            X = full
        return X.reshape(nb * w, -1)[:len(rhs)]

    return solve


class DomainError(ValueError):
    """Raised by a problem's callbacks at a point outside the domain of
    its objective, such as a chain with a bond compressed to nonpositive
    length. A stacked callback names the rows of its points that are
    outside in `rows`, row -> message; without them, every row is."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


@dataclass
class MinimizeProblem:
    """A stack of m problems over mean-zero vectors of one length n, which
    `newton_minimize` solves in lockstep. Each callback takes an (m, n)
    array of points, skips its rows of NaN, and returns for the others, in
    row order: the objective values (k,), the gradients (k, n) or the
    Hessian bands (a list of k). A single problem is a stack of one
    (`stack_of_one`)."""
    objective: Callable
    gradient: Callable
    hessian: Callable          # points -> [PeriodicBand]
    max_iter: int = 500
    quadratic: bool = False    # is every objective quadratic in x?


def stack_of_one(objective, gradient, hessian, **options):
    """The MinimizeProblem of a stack of one, from callbacks on one vector
    that return a float, an (n,) gradient and a band."""
    return MinimizeProblem(lambda x: np.array([objective(x[0])]),
                           lambda x: gradient(x[0])[None],
                           lambda x: [hessian(x[0])], **options)


@dataclass
class MinimizeResult:
    """One member's result; `outside_domain` flags a start outside the
    objective's domain, which `message` names."""
    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str = ""
    hessian_indefinite: bool = False
    outside_domain: bool = False


class StackResult(tuple):
    """The MinimizeResults of a stack's members, in order."""

    @property
    def iterations(self):
        """The Newton steps summed over the stack."""
        return sum(r.iterations for r in self)


# Newton stops once its step is this small relative to the point it reaches
STEP_RTOL = 1e-8
# Armijo cannot see a predicted decrease -g.p below this fraction of |f|:
# the objective sums many terms, so its rounding error is far larger than
# one ulp of its value. Such steps are judged by the gradient norm instead.
ROUNDOFF_RTOL = 1e-10


def _at_rows(x, rows):
    """The (m, n) points x with every row not in `rows` NaN."""
    if len(rows) == len(x):
        return x
    at = np.empty_like(x)
    for i in range(len(x)):     # a stack has a few rows
        at[i] = x[i] if i in rows else np.nan
    return at


def _call(callback, x, rows):
    """`callback` at the rows of x: the rows it evaluated, its values there
    and row -> message for the rows outside the domain, which are dropped
    and the call made again without them."""
    outside = {}
    while rows:
        try:
            return rows, callback(_at_rows(x, rows)), outside
        except DomainError as err:
            bad = err.rows or dict.fromkeys(rows, str(err))
            outside.update(bad)
            rows = [i for i in rows if i not in bad]
    return rows, (), outside


def _row_means(a):
    """a.mean(axis=-1, keepdims=True), the same sum and division, without
    the Python layer of `np.mean`."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _index(rows, m):
    """`rows` of a stack of m as an index: all of them as a slice, whose
    rows are views, and a subset as the list."""
    return slice(None) if len(rows) == m else rows


def newton_minimize(problem, x0):
    """Newton with energy backtracking over mean-zero vectors, stopped on a
    certified step (Kelley, Solving Nonlinear Equations with Newton's
    Method, SIAM 2003, ch. 2), for each member of the stack of starts x0,
    (m, n), in lockstep.

    At each iterate x_k the problem builds a fresh Hessian, whose one
    factorization certifies x_k: an indefinite Hessian is flagged (that
    failure mode is informative: it exhibits the unstable continuum
    variants). Its passes (`PeriodicBand.factor`) then give the Newton step
    p_k; the members whose bands are circulant take theirs from one
    row-wise spectral solve (`_spectral_solve`). Once
    ||p_k||_inf <= STEP_RTOL·||x_k + p_k||_inf, the result is x_k + p_k.
    So x_k already agrees with the minimizer to
    about 8 digits relative to ||x||_inf, and in Newton's quadratic regime
    x_k + p_k is off by O(||p_k||^2), below roundoff: its error is then the
    rounding error of the computed step, not STEP_RTOL. A reduction solve's
    first pass is tested before its refinement pass runs (`PeriodicBand`):
    that p_k is good to about 1e-12 relative, so refining it would move
    x_k + p_k by about 1e-20 of ||x||_inf, below one ulp, and a final step
    makes one pass (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
    1982). A step that continues is refined by the last pass, and its stop
    test is made again on the refined p_k. An exactly zero
    gradient returns x_k itself. Every step's factorization is freed before
    f is evaluated at the points returned or at line-search trials, so an
    evaluation never holds its memory as well.

    A `quadratic` problem stops after its first step: its Hessian is the
    same at every point, so the factorization at x_0 certifies the whole
    problem and x_0 + p_0 is its minimizer to roundoff (Nocedal & Wright,
    Numerical Optimization, §3.3), with p_0 from the refined solve unless a
    first pass already meets the stop test. The result is that point, with
    f evaluated there and one iteration. If f raises DomainError at any
    stopping point x_k + p_k, that point lies outside the objective's
    domain and the damped steps below run from x_k instead.

    `iterations` counts the steps taken, the last one included, and so
    equals the number of Hessians a converged solve builds and factors;
    `grad_norm` is ||g(x_k)||_inf.

    The objective is evaluated once per point: the accepted line-search
    trial's value is the next iterate's, and the result carries f at the
    returned point. At x0 it is evaluated only if the line search or an
    exit at x0 reads it, so a solve that stops at its first step makes one
    objective call. Backtracking enforces Armijo decrease unless the
    predicted decrease -g.p is below the objective's rounding level
    (ROUNDOFF_RTOL·|f|); such a step is accepted when it lowers
    ||g||_inf instead. A trial at which the objective raises DomainError
    is rejected like one that fails the test; a start outside the domain
    ends its member with `outside_domain` and no step.

    Lockstep: the members still running at iteration k are all at their
    own k-th step, and each callback is called once for all of them that
    need it, at the points named below, through the problem object: the
    gradients at the iterates, the Hessians there, f at the points
    returned, f at the iterates that start a line search, and f (then the
    gradients of the members whose decrease is at roundoff level) at each
    round of trials. Every step, test, factorization and exit is the
    member's own, so a member ends with the bits it gets alone as long as
    the callbacks give each row the bits they give it alone. The result
    is a `StackResult`."""
    x = np.array(x0, dtype=float)
    x -= _row_means(x)
    m = len(x)
    g, p, trial = np.empty((3,) + x.shape)
    fx, gnorm, has_g = [None] * m, [float("nan")] * m, [False] * m
    results = [None] * m

    def end(i, at, fun, it, converged, message, **flags):
        # a row of x or trial is the member's alone, and is not written
        # once the member has ended
        results[i] = MinimizeResult(at, float(fun), gnorm[i], it, converged,
                                    message, **flags)

    def values_at(points, rows):
        """f at the rows of points, where it is defined: row -> value."""
        rows, vals, _ = _call(problem.objective, points, rows)
        return dict(zip(rows, vals))

    for it in range(problem.max_iter):
        running = [i for i in range(m) if results[i] is None]
        need = [i for i in running if not has_g[i]]
        if need:
            rows, gx, outside = _call(problem.gradient, x, need)
            for i, why in outside.items():
                end(i, x[i], np.nan, it, False, why, outside_domain=True)
            if rows:
                g[_index(rows, m)] = gx - _row_means(gx)
            for i in rows:
                has_g[i] = True
            running = [i for i in running if i not in outside]
        if not running:
            break
        norms = np.abs(g[_index(running, m)]).max(axis=1).tolist()
        for i, norm in zip(running, norms):
            gnorm[i] = norm
        exits, stops, steps, spectral = {}, [], [], {}

        def take(i, passes):
            # a reduction solve yields its first pass before it refines: a
            # step that stops on it needs no refinement
            for step in passes:
                stop = (np.abs(step).max()
                        <= STEP_RTOL * np.abs(x[i] + step).max())
                if stop:
                    break
            else:
                # one refined step from a certified start reaches a
                # quadratic problem's minimizer
                stop = problem.quadratic and it == 0
            p[i] = step
            (stops if stop else steps).append(i)

        bands = problem.hessian(_at_rows(x, running))
        for j, i in enumerate(running):
            band, bands[j] = bands[j], None
            try:
                passes = band.factor()
            except np.linalg.LinAlgError:
                exits[i] = (False, "Hessian not positive definite",
                            dict(hessian_indefinite=True))
                continue
            del band
            if gnorm[i] == 0.0:
                exits[i] = (True, "converged", {})
            elif hasattr(passes, "lam"):
                spectral[i] = passes.lam
            else:
                take(i, passes(-g[i]))
            del passes  # free the factorization before f is evaluated again
        if spectral:
            # the circulant members' steps in one row-wise spectral solve
            circulant = list(spectral)
            for i, step in zip(circulant, _spectral_solve(
                    np.array(list(spectral.values())), -g[circulant])):
                take(i, [step])
        del bands
        # f at the exits that have not read it, and at the stopping points
        ends = [i for i in exits if fx[i] is None]
        if ends:
            trial[ends] = x[ends]
        if stops:
            at = _index(stops, m)
            points = np.add(x[at], p[at], out=trial[at])
            points -= _row_means(points)
            trial[at] = points
        fn = values_at(trial, sorted(ends + stops)) if ends or stops else {}
        for i in stops:
            if i in fn:
                end(i, trial[i], fn[i], it + 1, True, "converged")
            else:   # the stopping point is outside: damp
                steps.append(i)
        for i, (converged, message, flags) in exits.items():
            end(i, x[i], fn.get(i, fx[i]), it, converged, message, **flags)
        steps.sort()
        start = [i for i in steps if fx[i] is None]
        for i, v in (values_at(x, start) if start else {}).items():
            fx[i] = v
        slope = {i: float(np.dot(g[i], p[i])) for i in steps}
        roundoff = {i: -slope[i] <= ROUNDOFF_RTOL * abs(fx[i]) for i in steps}
        alpha = dict.fromkeys(steps, 1.0)
        for _ in range(60):
            if not steps:
                break
            for i in steps:
                point = np.add(x[i], alpha[i] * p[i], out=trial[i])
                point -= _row_means(point)
            fn = values_at(trial, steps)
            low = [i for i in fn if roundoff[i]]
            if low:
                gn = problem.gradient(_at_rows(trial, low))
                gn = dict(zip(low, gn - _row_means(gn)))
            for i, f in fn.items():
                if roundoff[i]:
                    taken = np.abs(gn[i]).max() < gnorm[i]
                else:
                    taken = f <= fx[i] + 1e-4 * alpha[i] * slope[i]
                if taken:
                    x[i], fx[i], has_g[i] = trial[i], f, roundoff[i]
                    if roundoff[i]:
                        g[i] = gn[i]
                    alpha[i] = None
            # a trial outside the domain is rejected too
            for i in steps:
                if alpha[i] is not None:
                    alpha[i] *= 0.5
            steps = [i for i in steps if alpha[i] is not None]
        for i in steps:
            end(i, x[i], fx[i], it, False, "backtracking failed")
    last = [i for i in range(m) if results[i] is None]
    fn = values_at(x, [i for i in last if fx[i] is None])
    for i in last:
        end(i, x[i], fn.get(i, fx[i]), problem.max_iter, False,
            "max iterations")
    return StackResult(results)


def evaluate_once(evaluate):
    """`evaluate` with a one-slot cache keyed by the bits of its array
    argument. The key is a copy of the last argument's shape and bytes, so
    a caller that changes the array in place between calls gets a fresh
    evaluation. The old value is dropped before a new one is evaluated.

    The objective, gradient and Hessian callbacks of a problem share one
    such evaluation, and Newton calls all three at each iterate; the
    Hessian callback builds a fresh band from it at every call. `forget`
    drops the value."""
    slot = []

    def at(x):
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        if not slot or slot[0][0] != key:
            slot.clear()    # free the old value first
            slot.append((key, evaluate(x)))
        return slot[0][1]

    at.forget = slot.clear
    return at
