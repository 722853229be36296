"""Best separable approximation (BSA) of states and of quantum operations.

For a bipartite PSD matrix ``rho`` the goal is the decomposition
``rho = Lambda * rho_s + delta_rho`` with ``rho_s`` a convex mixture of
product projectors, ``delta_rho >= 0`` and ``Lambda`` as large as
possible.  The workhorse is coordinate ascent over a finite candidate
set of product vectors, with single-projector and projector-pair weight
updates; the subtractable weight of one projector has the closed form
``1 / <psi| rho^+ |psi>`` when ``psi`` lies in the range of ``rho``.  Over
a fixed set the weights are a convex problem, solved by Newton's method on
its dual before the ascent runs.  Each input has one floor,
``-ASCENT_FLOOR`` below min(0, lambda_min(rho)), read from the ``eigh`` of
its state check (``_Input``).  The ascent, ``_psd_scale`` (of the barrier
proposals and the fixed-set weights), ``max_lambda`` and ``max_pair`` keep
every residual above it.

Before any of that, ``bsa_state`` asks whether range(rho) can hold a
product vector at all.  A separable part must lie in range(rho), so when
no unit product vector reaches ``PRODUCT_OVERLAP`` in the range
projector, Lambda = 0 is optimal (the range criterion) and the search,
the ascent and the refinement rounds are skipped.  Two bounds decide
this: the cross-norm bound of the realigned range projector, and the
range projector extended by one symmetric copy of the larger party; the
result records which one fired.

Operations are handled through their Choi matrix: regrouping its indices
by (output, input) pairs per subsystem (``reshape._regroup``) turns
separability of the map into ordinary separability of a bipartite state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import Channel, _kraus_stack
from .errors import (CandidateOutsideRange, DimensionMismatch, InvalidArgument,
                     NonConvergence, NonFinite, NotAState, NotCompletelyPositive,
                     ShapeMismatch, ZeroMatrix)
from .numerics import DEFAULT_TOL, Tolerance, check_hermitian, check_index, range_mask
from .reshape import (BipartiteShape, _blocks, _regroup, devectorize, product_factorize,
                      realign, tensor, tensor_vectors)

# Feasibility tolerances of the BSA optimizer; looser than the library
# default because weights are accumulated over many subtractions.
RANGE_TOL = 1e-9
RESIDUAL_MIN_EIG = -1e-8
# Each BSA input's floor lies -ASCENT_FLOOR below min(0, lambda_min(rho)) (_Input);
# at RESIDUAL_MIN_EIG / 10 the ascent's weights exceed max_lambda's by 1.1e-7.
ASCENT_FLOOR = RESIDUAL_MIN_EIG / 100
# Terms above WEIGHTED_TERM steer the sweeps and refinement seeds, those above
# KEPT_TERM are kept.
WEIGHTED_TERM = 1e-10
KEPT_TERM = 1e-12
# A candidate product vector is kept when its overlap <e f|Pi|e f> with
# the range projector reaches this value after the power iteration;
# random draws at 1 - RANGE_TOL are kept without iterating.
PRODUCT_OVERLAP = 1.0 - 1e-6
# Allowance for rounding between a computed overlap and the singular
# value or eigenvalue that bounds it.
OVERLAP_ROUNDING = 1e-10
# Projector-pair updates per sweep of the coordinate ascent (one per term
# when there are fewer terms).
PAIR_CAP = 500
# Refinement rounds of bsa_state: the cap, and the least gain over three.
MAX_ROUNDS = 12
STALL_TOL = 1e-5
# The fixed-set dual barrier: mu falls from 1 by x0.1 to DUAL_MU_MIN (1e-10 left the
# Werner grid of criterion 08 1.1e-6 short), each stage centred to a Newton decrement
# of DUAL_DECREMENT in at most DUAL_STEPS steps (the most measured was 153).
DUAL_MU_MIN = 1e-11
DUAL_DECREMENT = 1e-20
DUAL_STEPS = 500
# |D - D_sep| / |D| of a "separable" verdict: the BSA's own tolerances set it, not --tol
SEPARABLE_REMAINDER = 1e-6
# |tr rho - 1| bsa_state allows: a unit target has no scale, and --tol bounds rounding
UNIT_TRACE_TOL = 1e-6


@dataclass(frozen=True)
class ProductVector:
    """A unit product vector e (x) f on a bipartite system."""

    e: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for name in ("e", "f"):
            v = np.asarray(getattr(self, name), dtype=complex).reshape(-1)
            object.__setattr__(self, name, _unit_vector(v, v.size))

    @property
    def vector(self) -> np.ndarray:
        return tensor_vectors(self.e, self.f)

    @property
    def projector(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class BsaDecomposition:
    lambda_total: float
    terms: tuple  # of (weight, ProductVector)
    separable_part: np.ndarray
    residual: np.ndarray
    candidate_set_size: int
    # "realignment" or "symmetric_extension" when that bound proved
    # that range(rho) holds no product vector, so that Lambda = 0
    certificate: Optional[str] = None


@dataclass(frozen=True)
class SeparabilityVerdict:
    kind: str  # "separable" | "entangled" | "inconclusive"
    witness_kraus: Optional[tuple] = None
    ent_fraction: Optional[float] = None


@dataclass(frozen=True)
class OperationBsa:
    bsa_part: Channel
    ent_part: Channel
    lam: float
    terms: tuple  # of (weight, ProductVector) in the regrouped Choi space
    verdict: SeparabilityVerdict
    certificate: Optional[str] = None  # as in BsaDecomposition


@dataclass(frozen=True)
class _Input:
    """A checked BSA input, from its one ``eigh`` (w, V) with ascending w: the
    Hermitian part ``rho``, the :func:`~choiscope.numerics.range_mask` factor
    ``range`` = (w[keep], V[:, keep]), its projector ``Pi``, the ``floor``
    min(0, w[0]) + ``ASCENT_FLOOR`` and ``shifted`` = (w - floor, V), a factor of
    rho - floor*I.  Built only by ``_check_state``."""

    rho: np.ndarray
    range: tuple
    Pi: np.ndarray
    floor: float
    shifted: tuple


def _check_state(rho, tol: Tolerance, choi_trace: Optional[float] = None,
                 shape: Optional[BipartiteShape] = None) -> _Input:
    """The ``_Input`` of a valid BSA input; with ``choi_trace`` the input is a
    map's regrouped Choi matrix over that trace, a Hermitian gap raises
    ``NotCompletelyPositive`` and the CP floor, in the map's scale, is checked
    first; with ``shape``, a matrix that is not ``shape.dim`` square is
    ``NotAState``.  Each check is :meth:`Tolerance.allows_gap` or
    :meth:`Tolerance.psd_floor`, with an atol of at least ``-RESIDUAL_MIN_EIG``."""
    input_tol = Tolerance(atol=max(-RESIDUAL_MIN_EIG, tol.atol), rtol=tol.rtol)
    try:
        rho = check_hermitian(rho, input_tol)
    except Exception as exc:
        raise (NotAState if choi_trace is None else NotCompletelyPositive)(str(exc)) from exc
    # eigh reads one triangle; the Hermitian part makes rho and rho^dag agree
    rho = (rho + rho.conj().T) / 2.0
    w, V = np.linalg.eigh(rho)
    if choi_trace is not None and choi_trace * w[0] < tol.psd_floor(choi_trace * w):
        raise NotCompletelyPositive("bsa_operation requires a CP map")
    if w[0] < input_tol.psd_floor(w):
        raise NotAState(f"min eigenvalue {w[0]:.3e} below feasibility tolerance")
    if shape is not None and rho.shape != (shape.dim, shape.dim):
        raise NotAState(f"state is {rho.shape}, expected dim {shape.dim}")
    keep = range_mask(w, tol)
    cols = V[:, keep]
    floor = min(0.0, float(w[0])) + ASCENT_FLOOR
    return _Input(rho, (w[keep], cols), cols @ cols.conj().T, floor, (w - floor, V))


def _shifted_factor(M: np.ndarray, floor: float):
    """(w - floor, V) from eigh(M), a factor of M - floor*I, or None if w[0] <= floor."""
    w, V = np.linalg.eigh(M)
    return None if w[0] <= floor else (w - floor, V)


def _project(factor, psi: np.ndarray):
    """(c, inside, a) for a unit psi on a range or shifted factor (w, C) of rho:
    c = C^dag psi, whether psi lies within ``RANGE_TOL`` of span(C), and
    a = <psi| rho^+ |psi> on that span."""
    w, cols = factor
    c = cols.conj().T @ psi
    p = np.abs(c) ** 2
    return c, 1.0 - float(np.sum(p)) <= RANGE_TOL, float(np.sum(p / w))


def _max_lambda_raw(factor, psi: np.ndarray) -> float:
    """Closed-form maximal weight from a range or shifted factor of rho; psi unit."""
    _, inside, a = _project(factor, psi)
    return 1.0 / a if inside and a > 0 else 0.0


def _unit_vector(psi, n: int) -> np.ndarray:
    """psi as a unit complex vector of length n, with typed errors."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != n:
        raise ShapeMismatch(f"vector has length {psi.size}, expected {n}")
    if not np.all(np.isfinite(psi)):
        raise NonFinite("vector has NaN or infinite entries")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ZeroMatrix("zero vector has no direction")
    return psi / norm


def max_lambda(rho, psi, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest Lambda with rho - Lambda |psi><psi| still PSD.

    Zero when psi has a component outside range(rho) beyond tolerance,
    otherwise ``1 / <psi| rho^+ |psi>`` capped at the weight the floor allows.
    """
    inp = _check_state(rho, tol)
    psi = _unit_vector(psi, inp.rho.shape[0])
    return min(_max_lambda_raw(f, psi) for f in (inp.range, inp.shifted))


def max_lambda_bisection(rho, psi, iterations: int = 60,
                         tol: Tolerance = DEFAULT_TOL) -> float:
    """Independent oracle: bisect Lambda on the PSD feasibility predicate."""
    rho = _check_state(rho, tol).rho
    psi = _unit_vector(psi, rho.shape[0])
    P = np.outer(psi, psi.conj())

    # Slack only absorbs eigensolver noise; anything looser biases the
    # bracket upward when the minimal eigenvalue is a flat function of lam.
    slack = 1e-13 * max(1.0, float(np.trace(rho).real))

    def feasible(lam):
        return np.linalg.eigvalsh(rho - lam * P)[0] >= -slack

    lo, hi = 0.0, float(np.trace(rho).real)
    if not feasible(lo):
        return 0.0
    if feasible(hi):
        return hi
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_pair(rho, psi1, psi2, tol: Tolerance = DEFAULT_TOL):
    """Pair of weights maximizing their sum with both subtractions feasible.

    Closed form; see ``_max_pair_raw``.  The optimum on the range factor is
    kept while its residual stays above the floor (``_Input``), otherwise the
    optimum on the shifted factor of rho - floor*I is returned.
    """
    inp = _check_state(rho, tol)
    psi1 = _unit_vector(psi1, inp.rho.shape[0])
    psi2 = _unit_vector(psi2, inp.rho.shape[0])
    if abs(np.vdot(psi1, psi2)) ** 2 > 1.0 - 1e-12:
        raise InvalidArgument("max_pair requires psi1 and psi2 to be distinct projectors")
    l1, l2 = _max_pair_raw(inp.range, psi1, psi2)
    sigma = l1 * np.outer(psi1, psi1.conj()) + l2 * np.outer(psi2, psi2.conj())
    if _psd_scale(inp.shifted, sigma) == 1.0:
        return l1, l2
    return _max_pair_raw(inp.shifted, psi1, psi2)


def _max_pair_raw(factor, psi1, psi2):
    """max l1 + l2 with rho - l1*P1 - l2*P2 PSD, from the ``_Input.range`` or
    a ``_shifted_factor`` factor of rho; psi1, psi2 unit.

    On the factor's span the constraint is a 2x2 condition on a = <1|rho^+|1>,
    b = <2|rho^+|2> and c = |<1|rho^+|2>|, so the optimum is the best of
    (0, 0), (1/a, 0), (0, 1/b) and, when both are positive, the stationary
    point ((b - c)/d, (a - c)/d), d = ab - c^2, where the 2x2 determinant is
    0.  A vector more than ``RANGE_TOL`` outside the span gets weight 0.
    """
    c1, in1, a = _project(factor, psi1)
    c2, in2, b = _project(factor, psi2)
    points = [(0.0, 0.0)]
    if in1:
        points.append((1.0 / a, 0.0))
    if in2:
        points.append((0.0, 1.0 / b))
    c = abs(np.sum(c1.conj() * c2 / factor[0]))
    d = a * b - c * c
    if in1 and in2 and d > 1e-12 * a * b and a > c and b > c:
        points.append(((b - c) / d, (a - c) / d))
    return max(points, key=sum)


def _best_product_overlaps(B4, e, f, iters=80, pick=-1):
    """Alternating eigenvector iterations on <e f|B|e f> for a fixed B.

    ``B4`` is the Hermitian matrix B reshaped to (u, m, v, n) axes; ``e``
    and ``f`` stack one start per row.  Each round replaces e, then f, by
    the eigenvector in column ``pick`` of the reduced matrix: ``-1``
    maximizes the value, ``0`` minimizes it.  Each row stops on its own
    once its value changes by less than 1e-13, or after ``iters`` rounds.
    """
    e, f = e.copy(), f.copy()
    value = np.full(len(e), np.inf)
    active = np.arange(len(e))
    for _ in range(iters):
        fa = f[active]
        M = np.einsum("bu,umvn,bv->bmn", fa.conj(), B4, fa)
        _, Ve = np.linalg.eigh((M + M.conj().transpose(0, 2, 1)) / 2.0)
        ea = Ve[:, :, pick]
        M = np.einsum("bm,umvn,bn->buv", ea.conj(), B4, ea)
        wf, Vf = np.linalg.eigh((M + M.conj().transpose(0, 2, 1)) / 2.0)
        e[active] = ea
        f[active] = Vf[:, :, pick]
        new = wf[:, pick]
        converged = np.abs(new - value[active]) < 1e-13
        value[active] = new
        active = active[~converged]
        if not active.size:
            break
    return e, f, value


def _realignment_excludes_products(Pi: np.ndarray, shape: BipartiteShape) -> bool:
    """True when no unit product vector reaches ``PRODUCT_OVERLAP`` in Pi.

    With ``a = vec(e e^dag)`` and ``b = vec(f f^dag)``, both of unit norm,
    ``<e f|Pi|e f> = a^T R(Pi) b <= sigma_max(R(Pi))`` by Cauchy-Schwarz
    (the realignment or cross-norm bound).
    """
    s = np.linalg.svd(realign(Pi, shape), compute_uv=False)
    return bool(s[0] < PRODUCT_OVERLAP - OVERLAP_ROUNDING)


def _symmetric_extension_bound(cols: np.ndarray, shape: BipartiteShape) -> float:
    """lambda_max of Pi (x) I compressed to A (x) Sym^2(B), B the larger party.

    ``cols`` (r columns) is an orthonormal basis of range(Pi).  With
    ``C[w, m, a]`` the entry of column a at B index w and A index m, the
    value is ``(1 + lambda_max(K)) / 2`` for the (r d_B)^2 Hermitian
    ``K[(a, w), (b, z)] = sum_m conj(C[z, m, a]) C[w, m, b]``.  When
    d_A > d_B the parties swap roles.  See ``_product_free_certificate``.
    """
    r = cols.shape[1]
    C = cols.reshape(shape.d_B, shape.d_A, r)
    if shape.d_A > shape.d_B:
        C = C.transpose(1, 0, 2)
    d = C.shape[0]
    K = np.einsum("zma,wmb->awbz", C.conj(), C).reshape(r * d, r * d)
    return (1.0 + float(np.linalg.eigvalsh(K)[-1])) / 2.0


def _product_free_certificate(cols: np.ndarray, Pi: np.ndarray,
                              shape: BipartiteShape) -> Optional[str]:
    """Name of a bound proving range(cols) holds no product vector, or None.

    ``cols`` is an orthonormal basis of the range (the ``_Input.range``
    columns) and ``Pi`` its projector.  A full range is never excluded.

    Level 1, ``"realignment"``: ``_realignment_excludes_products``.

    Level 2, ``"symmetric_extension"``: ``_symmetric_extension_bound``
    below ``PRODUCT_OVERLAP - OVERLAP_ROUNDING``; the first level of the
    symmetric-extension hierarchy (Doherty, Parrilo & Spedalieri, PRA 69,
    022308 (2004)) applied to Pi.  Proof, for d_B >= d_A: for unit e, f
    the vector x = (e f) (x) f of A (x) B (x) B is unit and symmetric in
    the two copies of B, so it lies in A (x) Sym^2(B), and
    ``<e f|Pi|e f> = <x|Pi (x) I|x>``.  With S the isometry onto
    A (x) Sym^2(B), that is at most lambda_max(S^dag (Pi (x) I) S).  Write
    Pi (x) I = V V^dag, V the isometry with columns c_a (x) |w>, and
    P = (I + F)/2 for the projector onto A (x) Sym^2(B), F the swap of
    the two copies of B.  P V V^dag P and V^dag P V = (I + V^dag F V)/2
    share their nonzero eigenvalues, and V^dag F V is the K of
    ``_symmetric_extension_bound``.

    Level 2 runs only while r <= d_small (d_big - 1) / 2.  Beyond that,
    range(Pi) (x) C^d_big, of dimension r d_big, and A (x) Sym^2(B), of
    dimension d_small d_big (d_big + 1) / 2, have dimensions summing to
    more than d_small d_big^2, so they intersect and the bound is 1.
    """
    r = cols.shape[1]
    if r == shape.dim:
        return None
    if _realignment_excludes_products(Pi, shape):
        return "realignment"
    d_small, d_big = sorted((shape.d_A, shape.d_B))
    if 2 * r > d_small * (d_big - 1):
        return None
    if _symmetric_extension_bound(cols, shape) < PRODUCT_OVERLAP - OVERLAP_ROUNDING:
        return "symmetric_extension"
    return None


def candidate_products(rho, shape: BipartiteShape, count: int, seed: int,
                       tol: Tolerance = DEFAULT_TOL,
                       max_attempts: Optional[int] = None) -> list[ProductVector]:
    """Seeded product vectors (approximately) inside range(rho).

    Random product vectors already in the range are kept directly; the
    rest are locally optimized toward the range by alternating power
    iterations and kept if the final overlap reaches ``PRODUCT_OVERLAP``.
    Near-duplicates are dropped.

    When ``_product_free_certificate`` proves that no product vector can
    reach that overlap, the search returns ``[]`` without drawing.
    Otherwise see ``_search_products``; ``max_attempts`` defaults to
    ``40 * count``.
    """
    check_index(seed, "seed")
    inp = _check_state(rho, tol, shape=shape)
    cols = inp.range[1]
    if count > 0 and _product_free_certificate(cols, inp.Pi, shape) is not None:
        return []
    return _search_products(cols, inp.Pi, shape, count, seed, max_attempts)


def _search_products(cols: np.ndarray, Pi: np.ndarray, shape: BipartiteShape,
                     count: int, seed: int,
                     max_attempts: Optional[int] = None) -> list[ProductVector]:
    """The search of ``candidate_products`` on a range basis and its projector.

    Attempts are drawn and optimized in blocks: first the number still
    needed, then doubling while blocks keep vectors, then, after a block
    that keeps none, every attempt left under the cap at once.  They are
    accepted in attempt order, so the result is that of one attempt at a
    time.
    """
    rng = np.random.default_rng(seed)
    full_range = cols.shape[1] == shape.dim
    dA, dB = shape.d_A, shape.d_B
    Pi4 = _blocks(Pi, shape)
    kept: list[ProductVector] = []
    kept_vecs = np.empty((max(count, 0), shape.dim), dtype=complex)
    attempts, block = 0, count
    cap = max_attempts if max_attempts is not None else 40 * count
    while len(kept) < count and attempts < cap:
        block = min(block, cap - attempts)
        attempts += block
        # one row per attempt: [Re e, Im e, Re f, Im f], the order in
        # which a single attempt draws them
        x = rng.normal(size=(block, 2 * (dA + dB)))
        e = x[:, :dA] + 1j * x[:, dA:2 * dA]
        f = x[:, 2 * dA:2 * dA + dB] + 1j * x[:, 2 * dA + dB:]
        for i in range(block):
            e[i] /= np.linalg.norm(e[i])
            f[i] /= np.linalg.norm(f[i])
        ok = np.ones(block, dtype=bool)
        if not full_range:
            vs = (f[:, :, None] * e[:, None, :]).reshape(block, -1)
            overlap = np.einsum("bi,ij,bj->b", vs.conj(), Pi, vs).real
            out = np.flatnonzero(overlap < 1.0 - RANGE_TOL)
            if out.size:
                e[out], f[out], overlap[out] = _best_product_overlaps(
                    Pi4, e[out], f[out])
                ok[out] = overlap[out] >= PRODUCT_OVERLAP
        n_before = len(kept)
        for i in np.flatnonzero(ok):
            v = tensor_vectors(e[i], f[i])
            n = len(kept)
            if n and np.max(np.abs(kept_vecs[:n] @ v.conj())) ** 2 > 1.0 - 1e-8:
                continue
            kept.append(ProductVector(e[i], f[i]))
            kept_vecs[n] = v
            if len(kept) == count:
                break
        block = attempts if len(kept) > n_before else cap - attempts
    return kept


def _assemble(rho, lambdas, V, residual, certificate=None) -> BsaDecomposition:
    """The decomposition weighing the projectors of ``V`` by ``lambdas``, over all
    ``len(V)`` candidates; every ``BsaDecomposition`` is built here."""
    total = float(np.sum(lambdas))
    sep = np.zeros(rho.shape, dtype=complex)
    if total > 0:
        for lam, pv in zip(lambdas, V):
            if lam > 0:
                sep += lam * pv.projector
        sep /= total
    terms = tuple((float(lam), pv) for lam, pv in zip(lambdas, V) if lam > KEPT_TERM)
    return BsaDecomposition(lambda_total=total, terms=terms,
                            separable_part=sep, residual=residual,
                            candidate_set_size=len(V), certificate=certificate)


def _residual(rho, lambdas, projs) -> np.ndarray:
    """rho minus the positively weighted projectors, summed from scratch."""
    delta = rho.astype(complex)
    for lam, P in zip(lambdas, projs):
        if lam > 0:
            delta -= lam * P
    return delta


def _ascend(inp, V, lambdas, shape, rng, max_sweeps=500,
            sweep_tol=1e-9, vector_update=False, trace=None):
    """Coordinate-ascent engine over product projectors.

    Sweeps single-projector weight updates, then a random subset of
    projector-pair updates, optionally re-optimizing the product vectors
    of weighted terms in place.  Each update reads the ``_shifted_factor`` at
    the input's floor (``_Input``), or is skipped, so the residual stays above
    floor*I.  The total weight is nondecreasing.  Mutates ``V`` and
    ``lambdas``; returns the residual and whether the sweeps converged.
    """
    rho, floor = inp.rho, inp.floor
    vecs = [pv.vector for pv in V]
    projs = [np.outer(v, v.conj()) for v in vecs]
    delta = _residual(rho, lambdas, projs)
    total = float(np.sum(lambdas))
    for sweep in range(max_sweeps):
        for a in range(len(V)):
            rho_a = delta + lambdas[a] * projs[a]
            factor = _shifted_factor(rho_a, floor)
            if factor is None:
                continue
            if vector_update and lambdas[a] > WEIGHTED_TERM:
                improved = _improve_term(factor, V[a], shape)
                if _max_lambda_raw(factor, improved.vector) > lambdas[a]:
                    V[a] = improved
                    vecs[a] = improved.vector
                    projs[a] = improved.projector
            new = _max_lambda_raw(factor, vecs[a])
            if new > lambdas[a]:
                delta = rho_a - new * projs[a]
                lambdas[a] = new
        if len(V) > 1:
            weighted = np.flatnonzero(lambdas > WEIGHTED_TERM)
            for k in range(min(len(V), PAIR_CAP)):
                # half the draws pair a weighted term with a random partner,
                # otherwise weight can't migrate off a small support set
                if weighted.size and k % 2 == 0:
                    a = int(rng.choice(weighted))
                    b = int(rng.integers(len(V)))
                    if a == b:
                        continue
                else:
                    a, b = rng.choice(len(V), size=2, replace=False)
                rho_ab = delta + lambdas[a] * projs[a] + lambdas[b] * projs[b]
                factor = _shifted_factor(rho_ab, floor)
                if factor is None:
                    continue
                l1, l2 = _max_pair_raw(factor, vecs[a], vecs[b])
                if l1 + l2 > lambdas[a] + lambdas[b]:
                    delta = rho_ab - l1 * projs[a] - l2 * projs[b]
                    lambdas[a], lambdas[b] = l1, l2
        # refresh the residual from scratch to stop error accumulation
        delta = _residual(rho, lambdas, projs)
        new_total = float(np.sum(lambdas))
        if trace is not None:
            trace.append(new_total)
        if new_total - total < sweep_tol:
            return delta, True
        total = new_total
    return delta, False


def _psd_scale(shifted, sigma) -> float:
    """Largest t in [0, 1] with rho - t*sigma >= floor*I, given the ``_Input``
    factor (S, V) of rho - floor*I: t*lambda_max(S^-1/2 V^dag sigma V S^-1/2) <= 1."""
    B = shifted[1] / np.sqrt(shifted[0])
    return 1.0 / max(1.0, float(np.linalg.eigvalsh(B.conj().T @ sigma @ B)[-1]))


def _fixed_set_weights(inp, vecs, X) -> np.ndarray:
    """Optimal weights for the fixed projector set of the rows v_k of ``vecs``.

    max sum(w) subject to rho - sum w_k v_k v_k^dag PSD, w >= 0 is convex.  With
    (l, C) = ``inp.range``, L = diag(l) and the rows x_k = C^dag v_k of ``X``, its
    dual is min tr(Y L) over Y >= 0 with x_k^dag Y x_k >= 1.  Damped Newton on the
    barrier tr(Y L) - mu log det Y - mu sum log s_k, s_k = x_k^dag Y x_k - 1, over
    the r^2 real coordinates of a Hermitian Y, follows the central path, where
    w_k = mu / s_k and L - sum w_k x_k x_k^dag = mu Y^-1 >= 0.  The slacks are carried
    through the steps: x_k^dag Y x_k - 1 would lose their relative precision as they
    fall towards mu / w_k.  The start is L^-1, scaled so that every slack is >= 1.
    Weights below 10 mu (inactive constraints) are zeroed, and the rest scaled by
    ``_psd_scale`` onto rho - sigma >= floor*I.
    """
    lam = inp.range[0]
    r = lam.size
    # an orthonormal basis B_a of the Hermitian r x r matrices: Y = sum_a y_a B_a
    B = np.zeros((r * r, r, r), dtype=complex)
    for a, (i, j) in enumerate(np.ndindex(r, r)):
        z = 1.0 if i == j else (1.0 if i < j else 1j) / np.sqrt(2)
        B[a, i, j], B[a, j, i] = z, np.conj(z)
    Q = np.einsum("ki,aij,kj->ka", X.conj(), B, X).real  # (Q y)_k = x_k^dag Y x_k
    c = np.einsum("aii,i->a", B, lam).real  # c y = tr(Y L)
    y = np.einsum("aii,i->a", B, 1.0 / lam).real  # Y = L^-1
    y *= 2.0 / np.min(Q @ y)
    s = Q @ y - 1.0
    mu = 1.0
    while mu >= DUAL_MU_MIN:
        for _ in range(DUAL_STEPS):
            ZB = np.linalg.inv(np.tensordot(y, B, 1)) @ B  # Z B_a, Z = Y^-1
            g = c - mu * np.einsum("aii->a", ZB).real - mu * (Q.T @ (1.0 / s))
            H1 = ZB.reshape(r * r, -1) @ ZB.transpose(0, 2, 1).reshape(r * r, -1).T
            H = mu * H1.real + mu * (Q.T / s ** 2) @ Q  # H1_ab = tr(Z B_a Z B_b)
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:  # H can be singular to rounding at small mu
                step = np.linalg.lstsq(H, -g, rcond=None)[0]
            ds, t = Q @ step, 1.0
            while (np.linalg.eigvalsh(np.tensordot(y + t * step, B, 1))[0] <= 0
                   or np.min(s + t * ds) <= 0):
                t /= 2
            y, s = y + t * step, s + t * ds
            if -(g @ step) <= DUAL_DECREMENT:
                break
        w = mu / s
        w[w < 10 * mu] = 0.0
        mu /= 10
    return w * _psd_scale(inp.shifted, (vecs.T * w) @ vecs.conj())


def osa_fixed_set(rho, V: Sequence[ProductVector],
                  tol: Tolerance = DEFAULT_TOL,
                  max_sweeps: int = 500, sweep_tol: float = 1e-9,
                  seed: int = 0,
                  trace: Optional[list] = None) -> BsaDecomposition:
    """Optimal separable approximation over a fixed product-vector set.

    The weights solve the convex fixed-set problem exactly, by Newton's method
    on its dual (``_fixed_set_weights``); sweeps of single-projector and random
    projector-pair updates then run until the total subtracted weight stalls.
    The total is nondecreasing across sweeps, the residual stays above the
    input's floor, and ``seed`` draws only the pairs.
    """
    check_index(seed, "seed")
    inp = _check_state(rho, tol)
    rho = inp.rho
    V = list(V)
    if any(pv.e.size * pv.f.size != rho.shape[0] for pv in V):
        raise ShapeMismatch(f"candidates must have the state's dimension {rho.shape[0]}")
    if not V:
        return _assemble(rho, [], [], rho.astype(complex))
    vecs = np.array([pv.vector for pv in V])
    X = vecs @ inp.range[1].conj()  # rows C^dag v_k, of squared norm <v_k|Pi|v_k>
    if np.min(np.sum(np.abs(X) ** 2, axis=1)) < PRODUCT_OVERLAP:
        raise CandidateOutsideRange("candidate outside range of rho")
    lambdas = _fixed_set_weights(inp, vecs, X)
    delta, converged = _ascend(inp, V, lambdas, None, np.random.default_rng(seed),
                               max_sweeps=max_sweeps, sweep_tol=sweep_tol,
                               vector_update=False, trace=trace)
    result = _assemble(rho, lambdas, V, delta)
    if not converged:
        raise NonConvergence("sweep cap hit while still improving", best=result)
    return result


def _schmidt_factors(v: np.ndarray, shape: BipartiteShape, tol: Tolerance):
    """(e, f) if the bipartite vector is a product, else None."""
    M = devectorize(v, shape.d_A, shape.d_B)  # M[m, u]
    U, s, Vh = np.linalg.svd(M)
    if tol.rank(s) > 1:
        return None
    # M = outer(e, f) = e f^T; numpy's Vh row is already f up to phase
    return U[:, 0], Vh[0, :]


def _barrier_terms(inp, shape: BipartiteShape, K: int, rng,
                   init_terms=()) -> list:
    """Weighted product directions from a log-det barrier ascent.

    Maximizes tr(sigma) over sigma = sum_k |a_k b_k><a_k b_k| subject to
    rho - sigma PSD, via L-BFGS on tr(sigma) + mu*log det(rho - sigma + eps)
    along a decreasing (mu, eps) schedule, each stage warm-started from the
    last.  Used to re-seed the coordinate ascent near high-weight directions;
    the output is only a proposal, feasibility is re-certified downstream.
    """
    from scipy.optimize import minimize

    dA, dB, d = shape.d_A, shape.d_B, shape.dim
    n, m = K * dA, K * dB

    def unpack(x):
        a = (x[:n] + 1j * x[n:2 * n]).reshape(K, dA)
        b = (x[2 * n:2 * n + m] + 1j * x[2 * n + m:]).reshape(K, dB)
        return a, b

    def objective(x, mu, eps):
        a, b = unpack(x)
        vs = np.einsum("ku,km->kum", b, a).reshape(K, d)
        sigma = np.einsum("ki,kj->ij", vs, vs.conj())
        ev, Q = np.linalg.eigh(inp.rho - sigma + eps * np.eye(d))
        if ev[0] <= 0:
            return 1e6 * (1.0 - ev[0]), np.zeros_like(x)
        F = float(np.trace(sigma).real) + mu * float(np.sum(np.log(ev)))
        gv = 2.0 * np.einsum("ij,kj->ki", np.eye(d) - mu * ((Q / ev) @ Q.conj().T), vs)
        gv3 = gv.reshape(K, dB, dA)
        ga = np.einsum("kum,ku->km", gv3, b.conj())
        gb = np.einsum("kum,km->ku", gv3, a.conj())
        return -F, -np.concatenate([ga.real.ravel(), ga.imag.ravel(),
                                    gb.real.ravel(), gb.imag.ravel()])

    a0 = 0.05 * (rng.normal(size=(K, dA)) + 1j * rng.normal(size=(K, dA)))
    b0 = 0.05 * (rng.normal(size=(K, dB)) + 1j * rng.normal(size=(K, dB)))
    for k, (lam, pv) in enumerate(init_terms[:K]):
        scale = (0.8 * max(lam, 0.0)) ** 0.25
        a0[k] = scale * pv.e
        b0[k] = scale * pv.f
    x = np.concatenate([a0.real.ravel(), a0.imag.ravel(),
                        b0.real.ravel(), b0.imag.ravel()])
    for mu, eps in [(1e-2, 1e-3), (1e-3, 1e-4), (1e-4, 1e-5),
                    (1e-5, 1e-6), (1e-6, 1e-8)]:
        x = minimize(objective, x, args=(mu, eps), jac=True,
                     method="L-BFGS-B", options={"maxiter": 300}).x
    a, b = unpack(x)
    weights = (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)) ** 2
    terms = [(float(w), ProductVector(a[k], b[k]))
             for k, w in enumerate(weights) if w > KEPT_TERM]
    if not terms:
        return []
    # global rescale onto rho - sigma >= floor*I
    t = _psd_scale(inp.shifted, sum(w * pv.projector for w, pv in terms))
    return [(w * t, pv) for w, pv in terms]


def _improve_term(factor, pv: ProductVector, shape: BipartiteShape) -> ProductVector:
    """Maximize the subtractable weight of one product direction.

    Minimizes ``<e f| (rho_a - floor)^-1 |e f>`` over product vectors,
    given the ``_shifted_factor`` of ``rho_a``, which spans the whole space.
    """
    w, cols = factor
    B4 = _blocks((cols / w) @ cols.conj().T, shape)
    e, f, _ = _best_product_overlaps(B4, pv.e[None], pv.f[None], iters=40,
                                     pick=0)
    return ProductVector(e[0], f[0])


def bsa_state(rho, shape: BipartiteShape, budget: int = 500,
              seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> BsaDecomposition:
    """Best separable approximation of a normalized bipartite state.

    Candidate generation plus coordinate ascent, with refinement rounds
    that re-seed near the high-weight directions; returns a certified
    lower bound (the residual is always PSD within tolerance, optimality
    is best-effort).

    A pure state is decided by its Schmidt rank.  Otherwise, when
    ``_product_free_certificate`` proves that range(rho) holds no product
    vector, Lambda = 0 is optimal and the result, with no terms and the
    residual rho itself, names that certificate; nothing is searched or
    seeded.  Budget 0 gives that result without a certificate.
    """
    check_index(budget, "budget")
    check_index(seed, "seed")
    inp = _check_state(rho, tol, shape=shape)
    if abs(np.trace(inp.rho).real - 1.0) > UNIT_TRACE_TOL:
        raise NotAState("bsa_state expects a normalized (trace-1) state")
    return _bsa_state(inp, shape, budget, seed, tol)


def _bsa_state(inp, shape, budget, seed, tol) -> BsaDecomposition:
    """The BSA of ``bsa_state`` on a checked state (``_check_state``)."""
    rho = inp.rho
    w, cols = inp.range
    if w.size == 1:
        # pure state: Lambda is 1 for a product vector, 0 otherwise
        factors = _schmidt_factors(cols[:, 0], shape, tol)
        if factors is None:
            return _assemble(rho, [], [], rho.astype(complex))
        return _assemble(rho, [1.0], [ProductVector(*factors)], np.zeros_like(rho))
    certificate = _product_free_certificate(cols, inp.Pi, shape)
    if certificate is not None or budget == 0:
        return _assemble(rho, [], [], rho.astype(complex), certificate)
    rng = np.random.default_rng(seed)
    V = _search_products(cols, inp.Pi, shape, budget, int(rng.integers(1 << 31)))
    lambdas = np.zeros(len(V))
    # looser sweep settings than the certifying fixed-set solver: the
    # refinement rounds below recover far more than late-sweep noise gains
    delta, _ = _ascend(inp, V, lambdas, shape, rng,
                       max_sweeps=150, sweep_tol=1e-8)
    best = (list(V), np.asarray(lambdas).copy(), delta)
    history = [float(np.sum(lambdas))]
    K = min(budget, max(4 * shape.dim, 16))
    for _ in range(MAX_ROUNDS):
        if history[-1] >= 1.0 - 1e-9:
            break
        # re-seed near the current high-weight directions, re-run, keep best
        V_b, lam_b, _ = best
        seeds = sorted(((lam_b[i], V_b[i]) for i in range(len(V_b))
                        if lam_b[i] > WEIGHTED_TERM), key=lambda t: -t[0])
        proposal = _barrier_terms(inp, shape, K, rng, seeds)
        V2 = [pv for _, pv in proposal]
        lam2 = np.array([w for w, _ in proposal])
        fill = _search_products(cols, inp.Pi, shape, max(0, budget - len(V2)),
                                int(rng.integers(1 << 31)),
                                max_attempts=8 * budget)
        V2 += fill
        lam2 = np.concatenate([lam2, np.zeros(len(fill))])
        if len(V2) == 0:
            break
        delta2, _ = _ascend(inp, V2, lam2, shape, rng, vector_update=True,
                            max_sweeps=60, sweep_tol=1e-8)
        if float(np.sum(lam2)) > float(np.sum(best[1])):
            best = (list(V2), lam2.copy(), delta2)
        history.append(float(np.sum(best[1])))
        if len(history) >= 4 and history[-1] - history[-4] < STALL_TOL:
            break
    V_b, lam_b, delta_b = best
    return _assemble(rho, lam_b, V_b, delta_b)


def bipartite_choi(operators: Sequence[np.ndarray], d: int,
                   normalized: bool = False) -> np.ndarray:
    """Choi operator of a bipartite map in subsystem-grouped index order.

    ``E = sum_k w_k w_k^dag`` with ``w_k`` the subsystem-grouped
    vectorization of the Kraus operator; ``normalized`` divides by d^2
    so E is the literal image of normalized maximally entangled
    projectors.  The set is checked as in ``kraus_to_liouville``: an
    empty or ragged set raises ``ShapeMismatch``.
    """
    n = d * d
    K = _kraus_stack(operators)
    if K.shape[1:] != (n, n):
        raise DimensionMismatch(f"Kraus operator is {K.shape[1:]}, expected {(n, n)}")
    # w_k is vectorize(M_k) with its middle factors swapped: entry
    # (c1, r1, c0, r0) is M_k[(r1, r0), (c1, c0)].  Rows of W are the w_k,
    # so sum_k w_k w_k^dag = W^t W^*
    W = K.reshape(len(K), d, d, d, d).transpose(0, 3, 1, 4, 2).reshape(len(K), n * n)
    E = W.T @ W.conj()
    return E / (d * d) if normalized else E


def kraus_factor_split(operators: Sequence[np.ndarray], shape: BipartiteShape,
                       tol: Tolerance = DEFAULT_TOL):
    """Partition Kraus operators into product (A (x) B) and non-product sets."""
    product, rest = [], []
    for M in operators:
        try:  # product_factorize checks M
            is_product = product_factorize(M, shape, tol) is not None
        except ZeroMatrix:
            is_product = True
        (product if is_product else rest).append(np.asarray(M, dtype=complex))
    return product, rest


def bsa_operation(channel: Channel, d: int, budget: int = 500,
                  seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> OperationBsa:
    """BSA of a CP map on a d (x) d bipartite system via its Choi matrix."""
    check_index(budget, "budget")
    check_index(seed, "seed")
    n = d * d
    if channel.d_in != n or channel.d_out != n:
        raise DimensionMismatch(
            f"expected a channel on a {d}x{d} bipartite system, got "
            f"{channel.d_in} -> {channel.d_out}")
    D = channel.choi
    E = _regroup(D, d)
    trace = float(np.trace(E).real)
    if trace <= 0:
        raise NotCompletelyPositive("zero map has no BSA")
    inp = _check_state(E / trace, tol, trace)
    dec = _bsa_state(inp, BipartiteShape(n, n), budget, seed, tol)
    kraus = [np.sqrt(trace * lam) * tensor(devectorize(pv.e, d, d),
                                           devectorize(pv.f, d, d))
             for lam, pv in dec.terms]
    bsa_part = Channel.from_kraus(kraus or [np.zeros((n, n))])
    ent_part = Channel.from_choi(D - bsa_part.choi, n, n)
    verdict = _verdict(D, bsa_part, ent_part, dec.lambda_total, inp.range[0].size)
    return OperationBsa(bsa_part=bsa_part, ent_part=ent_part,
                        lam=dec.lambda_total, terms=dec.terms,
                        verdict=verdict, certificate=dec.certificate)


def _verdict(D, bsa_part: Channel, ent_part: Channel, lam: float,
             rank: int) -> SeparabilityVerdict:
    """Separability verdict from a map's Choi matrix and its BSA split.

    Separable when the entangled remainder is numerically zero; entangled
    when ``lam`` is 0 and ``rank``, the dimension of the range the BSA cut
    from the regrouped D over its trace, is 1: the BSA took
    its pure-state branch then, and found the spanning vector non-product,
    since a product one gives ``lam = 1``.  Inconclusive otherwise.  For
    ``lam > 0`` a rank-one entangled residual proves nothing: a separable
    input can split into a separable part and an entangled pure residual.
    """
    norm_D = float(np.linalg.norm(D))
    norm_ent = float(np.linalg.norm(ent_part.choi))
    if norm_ent <= SEPARABLE_REMAINDER * norm_D:
        return SeparabilityVerdict("separable", witness_kraus=tuple(bsa_part.kraus))
    entangled = lam == 0.0 and rank == 1
    return SeparabilityVerdict("entangled" if entangled else "inconclusive",
                               ent_fraction=norm_ent / norm_D)


def is_separable_operation(channel: Channel, d: int, budget: int = 500,
                           seed: int = 0,
                           tol: Tolerance = DEFAULT_TOL) -> SeparabilityVerdict:
    """Semi-decision procedure for separability of a bipartite CP map.

    The verdict of :func:`bsa_operation` (see ``OperationBsa.verdict``).
    """
    return bsa_operation(channel, d, budget=budget, seed=seed, tol=tol).verdict
