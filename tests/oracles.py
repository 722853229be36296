"""Independent oracles for the tests.

Each function here computes a library result by a second route: a
direct sum over basis elements, an explicit identity, or the reference
loop or closed form that a merged library helper must agree with.
"""

import json
import math
from typing import Sequence

import numpy as np

from choiscope.channels import (Channel, ValidationReport,
                                _middle_swapped_product, apply,
                                tensor_channels)
from choiscope.errors import (ChoiscopeError, NotCompletelyPositive,
                              ParseError, ShapeMismatch)
from choiscope.numerics import (DEFAULT_TOL, Tolerance, as_matrix,
                                check_hermitian, eig_hermitian, hs_inner)
from choiscope.reshape import (BipartiteShape, devectorize, middle_swap,
                               partial_trace_A, realign, swap_operator, tensor,
                               tensor_vectors, vectorize)
from choiscope.superop_space import (OperatorBasis, delta_liouville,
                                     theta_liouville)


def realign_sandwich(Z, shape: BipartiteShape) -> np.ndarray:
    """Independent evaluation of R via sum_ij (I(x)|i><j|) Z (|i><j|(x)I).

    Square shapes only; used as an oracle against ``realign``.
    """
    shape.require_square_subsystems()
    Z = as_matrix(Z)
    N = shape.d_A
    I = np.eye(N)
    out = np.zeros_like(Z)
    for i in range(N):
        for j in range(N):
            Eij = np.zeros((N, N))
            Eij[i, j] = 1.0
            out += tensor(I, Eij) @ Z @ tensor(Eij, I)
    return out


def tensor_vec_identity_check(X, Y, atol: float = 1e-10) -> bool:
    """Check |X(x)Y>> == (I(x)S(x)I)(|X>> (x) |Y>>) for square X, Y."""
    X = as_matrix(X)
    Y = as_matrix(Y)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ShapeMismatch("X and Y must be square and of equal size")
    N = X.shape[0]
    lhs = vectorize(tensor(X, Y))
    rhs = middle_swap(N) @ tensor_vectors(vectorize(X), vectorize(Y))
    return float(np.max(np.abs(lhs - rhs))) <= atol


def realign_image_identity_check(phi: Channel, psi: Channel, rho,
                                 atol: float = 1e-9) -> bool:
    """Check R(sigma) = L_phi R(rho) L_psi^t for sigma = (phi (x) psi)(rho)."""
    N = phi.d_in
    sh = BipartiteShape(N, N)
    rho = as_matrix(rho)
    sigma = apply(tensor_channels(phi, psi), rho, route="liouville")
    lhs = realign(sigma, sh)
    rhs = phi.liouville @ realign(rho, sh) @ psi.liouville.T
    return float(np.max(np.abs(lhs - rhs))) <= atol


def choi_from_definition(operators: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix by direct evaluation of (phi (x) id)(|I>><<I|).

    Builds ``sum_{uv} phi(|u><v|) (x) |u><v|`` from the Kraus action; an
    independent oracle for the ``D = R(L)`` convention.
    """
    ops = [as_matrix(G) for G in operators]
    d_out, d_in = ops[0].shape
    D = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for u in range(d_in):
        for v in range(d_in):
            E = np.zeros((d_in, d_in), dtype=complex)
            E[u, v] = 1.0
            image = np.zeros((d_out, d_out), dtype=complex)
            for G in ops:
                image += G @ E @ G.conj().T
            D += tensor(image, E)
    return D


def choi_from_kraus_vectors(operators: Sequence[np.ndarray]) -> np.ndarray:
    """D = sum_j vec(G_j) vec(G_j)^dag with numpy alone.

    ``vec`` stacks columns, so entry ``u * d_out + m`` of vec(G) is
    ``G[m, u]``; an oracle for the operator-sum invariant of ``Channel``.
    """
    D = 0
    for G in operators:
        v = np.asarray(G, dtype=complex).reshape(-1, order="F")
        D = D + np.outer(v, v.conj())
    return D


def kraus_to_liouville_loop(operators: Sequence[np.ndarray]) -> np.ndarray:
    """L = sum_j G_j (x) G_j^*, one kron per operator added to zeros."""
    ops = [as_matrix(G) for G in operators]
    if not ops:
        raise ShapeMismatch("empty Kraus set")
    if any(G.shape != ops[0].shape for G in ops):
        raise ShapeMismatch("Kraus operators differ in shape")
    d_out, d_in = ops[0].shape
    L = np.zeros((d_out ** 2, d_in ** 2), dtype=complex)
    for G in ops:
        L += tensor(G, G.conj())
    return L


def apply_kraus_loop(operators: Sequence[np.ndarray], rho) -> np.ndarray:
    """sum_j G_j rho G_j^dag, one image per operator added to zeros."""
    ops = [as_matrix(G) for G in operators]
    d_out = ops[0].shape[0]
    out = np.zeros((d_out, d_out), dtype=complex)
    for G in ops:
        out += G @ as_matrix(rho) @ G.conj().T
    return out


def choi_to_kraus_loop(D, d_in: int, d_out: int,
                       tol: Tolerance = DEFAULT_TOL) -> list:
    """Kraus operators of a PSD Choi matrix, one eigenvector at a time."""
    w, V = eig_hermitian(D, tol)
    floor = tol.atol + tol.rtol * max(-w[0], w[-1])
    if w[0] < -floor:
        raise NotCompletelyPositive(
            f"Choi matrix has eigenvalue {w[0]:.3e} < -(atol + rtol * max|w|) = {-floor:.3e}")
    ops = []
    for k in range(w.size - 1, -1, -1):
        if w[k] > floor:
            ops.append(devectorize(np.sqrt(w[k]) * V[:, k], d_out, d_in))
    if not ops:
        ops.append(np.zeros((d_out, d_in), dtype=complex))
    return ops


def tensor_choi_broadcast(phi: Channel, psi: Channel) -> np.ndarray:
    """D of ``phi (x) psi`` as one broadcast of the factors' Choi matrices.

    The realignment commutes with the middle-swapped product, so each
    entry of D is the same single product of a ``psi.choi`` and a
    ``phi.choi`` entry that realigning the product's L gives.
    """
    return _middle_swapped_product(psi.choi, phi.choi,
                                   (psi.d_in, psi.d_out, psi.d_in, psi.d_out),
                                   (phi.d_in, phi.d_out, phi.d_in, phi.d_out))


def inspect_state_report(rho, tol: Tolerance = DEFAULT_TOL) -> dict:
    """The four state fields of ``choiscope inspect``, checked inline: a
    ``check_hermitian`` that may raise, then the spectrum of the Hermitian
    part with the PSD floor written out."""
    ok = True
    try:
        check_hermitian(rho, tol)
    except ChoiscopeError:
        ok = False
    w = np.linalg.eigh((rho + rho.conj().T) / 2.0)[0]
    return {
        "hermitian": ok,
        "min_eigenvalue": float(w[0]),
        "trace": float(np.trace(rho).real),
        "positive_semidefinite": bool(w[0] >= -(tol.atol + tol.rtol * max(-w[0], w[-1]))),
    }


def validate_via_liouville(channel: Channel,
                           tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """``validate`` with dense hermiticity and trace-nonincreasing checks.

    The hermiticity gap is the dense ``max |D - D^dag|``, and the
    trace-nonincreasing check reads ``sum_j G_j^dag G_j`` as the dual map
    applied to the identity, ``L^dag vec(I)``, from the Liouville matrix.
    """
    D = channel.choi
    L = channel.liouville
    hermiticity = bool(np.max(np.abs(D - D.conj().T)) <= tol.atol)
    tr_A = partial_trace_A(D, channel.choi_shape)
    trace_preserving = bool(np.max(np.abs(tr_A - np.eye(channel.d_in))) <= tol.atol)
    unital_image = devectorize(L.conj().T @ vectorize(np.eye(channel.d_out)),
                               channel.d_in, channel.d_in)
    gap = np.eye(channel.d_in) - (unital_image + unital_image.conj().T) / 2.0
    trace_nonincreasing = bool(np.linalg.eigvalsh(gap)[0] >= -tol.atol)
    if channel.kraus is not None and len(channel.kraus) < D.shape[0]:
        min_eig = 0.0
    else:
        min_eig = float(np.linalg.eigvalsh((D + D.conj().T) / 2.0)[0])
    completely_positive = hermiticity and min_eig >= -tol.atol
    return ValidationReport(
        hermiticity_preserving=hermiticity,
        trace_preserving=trace_preserving,
        trace_nonincreasing=trace_nonincreasing,
        completely_positive=completely_positive,
        choi_trace=float(np.trace(D).real),
        min_choi_eigenvalue=min_eig,
    )


def basis_resolution_checks(basis: OperatorBasis, atol: float = 1e-9) -> bool:
    """Check sum_a E_a (x) E_a^* = |I>><<I| and sum_a E_a (x) E_a^dag = S."""
    N = basis.dim
    acc_star = np.zeros((N * N, N * N), dtype=complex)
    acc_dag = np.zeros((N * N, N * N), dtype=complex)
    for E in basis:
        acc_star += tensor(E, E.conj())
        acc_dag += tensor(E, E.conj().T)
    vec_I = vectorize(np.eye(N))
    dyad = np.outer(vec_I, vec_I.conj())
    S = swap_operator(N)
    return (float(np.max(np.abs(acc_star - dyad))) <= atol
            and float(np.max(np.abs(acc_dag - S))) <= atol)


# -- superoperator space, basis element by basis element ---------------------
# The sums over basis elements and basis pairs that ``choiscope.superop_space``
# replaced with matrix products over the vectorized bases and one realignment.

def superop_inner_sum(phi: Channel, psi: Channel, basis: OperatorBasis) -> complex:
    """sum_a <Phi(E_a), Psi(E_a)>, each image by ``apply``."""
    total = 0.0 + 0.0j
    for E in basis:
        total += hs_inner(apply(phi, E, route="liouville"),
                          apply(psi, E, route="liouville"))
    return complex(total)


def coefficients_by_entries(L, E: OperatorBasis, F: OperatorBasis):
    """(P, Q) with p_ab = <Delta_ab, L> and q_ab = <Theta_ab, L>, entry by entry."""
    n = len(E)
    P = np.empty((n, n), dtype=complex)
    Q = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            P[a, b] = hs_inner(delta_liouville(E[a], F[b]), L)
            Q[a, b] = hs_inner(theta_liouville(E[a], F[b]), L)
    return P, Q


def delta_sum(P, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """sum_ab p_ab Delta_ab, the Liouville matrix with dyadic coefficients P."""
    n = len(E)
    return sum(P[a, b] * delta_liouville(E[a], F[b])
               for a in range(n) for b in range(n))


def theta_sum(Q, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """sum_ab q_ab Theta_ab, the Liouville matrix with sandwich coefficients Q."""
    n = len(E)
    return sum(Q[a, b] * theta_liouville(E[a], F[b])
               for a in range(n) for b in range(n))


def trace_kernel_convert(C, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """C'_ab = sum_mn tr(E_a^dag E_m F_b F_n^dag) C_mn, the P <-> Q kernel."""
    Earr = np.stack(list(E.elements))
    Farr = np.stack(list(F.elements))
    # G[a, m, i, j] = (E_a^dag E_m)_{ij}; H[b, n, j, i] = (F_b F_n^dag)_{ji}
    G = np.einsum("aki,mkj->amij", Earr.conj(), Earr)
    H = np.einsum("bjk,nik->bnji", Farr, Farr.conj())
    return np.einsum("amij,bnji,mn->ab", G, H, as_matrix(C))


def lambda_iso_sum(phi: Channel, E: OperatorBasis, F: OperatorBasis) -> np.ndarray:
    """sum_a Phi(E_a) (x) F_a, each image by ``apply``."""
    return sum(tensor(apply(phi, E_a, route="liouville"), F_a)
               for E_a, F_a in zip(E, F))


# -- channel permutations, as ``choiscope.channels`` wrote them ---------------
# The library now calls ``realign``, ``realign_inverse`` and the flips of
# ``choiscope.reshape``; these former bodies must agree with it exactly.

def liouville_choi_permute(M, d_in: int, d_out: int, to_choi: bool) -> np.ndarray:
    """The L <-> D index permutation D[u*dout+m, v*dout+n] = L[n*dout+m, v*din+u]."""
    if to_choi:
        four = M.reshape(d_out, d_out, d_in, d_in)  # (n, m, v, u)
        return four.transpose(3, 1, 2, 0).reshape(d_out * d_in, d_out * d_in)
    four = M.reshape(d_in, d_out, d_in, d_out)  # (u, m, v, n)
    return four.transpose(3, 1, 2, 0).reshape(d_out ** 2, d_in ** 2)


def swap_conjugate_by_index(L, N: int, mode: str) -> np.ndarray:
    """S L, L S or S L S by gathering with the swap's index map."""
    s = np.arange(N * N).reshape(N, N).T.reshape(-1)  # swap_operator(N) @ x == x[s]
    if mode == "left":
        return L[s]
    if mode == "right":
        return L[:, s]
    return L[np.ix_(s, s)]


def reference_improve_term(rho_a, e, f, shape: BipartiteShape, floor: float,
                           iters: int = 40):
    """The single-vector loop that minimizes <e f| (rho_a - floor)^-1 |e f>.

    Alternating minimum-eigenvector updates of e and f on the inverse of
    rho_a - floor*I, whose eigenvalues must all be positive; returns ``(e, f)``.
    """
    w, Vc = np.linalg.eigh(rho_a)
    assert w[0] > floor
    B = (Vc / (w - floor)) @ Vc.conj().T
    B4 = B.reshape(shape.d_B, shape.d_A, shape.d_B, shape.d_A)
    value = np.inf
    for _ in range(iters):
        M = np.einsum("u,umvn,v->mn", f.conj(), B4, f)
        _, Ve = np.linalg.eigh((M + M.conj().T) / 2.0)
        e = Ve[:, 0]
        M = np.einsum("m,umvn,n->uv", e.conj(), B4, e)
        wf, Vf = np.linalg.eigh((M + M.conj().T) / 2.0)
        f = Vf[:, 0]
        new = float(wf[0].real)
        if abs(new - value) < 1e-13:
            break
        value = new
    return e, f


def pair_optimum_closed_form(rho, psi1, psi2, atol: float = 1e-9,
                             range_tol: float = 1e-9):
    """max l1 + l2 subject to rho - l1|1><1| - l2|2><2| PSD, in closed form.

    On range(rho) the constraint is the 2x2 condition on
    a = <1|rho^+|1>, b = <2|rho^+|2>, c = |<1|rho^+|2>|, so the optimum is
    the best of (1/a, 0), (0, 1/b) and the stationary point
    ((b - c)/d, (a - c)/d), d = ab - c^2, when that point is positive.  A
    unit vector with more than ``range_tol`` weight outside range(rho)
    gets weight 0.
    """
    w, V = np.linalg.eigh(rho)
    cols = V[:, w > atol]
    pinv = (cols / w[w > atol]) @ cols.conj().T
    psi1 = psi1 / np.linalg.norm(psi1)
    psi2 = psi2 / np.linalg.norm(psi2)
    in1 = 1.0 - np.linalg.norm(cols.conj().T @ psi1) ** 2 <= range_tol
    in2 = 1.0 - np.linalg.norm(cols.conj().T @ psi2) ** 2 <= range_tol
    a = np.vdot(psi1, pinv @ psi1).real
    b = np.vdot(psi2, pinv @ psi2).real
    c = abs(np.vdot(psi1, pinv @ psi2))
    points = [(0.0, 0.0)]
    if in1:
        points.append((1.0 / a, 0.0))
    if in2:
        points.append((0.0, 1.0 / b))
    if in1 and in2 and a > c and b > c:
        d = a * b - c * c
        points.append(((b - c) / d, (a - c) / d))
    return max(points, key=sum)


def _sym2_basis(d: int) -> np.ndarray:
    """Columns |ii> and (|ij> + |ji>)/sqrt(2), i < j, for pairs i <= j in order."""
    cols = []
    for i in range(d):
        for j in range(i, d):
            v = np.zeros((d, d))
            v[i, j] += 1.0
            v[j, i] += 1.0
            cols.append(v.reshape(-1) / np.linalg.norm(v))
    return np.array(cols).T


def symmetric_realignment_dense(Pi, shape: BipartiteShape) -> np.ndarray:
    """R(Pi_2) from the explicit two-copy matrix.

    Forms Pi (x) Pi, reorders its factors to (AA)(BB), compresses it to
    Sym^2(A) (x) Sym^2(B) with explicit symmetric bases and realigns the
    result on that bipartite space.
    """
    dA, dB, D = shape.d_A, shape.d_B, shape.dim
    T = np.kron(Pi, Pi).reshape(dB, dA, dB, dA, dB, dA, dB, dA)
    # axes (u1, m1, u2, m2) of rows and columns -> ((u1 u2), (m1 m2))
    T = T.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(D * D, D * D)
    SA, SB = _sym2_basis(dA), _sym2_basis(dB)
    W = tensor(SA, SB)
    return realign(W.T @ T @ W, BipartiteShape(SA.shape[1], SB.shape[1]))


def symmetric_extension_dense(Pi, shape: BipartiteShape) -> np.ndarray:
    """S^dag (Pi (x) I) S from explicit matrices.

    The identity acts on one more copy of the larger party (B when
    d_B >= d_A), appended as the last tensor factor, and S is an explicit
    orthonormal basis of the subspace symmetric under the swap of that
    party with its copy.
    """
    dA, dB = shape.d_A, shape.d_B
    d = max(dA, dB)
    sym = _sym2_basis(d).reshape(d, d, -1)  # (party, copy, pair)
    if dB >= dA:
        # rows (u, m, u'): B, A, copy of B; columns (m, pair)
        S = np.einsum("ujk,mn->umjnk", sym, np.eye(dA))
    else:
        # rows (u, m, m'): B, A, copy of A; columns (u, pair)
        S = np.einsum("mjk,un->umjnk", sym, np.eye(dB))
    S = S.reshape(shape.dim * d, -1)
    return S.T @ np.kron(Pi, np.eye(d)) @ S


# -- canonical file format, one float at a time ------------------------------
# The element-wise writer and parser that ``choiscope.serialization``
# replaced with whole-matrix passes; its files must match these byte for
# byte, and its parse results and error messages must match ``_lists_to_matrix``.

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ParseError("non-finite value cannot be serialized")
    # the parser reads "-0" as the integer 0, so -0.0 is written as 0 to keep
    # serialize(parse(x)) byte-identical
    return "%.17g" % (float(x) + 0.0)


def _emit(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _emit(v) for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def matrix_to_lists(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def dump_file_elementwise(kind: str, dims, matrices) -> str:
    """Canonical file text built by ``_emit`` over nested lists."""
    mats = [as_matrix(M) for M in matrices]
    data = matrix_to_lists(mats[0]) if kind != "kraus" else [matrix_to_lists(M) for M in mats]
    return _emit({
        "format_version": "1",
        "kind": kind,
        "dims": [int(d) for d in dims],
        "data": data,
    }) + "\n"


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` parse as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A JSON number (not a boolean) that converts to a finite float."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def lists_to_matrix_elementwise(data, where: str) -> np.ndarray:
    """Parse one matrix's nested [re, im] lists entry by entry."""
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    ncol = None
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or (ncol is not None and len(row) != ncol):
            raise ParseError(f"{where}[{i}]: ragged or non-list row")
        ncol = len(row)
        out = []
        for j, z in enumerate(row):
            if (not isinstance(z, list) or len(z) != 2
                    or not all(_is_finite_number(c) for c in z)):
                raise ParseError(f"{where}[{i}][{j}]: expected an [re, im] pair "
                                 "of finite numbers")
            out.append(complex(z[0], z[1]))
        rows.append(out)
    return np.array(rows, dtype=complex)
