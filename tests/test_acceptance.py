"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live;
pytest always shows them for failing criteria.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from choiscope.bsa import (ProductVector, bipartite_choi, bsa_state,
                           kraus_factor_split, max_lambda,
                           max_lambda_bisection, osa_fixed_set)
from choiscope.channels import (Channel, apply, choi_to_kraus, compose,
                                compose_choi, dual, identity_channel, mix,
                                superop_hs_inner, tensor_channels,
                                transpose_channel, transpose_conjugations,
                                validate)
from choiscope.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from choiscope.errors import NotCompletelyPositive
from choiscope.generators import (random_cp_channel, random_product_mixture,
                                  random_state, werner_state)
from choiscope.numerics import hs_inner, min_eigenvalue
from choiscope.reshape import (BipartiteShape, devectorize, flip, flip_col,
                               flip_row, middle_swap, partial_trace_A,
                               partial_transpose, product_factorize, realign,
                               realign_inverse, realign_prime,
                               swap_operator, tensor, tensor_vectors,
                               vectorize)
from choiscope.reshape import middle_swap as choi_regroup_permutation
from choiscope.superop_space import (coefficients, convert_coeffs,
                                     elementary_basis, lambda_iso,
                                     rotated_basis, superop_inner)

from oracles import (basis_resolution_checks, realign_image_identity_check,
                     realign_sandwich)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _density(rng, d):
    A = _rand(rng, d, d)
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_reshape_identities():
    rng = np.random.default_rng(1)
    err = 0.0
    for dA, dB in [(2, 2), (2, 3)]:
        sh = BipartiteShape(dA, dB)
        d = dA * dB
        for _ in range(100):
            X = _rand(rng, dA, dA)
            Y = _rand(rng, dB, dB)
            Z = _rand(rng, d, d)
            G = _rand(rng, dA, dB)
            # vectorization is column stacking; devectorize inverts it
            err = max(err, np.max(np.abs(vectorize(G) - G.flatten(order="F"))))
            err = max(err, np.max(np.abs(devectorize(vectorize(G), dA, dB) - G)))
            # first-subsystem-fastest index order on products
            err = max(err, np.max(np.abs(tensor(X, Y) - np.kron(Y, X))))
            e, f = _rand(rng, dA), _rand(rng, dB)
            err = max(err, np.max(np.abs(tensor_vectors(e, f) - np.kron(f, e))))
            # realignment of a product is the vectorization dyad, and
            # un-realigning recovers the operator
            err = max(err, np.max(np.abs(
                realign(tensor(X, Y), sh)
                - np.outer(vectorize(X), vectorize(Y)))))
            err = max(err, np.max(np.abs(realign_inverse(realign(Z, sh), sh) - Z)))
            err = max(err, np.max(np.abs(
                partial_transpose(partial_transpose(Z, sh, "A"), sh, "A") - Z)))
            err = max(err, np.max(np.abs(
                partial_transpose(Z, sh, "both") - Z.T)))
        if dA == dB:
            S = swap_operator(dA)
            err = max(err, np.max(np.abs(realign(S, sh) - S)))
            err = max(err, np.max(np.abs(S @ S - np.eye(dA * dA))))
            for _ in range(100):
                Z = _rand(rng, dA * dA, dA * dA)
                X = _rand(rng, dA, dA)
                err = max(err, np.max(np.abs(S @ vectorize(X) - vectorize(X.T))))
                # subsystem flips are conjugations by the swap matrix
                err = max(err, np.max(np.abs(flip(flip(Z, sh), sh) - Z)))
                err = max(err, np.max(np.abs(flip(Z, sh) - S @ Z @ S)))
                err = max(err, np.max(np.abs(
                    flip_row(flip_col(Z, sh), sh) - flip(Z, sh))))
                # the prime realignment and the swap sandwich agree with R
                err = max(err, np.max(np.abs(
                    realign_prime(Z, sh) - realign(Z.T, sh).T)))
                err = max(err, np.max(np.abs(
                    realign_sandwich(Z, sh) - realign(Z, sh))))
    _report(1, "reshape identity suite", err <= 1e-10)


def test_criterion_02_product_factorization():
    rng = np.random.default_rng(2)
    sh = BipartiteShape(2, 3)
    ok = True
    for _ in range(100):
        X = _rand(rng, 2, 2)
        Y = _rand(rng, 3, 3)
        Z = tensor(X, Y)
        factors = product_factorize(Z, sh)
        ok &= factors is not None
        if factors:
            Xr, Yr = factors
            ok &= (np.linalg.norm(Z - tensor(Xr, Yr))
                   <= 1e-8 * np.linalg.norm(Z))
    for _ in range(100):
        Z = _rand(rng, 6, 6)
        ok &= product_factorize(Z, sh) is None
    sh2 = BipartiteShape(2, 2)
    S = swap_operator(2)
    ok &= product_factorize(S, sh2) is None
    ok &= np.linalg.matrix_rank(realign(S, sh2)) == 4
    _report(2, "product factorization both directions", ok)


def test_criterion_03_choi_constraints_and_inner_products():
    rng = np.random.default_rng(3)
    ok = True
    for N, count in [(2, 100), (3, 20)]:
        for k in range(count):
            ch = random_cp_channel(N, N, seed=1000 * N + k)
            D = ch.choi
            ok &= np.max(np.abs(D - D.conj().T)) <= 1e-10
            ok &= min_eigenvalue(D) >= -1e-9
            sh = BipartiteShape(N, N)
            ok &= np.max(np.abs(partial_trace_A(D, sh) - np.eye(N))) <= 1e-9
            ok &= abs(np.trace(D).real - N) <= 1e-9
        for k in range(count):
            phi = random_cp_channel(N, N, seed=2000 * N + k)
            psi = random_cp_channel(N, N, seed=3000 * N + k)
            lhs = hs_inner(phi.liouville, psi.liouville)
            rhs = hs_inner(phi.choi, psi.choi)
            ok &= abs(lhs - rhs) <= 1e-9
            X = _rand(rng, N, N)
            Y = _rand(rng, N, N)
            lhs = hs_inner(Y, apply(phi, X))
            rhs = hs_inner(tensor(Y, X.conj()), phi.choi)
            ok &= abs(lhs - rhs) <= 1e-9
    _report(3, "dynamical-matrix constraints", ok)


def test_criterion_04_representation_round_trip():
    ok = True
    for k in range(100):
        ch = random_cp_channel(2, 2, seed=k)
        back = Channel.from_kraus(
            choi_to_kraus(ch.choi, 2, 2))
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2), dtype=complex)
                E[i, j] = 1.0
                ok &= np.max(np.abs(apply(ch, E) - apply(back, E))) <= 1e-8
    T = transpose_channel(2)
    try:
        T.kraus_operators()
        ok = False
    except NotCompletelyPositive:
        pass
    ok &= abs(min_eigenvalue(T.choi) + 1.0) <= 1e-10
    _report(4, "Kraus/Liouville/Choi round-trip", ok)


def test_criterion_05_channel_algebra():
    rng = np.random.default_rng(5)
    ok = True
    for k in range(20):
        phi = random_cp_channel(2, 2, seed=100 + k)
        psi = random_cp_channel(2, 2, seed=200 + k)
        # compose: Liouville product vs the Choi-side formula
        ok &= np.max(np.abs(compose(phi, psi).choi
                            - compose_choi(phi.choi, psi.choi, 2))) <= 1e-9
        # mix is affine in both representations
        m = mix([0.3, 0.7], [phi, psi])
        ok &= np.max(np.abs(m.liouville - 0.3 * phi.liouville
                            - 0.7 * psi.liouville)) <= 1e-9
        # tensor: Liouville regrouping route vs the Kraus route
        t = tensor_channels(phi, psi)
        direct = Channel.from_kraus(
            [tensor(A, B) for A in phi.kraus_operators()
             for B in psi.kraus_operators()])
        ok &= np.max(np.abs(t.liouville - direct.liouville)) <= 1e-9
        # dual is the Hilbert-Schmidt adjoint
        X = _rand(rng, 2, 2)
        Y = _rand(rng, 2, 2)
        ok &= abs(hs_inner(Y, apply(phi, X))
                  - hs_inner(apply(dual(phi), Y), X)) <= 1e-9
        # transpose conjugations act on Liouville by swap multiplication
        S = swap_operator(2)
        ok &= np.max(np.abs(transpose_conjugations(phi, "left").liouville
                            - S @ phi.liouville)) <= 1e-9
        ok &= np.max(np.abs(transpose_conjugations(phi, "both").liouville
                            - phi.liouville.conj())) <= 1e-9
        # realignment intertwines product-channel images
        rho = _density(rng, 4)
        ok &= realign_image_identity_check(phi, psi, rho, atol=1e-9)
    for k in range(50):
        phi = random_cp_channel(2, 2, seed=300 + k)
        psi = random_cp_channel(2, 2, seed=400 + k)
        A = _rand(rng, 2, 2)
        rho = A @ A.conj().T
        B = _rand(rng, 2, 2)
        tau = B @ B.conj().T
        sigma = apply(tensor_channels(phi, psi), tensor(rho, tau))
        ok &= min_eigenvalue(sigma) >= -1e-9
    _report(5, "channel algebra", ok)


def test_criterion_06_superoperator_space():
    ok = True
    phi = random_cp_channel(2, 2, seed=6)
    psi = random_cp_channel(2, 2, seed=7)
    vals = [superop_inner(phi, psi, rotated_basis(2, seed=s))
            for s in (1, 2, 3)]
    ok &= max(abs(v - vals[0]) for v in vals) <= 1e-8
    ok &= abs(vals[0] - superop_hs_inner(phi, psi)) <= 1e-8
    E = elementary_basis(2)
    F = rotated_basis(2, seed=11)
    co = coefficients(phi, E, F)
    ok &= np.max(np.abs(co.reconstruct_from_P() - phi.liouville)) <= 1e-8
    ok &= np.max(np.abs(co.reconstruct_from_Q() - phi.liouville)) <= 1e-8
    ok &= np.max(np.abs(convert_coeffs(co.Q, E, F) - co.P)) <= 1e-8
    ok &= np.max(np.abs(convert_coeffs(co.P, E, F) - co.Q)) <= 1e-8
    # the tensor-space image preserves the superoperator inner product
    ok &= abs(hs_inner(lambda_iso(phi, E, F), lambda_iso(psi, E, F))
              - superop_inner(phi, psi, E)) <= 1e-8
    for basis in (E, F):
        ok &= basis_resolution_checks(basis, atol=1e-9)
    _report(6, "superoperator space", ok)


def test_criterion_07_max_lambda_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for d in (4, 9):
        for _ in range(200):
            rho = _density(rng, d)
            psi = _rand(rng, d)
            ok &= abs(max_lambda(rho, psi)
                      - max_lambda_bisection(rho, psi)) <= 1e-8
    psi = _rand(rng, 4)
    psi /= np.linalg.norm(psi)
    ok &= abs(max_lambda(np.outer(psi, psi.conj()), psi) - 1.0) <= 1e-12
    ok &= abs(max_lambda(np.eye(4) / 4, psi) - 0.25) <= 1e-12
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    ok &= max_lambda(rho, np.array([0, 0, 1, 0], dtype=complex)) == 0.0
    _report(7, "maximal-weight closed form vs bisection", ok)


def test_criterion_08_bsa_states():
    sh = BipartiteShape(2, 2)
    ok = True
    for seed in (0, 1, 2):
        rho = random_product_mixture(2, 2, 6, seed=40 + seed)
        dec = bsa_state(rho, sh, budget=500, seed=seed)
        ok &= dec.lambda_total >= 0.99
        ok &= min_eigenvalue(dec.residual) >= -1e-8
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    singlet = (tensor_vectors(e0, e1) - tensor_vectors(e1, e0)) / np.sqrt(2)
    dec = bsa_state(np.outer(singlet, singlet.conj()), sh, budget=100, seed=0)
    ok &= dec.lambda_total == 0.0
    # dense-grid oracle for the Werner mixture: a fixed product-vector
    # grid plus the certifying fixed-set solver
    werner = werner_state(0.5)
    grid = []
    n = 10
    for ta in np.linspace(0, np.pi, n):
        for pa in np.linspace(0, 2 * np.pi, n, endpoint=False):
            e = np.array([np.cos(ta / 2),
                          np.exp(1j * pa) * np.sin(ta / 2)])
            grid.append(e)
    V = [ProductVector(e, f) for e in grid for f in grid]
    oracle = osa_fixed_set(werner, V, seed=0)
    dec_w = bsa_state(werner, sh, budget=500, seed=0)
    ok &= abs(dec_w.lambda_total - oracle.lambda_total) <= 2e-2
    # two-seed agreement of the decomposition, not just the value
    dec_w2 = bsa_state(werner, sh, budget=500, seed=1)
    ok &= abs(dec_w.lambda_total - dec_w2.lambda_total) <= 1e-3
    sep1 = dec_w.lambda_total * dec_w.separable_part
    sep2 = dec_w2.lambda_total * dec_w2.separable_part
    ok &= np.linalg.norm(sep1 - sep2) <= 5e-3
    # per-sweep monotonicity of the total weight
    trace = []
    osa_fixed_set(random_product_mixture(2, 2, 4, seed=8),
                  V[:200], seed=0, trace=trace)
    ok &= all(b - a >= -1e-10 for a, b in zip(trace, trace[1:]))
    _report(8, "best separable approximation of states", ok)


def test_criterion_09_bsa_operations():
    rng = np.random.default_rng(9)
    ok = True
    from choiscope.bsa import bsa_operation
    for seed in (0, 1):
        ops = [tensor(_rand(rng, 2, 2), _rand(rng, 2, 2)) for _ in range(3)]
        ch = Channel.from_kraus(ops)
        res = bsa_operation(ch, 2, budget=200, seed=seed)
        ok &= (np.linalg.norm(res.ent_part.choi)
               <= 1e-2 * np.linalg.norm(ch.choi))
    res = bsa_operation(identity_channel(4), 2, budget=50, seed=0)
    ok &= np.linalg.norm(res.ent_part.choi) <= 1e-10
    S = swap_operator(2).astype(complex)
    prod, rest = kraus_factor_split(
        [np.eye(4) / np.sqrt(2), S / np.sqrt(2)], BipartiteShape(2, 2))
    ok &= len(prod) == 1 and len(rest) == 1
    ok &= np.allclose(prod[0], np.eye(4) / np.sqrt(2))
    P = choi_regroup_permutation(2)
    for k in range(50):
        ch = random_cp_channel(4, 4, seed=500 + k)
        E = bipartite_choi(ch.kraus_operators(), 2)
        ok &= np.max(np.abs(E - P @ ch.choi @ P)) <= 1e-10
    _report(9, "best separable approximation of operations", ok)


def test_criterion_10_cli(tmp_path):
    ok = True

    def run(*argv, name):
        out = tmp_path / name
        code = main([*argv, "--out", str(out)])
        return code, (out.read_text(encoding="utf-8") if out.exists() else None)

    golden_cases = [
        (["inspect", str(FIXTURES / "identity2.json")],
         "inspect_identity2.json", EXIT_OK),
        (["inspect", str(FIXTURES / "transpose2.json")],
         "inspect_transpose2.json", EXIT_INVALID),
        (["inspect", str(FIXTURES / "maxmixed.json")],
         "inspect_maxmixed.json", EXIT_OK),
        (["convert", str(FIXTURES / "identity2.json"), "choi"],
         "convert_identity2_choi.json", EXIT_OK),
        (["convert", str(FIXTURES / "depolarizing2.json"), "liouville"],
         "convert_depolarizing2_liouville.json", EXIT_OK),
        (["bsa", str(FIXTURES / "singlet.json"), "--seed", "0",
          "--budget", "50"], "bsa_singlet.json", EXIT_OK),
        (["bsa", str(FIXTURES / "maxmixed.json"), "--seed", "0",
          "--budget", "100"], "bsa_maxmixed.json", EXIT_OK),
        (["gen", "random-state", "2", "2", "--seed", "5"],
         "gen_random_state_5.json", EXIT_OK),
    ]
    for i, (argv, golden, want) in enumerate(golden_cases):
        code, text = run(*argv, name=f"g{i}.json")
        ok &= code == want
        ok &= text == (GOLDEN / golden).read_text(encoding="utf-8")
    # determinism under a fixed seed: byte-identical reports
    _, a = run("gen", "random-cp", "2", "--seed", "11", name="a.json")
    ok &= a == (FIXTURES / "random_cp2.json").read_text(encoding="utf-8")
    _, b1 = run("bsa", str(FIXTURES / "maxmixed.json"), "--seed", "3",
                "--budget", "60", name="b1.json")
    _, b2 = run("bsa", str(FIXTURES / "maxmixed.json"), "--seed", "3",
                "--budget", "60", name="b2.json")
    ok &= b1 == b2
    # exit-code contract
    ok &= main(["inspect", str(tmp_path / "missing.json")]) == EXIT_IO
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    ok &= main(["inspect", str(bad)]) == EXIT_IO
    code, _ = run("convert", str(FIXTURES / "transpose2.json"), "kraus",
                  name="k.json")
    ok &= code == EXIT_INVALID
    _report(10, "CLI golden files, determinism, exit codes", ok)
