"""The benchmark's workloads: seeded inputs, one program call per item,
and oracles that check each result without using the library's BSA code.

Each workload builds a deck of items from the run's seed during set-up,
runs one item per program call in the timed loop, and checks every
result afterwards.  ``run`` holds only the calls into the library;
``check`` returns a list of failure messages (empty when the item
passed) and uses numpy directly, so a change to the library cannot
also change what counts as correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from choiscope import bsa, channels, cli, generators, reshape, serialization, superop_space

# The oracles' tolerances.  LAMBDA_TOL is the test suite's tolerance for
# the Werner weight, used for every closed-form or PPT weight.
# RESIDUAL_FLOOR restates the library's feasibility tolerance
# (bsa.RESIDUAL_MIN_EIG) so the oracle does not read it from the code
# under test.
LAMBDA_TOL = 5e-3
RESIDUAL_FLOOR = -1e-8
RECONSTRUCT_TOL = 1e-8
ALGEBRA_TOL = 1e-9


@dataclass
class Item:
    """One unit of work: a kind, its index in the deck and its inputs."""

    kind: str
    index: int
    inputs: dict = field(default_factory=dict)


def _item_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of item ``index`` (-1 is the warm-up item) of a run."""
    return np.random.default_rng([seed % (1 << 63), index + 1])


def _ptmin(rho: np.ndarray, d_A: int, d_B: int) -> float:
    """Min eigenvalue of the partial transpose on B (flat index u*d_A + m)."""
    four = rho.reshape(d_B, d_A, d_B, d_A)  # (u, m, v, n)
    return float(np.linalg.eigvalsh(four.transpose(2, 1, 0, 3).reshape(d_A * d_B, -1))[0])


class Workload:
    name = ""
    why = ""
    # item kinds in deck order; the deck repeats this cycle
    cycle: tuple = ()
    # the tail percentile is fixed, so the metric means the same on every
    # commit; each workload's value leaves at least 10 items beyond it in
    # a 45 s run at the commit that added the benchmark
    tail_percentile = 75
    # items per second at the commit that added the benchmark, used to
    # size the deck and the traced run's fixed item list; not a measurement
    nominal_rate = 1.0

    def make_item(self, kind: str, index: int, seed: int, workdir: Path) -> Item:
        raise NotImplementedError

    def make_deck(self, seed: int, size: int, workdir: Path) -> list[Item]:
        return [self.make_item(self.cycle[i % len(self.cycle)], i, seed, workdir)
                for i in range(size)]

    def warmup_item(self, workdir: Path) -> Item:
        """The item run during set-up, before any timing; the same in every run."""
        return self.make_item(self.cycle[0], -1, 0, workdir)

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> list[str]:
        raise NotImplementedError

    def lam(self, item: Item, result):
        """The item's BSA weight, or None for workloads without one."""
        return None


# ---------------------------------------------------------------------------
# state_bsa


class StateBsa(Workload):
    name = "state_bsa"
    why = ("full-rank states: candidate_products takes its full_range shortcut, so the "
           "time goes to coordinate ascent (pair updates -> eigh) and barrier rounds")
    cycle = ("werner", "mixture_2x2", "werner", "wishart_2x3", "werner", "mixture_2x3")
    tail_percentile = 70
    nominal_rate = 1.0
    budget = 10
    werner_grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def make_item(self, kind, index, seed, workdir):
        rng = _item_rng(seed, index)
        item_seed = int(rng.integers(1 << 31))
        if kind == "werner":
            p = self.werner_grid[index % len(self.werner_grid)] + rng.uniform(-0.02, 0.02)
            rho, dims, extra = generators.werner_state(p), (2, 2), {"p": float(p)}
        elif kind == "mixture_2x2":
            rho, dims, extra = generators.random_product_mixture(2, 2, 6, item_seed), (2, 2), {}
        elif kind == "mixture_2x3":
            rho, dims, extra = generators.random_product_mixture(2, 3, 8, item_seed), (2, 3), {}
        elif kind == "wishart_2x3":
            rho, dims, extra = generators.random_state(6, item_seed), (2, 3), {}
        else:
            raise ValueError(kind)
        return Item(kind, index, {"rho": rho, "dims": dims, "seed": item_seed, **extra})

    def run(self, item):
        x = item.inputs
        return bsa.bsa_state(x["rho"], reshape.BipartiteShape(*x["dims"]),
                             budget=self.budget, seed=x["seed"])

    def lam(self, item, result):
        return float(result.lambda_total)

    def check(self, item, dec):
        x = item.inputs
        rho = x["rho"]
        d_A, d_B = x["dims"]
        d = d_A * d_B
        lam = float(dec.lambda_total)
        fails = []
        if not (math.isfinite(lam) and -1e-12 <= lam <= 1.0 + 1e-9):
            return [f"lambda_total {lam!r} outside [0, 1]"]
        res_min = float(np.linalg.eigvalsh((dec.residual + dec.residual.conj().T) / 2)[0])
        if res_min < RESIDUAL_FLOOR:
            fails.append(f"residual min eigenvalue {res_min:.3e} < {RESIDUAL_FLOOR:g}")
        gap = float(np.max(np.abs(lam * dec.separable_part + dec.residual - rho)))
        if gap > RECONSTRUCT_TOL:
            fails.append(f"|lambda rho_s + delta - rho| = {gap:.3e}")
        # rho_s must be the mixture of the reported product projectors
        weights = np.array([w for w, _ in dec.terms])
        if lam > 0:
            sep = np.zeros((d, d), dtype=complex)
            for w, pv in dec.terms:
                v = np.kron(pv.f, pv.e)  # A index fastest
                sep += w * np.outer(v, v.conj())
            if abs(weights.sum() - lam) > 1e-9 or np.max(np.abs(sep / lam - dec.separable_part)) > 1e-8:
                fails.append("separable part is not the mixture of the reported product terms")
        # I/d is separable, so the best weight is at least d * min eig(rho)
        floor = d * float(np.linalg.eigvalsh(rho)[0])
        if lam < floor - 1e-9:
            fails.append(f"lambda {lam:.6f} below the identity-mixture bound {floor:.6f}")
        # Peres-Horodecki: in 2x2 and 2x3, separable iff PPT
        ptmin = _ptmin(rho, d_A, d_B)
        if ptmin < -1e-8 and lam > 1.0 - 1e-8:
            fails.append(f"lambda {lam:.9f} ~ 1 for an NPT state (min eig of rho^T_B {ptmin:.3e})")
        if ptmin >= -1e-12 and lam < 1.0 - LAMBDA_TOL:
            fails.append(f"lambda {lam:.6f} < 1 - {LAMBDA_TOL:g} for a PPT state")
        if item.kind == "werner":
            p = x["p"]
            exact = 1.0 if p <= 1 / 3 else 1.5 * (1.0 - p)
            if abs(lam - exact) > LAMBDA_TOL:
                fails.append(f"Werner p={p:.4f}: lambda {lam:.6f} vs closed form {exact:.6f}")
        elif item.kind.startswith("mixture") and lam < 1.0 - LAMBDA_TOL:
            fails.append(f"product mixture: lambda {lam:.6f} < 1 - {LAMBDA_TOL:g}")
        return fails


# ---------------------------------------------------------------------------
# operation_cli


class OperationCli(Workload):
    name = "operation_cli"
    why = ("random CP maps whose regrouped Choi range holds no product vector: the "
           "candidate search exhausts its cap, and the CLI runs the BSA twice")
    cycle = ("random_cp2", "random_cp4", "random_cp2", "random_cp4", "identity",
             "random_cp2", "random_cp4", "random_cp2", "random_cp4", "local_unitaries",
             "random_cp2", "random_cp4", "random_cp2", "random_cp4", "swap")
    tail_percentile = 90
    nominal_rate = 3.5
    budget = 2
    expected_verdict = {"identity": "separable", "local_unitaries": "separable",
                        "swap": "entangled"}

    def make_item(self, kind, index, seed, workdir):
        rng = _item_rng(seed, index)
        item_seed = int(rng.integers(1 << 31))
        if kind.startswith("random_cp"):
            channel = generators.random_cp_channel(4, 4, item_seed,
                                                   kraus_count=int(kind[-1]))
        elif kind == "identity":
            channel = channels.identity_channel(4)
        elif kind == "local_unitaries":
            U = generators.random_unitary(2, rng)
            V = generators.random_unitary(2, rng)
            channel = channels.Channel.from_kraus([reshape.tensor(U, V)])
        elif kind == "swap":
            channel = generators.swap_channel(2)
        else:
            raise ValueError(kind)
        path = workdir / f"op_{index}.json"
        path.write_text(serialization.dump_channel(channel, "kraus"), encoding="utf-8")
        return Item(kind, index, {"path": path, "out": workdir / f"op_{index}.report.json",
                                  "seed": item_seed})

    def run(self, item):
        x = item.inputs
        # every report that check reads comes from this call
        Path(x["out"]).unlink(missing_ok=True)
        argv = ["bsa", str(x["path"]), "--operation", "--seed", str(x["seed"]),
                "--budget", str(self.budget), "--out", str(x["out"])]
        stderr = io.StringIO()
        # the CLI writes its wall time to stderr on every call
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue()

    def _report(self, item):
        return json.loads(Path(item.inputs["out"]).read_text(encoding="utf-8"))

    def lam(self, item, result):
        try:
            return float(self._report(item)["lambda"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def check(self, item, result):
        code, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[:200]}"]
        try:
            report = self._report(item)
            lam, verdict = float(report["lambda"]), report["verdict"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"report does not parse: {exc}"]
        return self.check_report(item, report, lam, verdict)

    def check_report(self, item, report, lam, verdict) -> list[str]:
        x = item.inputs
        fails = []
        digest = hashlib.sha256(Path(x["path"]).read_bytes()).hexdigest()
        if (report.get("command") != "bsa" or report.get("input_digest") != digest
                or report.get("seed") != x["seed"] or report.get("budget") != self.budget):
            fails.append("report header does not match the call")
        if item.kind.startswith("random_cp"):
            # a generic rank <= 9 subspace of C^4 (x) C^4 holds no product
            # vector (Parthasarathy 2004), so the exact weight is 0
            if not lam <= 1e-9:
                fails.append(f"random CP map: lambda {lam:.3e} > 1e-9")
            if verdict == "separable":
                fails.append("random CP map reported separable")
        else:
            want = self.expected_verdict[item.kind]
            if verdict != want:
                fails.append(f"{item.kind}: verdict {verdict!r}, expected {want!r}")
        return fails


# ---------------------------------------------------------------------------
# channel_algebra


class ChannelAlgebra(Workload):
    name = "channel_algebra"
    why = ("library calculus on random CP maps at N=3,4,5, which the BSA barely touches; "
           "dense middle_swap(N) products dominate tensor_channels and bipartite_choi")
    cycle = ("N3", "N4", "N5")
    tail_percentile = 90
    nominal_rate = 4.0
    # built channels that must validate as trace preserving and CP
    cptp_built = ("a", "b", "roundtrip", "compose", "mix", "conj_both", "product")

    def make_item(self, kind, index, seed, workdir):
        N = int(kind[1:])
        rng = _item_rng(seed, index)
        s = [int(v) for v in rng.integers(1 << 31, size=5)]
        a = generators.random_cp_channel(N, N, s[0])
        b = generators.random_cp_channel(N, N, s[1])
        rho_A = generators.random_state(N, s[2])
        rho_B = generators.random_state(N, s[3])
        return Item(kind, index, {"N": N, "a": a, "b": b, "rho_A": rho_A, "rho_B": rho_B,
                                  "rho_AB": np.kron(rho_B, rho_A),  # A index fastest
                                  "basis_seed": s[4], "workdir": workdir})

    def run(self, item):
        x = item.inputs
        N, a, b = x["N"], x["a"], x["b"]
        out = {}
        L = channels.kraus_to_liouville(a.kraus)
        D = channels.liouville_to_choi(L, N, N)
        roundtrip = channels.Channel.from_kraus(channels.choi_to_kraus(D, N, N))
        out["roundtrip_L"] = roundtrip.liouville
        out["roundtrip_L_via_choi"] = channels.choi_to_liouville(D, N, N)
        dual_a = channels.dual(a)
        built = {"a": a, "b": b, "roundtrip": roundtrip,
                 "compose": channels.compose(a, b),
                 "mix": channels.mix([0.25, 0.75], [a, b]),
                 "conj_both": channels.transpose_conjugations(a, "both"),
                 "conj_left": channels.transpose_conjugations(a, "left"),
                 "dual": dual_a}
        product = channels.tensor_channels(a, b)
        built["product"] = product
        out["reports"] = {k: channels.validate(c) for k, c in built.items()}
        out["dual_of_identity"] = channels.apply(dual_a, np.eye(N))
        out["a_out"] = channels.apply(a, x["rho_A"])
        out["b_out"] = channels.apply(b, x["rho_B"])
        out["product_out_kraus"] = channels.apply(product, x["rho_AB"], route="kraus")
        out["product_out_liouville"] = channels.apply(product, x["rho_AB"], route="liouville")
        rotated_E = superop_space.rotated_basis(N, x["basis_seed"])
        rotated_F = superop_space.rotated_basis(N, x["basis_seed"] + 1)
        elementary = superop_space.elementary_basis(N)
        out["coef_rotated"] = superop_space.coefficients(a, rotated_E, rotated_F)
        out["coef_elementary"] = superop_space.coefficients(a, elementary, elementary)
        shape = reshape.BipartiteShape(N * N, N * N)  # output | input of the product
        out["realigned"] = reshape.realign(product.choi, shape)
        out["pt_A"] = reshape.partial_transpose(product.choi, shape, "A")
        out["product_choi"], out["product_kraus"] = product.choi, product.kraus
        out["bipartite_choi"] = bsa.bipartite_choi(product.kraus, N)
        dumps = []
        for name, ch in (("a", a), ("b", b)):
            for kind in ("kraus", "liouville", "choi"):
                text = serialization.dump_channel(ch, kind)
                path = x["workdir"] / f"alg_{item.index}_{name}_{kind}.json"
                path.write_text(text, encoding="utf-8")
                again = serialization.dump_channel(serialization.load_path(path).to_channel(), kind)
                dumps.append((f"{name}/{kind}", text, again))
        out["dumps"] = dumps
        return out

    def check(self, item, out):
        x = item.inputs
        N, a, b = x["N"], x["a"], x["b"]
        L_a = a.liouville
        fails = []

        def close(label, got, want, tol=ALGEBRA_TOL):
            err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
            if not err <= tol:
                fails.append(f"{label}: max error {err:.3e} > {tol:g}")

        close("Kraus->Liouville->Choi->Kraus round trip", out["roundtrip_L"], L_a)
        close("Liouville->Choi->Liouville round trip", out["roundtrip_L_via_choi"], L_a)
        reports = out["reports"]
        for k in self.cptp_built:
            if not (reports[k].trace_preserving and reports[k].completely_positive):
                fails.append(f"validate({k}) is not TP and CP")
        if not reports["dual"].completely_positive:
            fails.append("validate(dual) is not CP")
        if not reports["conj_left"].trace_preserving:
            fails.append("validate(T o a) is not TP")
        close("dual(a)(I) = I", out["dual_of_identity"], np.eye(N))
        a_out = sum(G @ x["rho_A"] @ G.conj().T for G in a.kraus)
        close("a(rho_A) against the Kraus sum", out["a_out"], a_out)
        product_want = np.kron(out["b_out"], out["a_out"])
        close("(a x b)(rho_A x rho_B), Kraus route", out["product_out_kraus"], product_want)
        close("(a x b)(rho_A x rho_B), Liouville route", out["product_out_liouville"], product_want)
        # vec(|i><j|) are the standard basis vectors, so P = L there; in
        # orthonormal bases both coefficient matrices keep the HS norm
        close("P in the elementary basis", out["coef_elementary"].P, L_a)
        norm = np.linalg.norm(L_a)
        for label, M in (("P", out["coef_rotated"].P), ("Q", out["coef_rotated"].Q),
                         ("Q elementary", out["coef_elementary"].Q)):
            if abs(np.linalg.norm(M) - norm) > ALGEBRA_TOL * max(1.0, norm):
                fails.append(f"coefficients {label}: norm {np.linalg.norm(M):.12f} != {norm:.12f}")
        fails += self._check_permutations(item, out)
        for label, text, again in out["dumps"]:
            if text != again:
                fails.append(f"dump(parse(dump(x))) differs from dump(x) for {label}")
        return fails

    def _check_permutations(self, item, out):
        """Entry rules of realign and partial_transpose; bipartite_choi in full."""
        N = item.inputs["N"]
        n = N * N
        Z, R, T = out["product_choi"], out["realigned"], out["pt_A"]
        fails = []
        # flat index of (m on A, u on B) is u*n + m; spot-check the rules
        #   R[k*n + m, nu*n + u]   = Z[u*n + m, nu*n + k]
        #   T_A[u*n + m, v*n + k]  = Z[u*n + k, v*n + m]
        rng = _item_rng(item.index, n)
        for m, u, v, k in rng.integers(n, size=(64, 4)):
            if R[k * n + m, v * n + u] != Z[u * n + m, v * n + k]:
                fails.append("realign breaks its entry rule")
                break
        for m, u, v, k in rng.integers(n, size=(64, 4)):
            if T[u * n + m, v * n + k] != Z[u * n + k, v * n + m]:
                fails.append("partial_transpose breaks its entry rule")
                break
        znorm = np.linalg.norm(Z)
        for label, M in (("realign", R), ("partial_transpose", T)):
            if abs(np.linalg.norm(M) - znorm) > ALGEBRA_TOL * znorm:
                fails.append(f"{label} does not keep the Frobenius norm")
        # E = sum_k w_k w_k^dag, w_k[i1 + N j1 + N^2 i2 + N^3 j2] = M_k[i1 + N i2, j1 + N j2]
        E = np.zeros((n * n, n * n), dtype=complex)
        for M in out["product_kraus"]:
            w = M.reshape(N, N, N, N).transpose(2, 0, 3, 1).reshape(-1)
            E += np.outer(w, w.conj())
        err = float(np.max(np.abs(out["bipartite_choi"] - E)))
        if not err <= ALGEBRA_TOL:
            fails.append(f"bipartite_choi: max error {err:.3e} against the grouped Kraus vectors")
        return fails


WORKLOADS = {w.name: w for w in (StateBsa(), OperationCli(), ChannelAlgebra())}
