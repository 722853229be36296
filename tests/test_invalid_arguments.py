"""Every argument outside its domain raises ``InvalidArgument``.

It is a ``ChoiscopeError``, so the CLI's exit-code contract covers it,
and a ``ValueError``, so callers that caught numpy's raw error still do.
Each message names the argument.
"""

import math

import numpy as np
import pytest

from choiscope import (BipartiteShape, ChoiscopeError, InvalidArgument, Tolerance, apply,
                       bsa_operation, bsa_state, candidate_products, identity_channel,
                       max_pair, osa_fixed_set, partial_transpose, random_cp_channel,
                       random_product_mixture, random_state, rotated_basis, werner_state)
from choiscope.channels import transpose_conjugations

SH22 = BipartiteShape(2, 2)
RHO = werner_state(0.5)
PSI = np.array([1.0, 0.0, 0.0, 0.0])
# a 2-Kraus map whose range certificate returns before any seed is read
CERTIFIED = random_cp_channel(4, 4, 1, kraus_count=2)

SITES = {
    "bsa_state budget": (lambda: bsa_state(RHO, SH22, budget=-1, seed=0), "budget"),
    "bsa_operation budget": (lambda: bsa_operation(CERTIFIED, 2, budget=-1, seed=0), "budget"),
    "max_pair equal projectors": (lambda: max_pair(RHO, PSI, -PSI), "psi1 and psi2"),
    "apply route": (lambda: apply(identity_channel(2), np.eye(2) / 2, route="dual"), "route"),
    "partial_transpose which": (lambda: partial_transpose(np.eye(4), SH22, which="C"), "which"),
    "transpose_conjugations mode": (lambda: transpose_conjugations(identity_channel(2), "up"),
                                    "mode"),
    "Tolerance negative atol": (lambda: Tolerance(atol=-1e-9), "atol"),
    "Tolerance negative rtol": (lambda: Tolerance(rtol=-1e-9), "rtol"),
    "Tolerance NaN atol": (lambda: Tolerance(atol=math.nan), "atol"),
    "Tolerance infinite rtol": (lambda: Tolerance(rtol=math.inf), "rtol"),
    "bsa_state seed": (lambda: bsa_state(RHO, SH22, budget=2, seed=-1), "seed"),
    "bsa_operation seed": (lambda: bsa_operation(CERTIFIED, 2, budget=2, seed=-1), "seed"),
    "candidate_products seed": (lambda: candidate_products(RHO, SH22, 2, seed=-1), "seed"),
    "osa_fixed_set seed": (lambda: osa_fixed_set(RHO, [], seed=-1), "seed"),
    "random_state seed": (lambda: random_state(4, -1), "seed"),
    "random_cp_channel seed": (lambda: random_cp_channel(2, 2, -1), "seed"),
    "random_product_mixture seed": (lambda: random_product_mixture(2, 2, 3, np.int64(-1)),
                                    "seed"),
    "rotated_basis seed": (lambda: rotated_basis(2, -1), "seed"),
    "random_state float seed": (lambda: random_state(4, 1.5), "seed"),
    "random_state str seed": (lambda: random_state(4, "a"), "seed"),
    "bsa_state float budget": (lambda: bsa_state(RHO, SH22, budget=1.5, seed=0), "budget"),
    "bsa_operation float budget": (lambda: bsa_operation(CERTIFIED, 2, budget=2.0, seed=0),
                                   "budget"),
    "bsa_state float seed": (lambda: bsa_state(RHO, SH22, budget=2, seed=1.5), "seed"),
    "Tolerance str atol": (lambda: Tolerance(atol="x"), "atol"),
}


@pytest.mark.parametrize("site", SITES)
def test_invalid_argument_is_typed_and_names_the_argument(site):
    call, name = SITES[site]
    with pytest.raises(ChoiscopeError, match=name) as info:
        call()
    assert isinstance(info.value, InvalidArgument)
    assert isinstance(info.value, ValueError)

