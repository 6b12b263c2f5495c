"""FieldCtx._log, the discrete log of the direct route, against an oracle
that needs neither numpy nor hypothesis (CI runs this file on the
requires-python floor with only pytest installed)."""

import pytest

from trinolab.gf3m import ctx_create

from conftest import OTHER_MODULI, ref_mul


@pytest.mark.parametrize(("k", "modulus"),
                         [(k, None) for k in (1, 2, 3, 4)] + OTHER_MODULI)
def test_log_matches_the_walk_of_alpha(k, modulus):
    # the oracle walks alpha^i by ref_mul, with no numpy and none of the
    # packed-int ops: _log(alpha^i) = i at every nonzero element
    ctx = ctx_create(k, modulus)
    x = 1
    for i in range(ctx.order - 1):
        assert ctx._log(x) == i, i
        x = ref_mul(x, ctx.alpha, ctx.modulus)
    assert x == 1
