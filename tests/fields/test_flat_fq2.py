"""Flat lazy-reduction Fq2 kernels (docs/KERNELS.md, "Flat Fq2 arithmetic").

``TowerParams.f2_*`` combine exact integers and reduce once per output
component instead of routing every base-field step through ``PrimeField``.
These tests pin the two halves of that contract:

- **values** — hypothesis properties on both towers against a schoolbook
  reference written here on plain integers, edge operands and canonical
  outputs;
- **traced counts** — literal ``Counter`` + clock pins captured on the
  nested formulation (the commit before the flat rewrite) for each kernel,
  one G2 ``double`` / ``add_affine`` and one pairing per curve.  Nothing
  else in tier-1 fixes the tower's primitive stream: a Karatsuba ``Fp6``
  changes every pairing count and still passes every value test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import PairingEngine, get_curve
from repro.fields.extensions import TowerParams
from repro.fields.params import BLS12_381_TOWER, BN254_TOWER
from repro.fields.prime_field import PrimeField
from repro.perf.trace import Tracer, tracing

TOWERS = {"bn128": BN254_TOWER, "bls12_381": BLS12_381_TOWER}


# -- schoolbook reference on plain integers (u^2 = -1) -------------------------


def ref_mul(p, a, b):
    return ((a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)


def ref_add(p, a, b):
    return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)


def ref_sub(p, a, b):
    return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)


def edge_operands(p):
    return [(0, 0), (1, 0), (0, 1), (p - 1, 0), (0, p - 1), (p - 1, p - 1), (1, p - 1)]


def fq2(p):
    """Mostly uniform pairs, with the edge components mixed in."""
    component = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    return st.tuples(component, component)


def canonical(p, c):
    return 0 <= c[0] < p and 0 <= c[1] < p


#: Parametrization, not a fixture: hypothesis rejects function-scoped fixtures.
both_towers = pytest.mark.parametrize(
    "tower", [TOWERS[name] for name in sorted(TOWERS)], ids=sorted(TOWERS))


# -- values ------------------------------------------------------------------------


@both_towers
class TestAgainstSchoolbook:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mul_sqr_xi_scale(self, tower, data):
        p = tower.fq.modulus
        a, b = data.draw(fq2(p)), data.draw(fq2(p))
        k = data.draw(st.integers(0, p - 1))
        assert tower.f2_mul(a, b) == ref_mul(p, a, b)
        assert tower.f2_mul(a, b) == tower.f2_mul(b, a)
        assert tower.f2_sqr(a) == tower.f2_mul(a, a) == ref_mul(p, a, a)
        assert tower.f2_mul_xi(a) == tower.f2_mul(a, tower.xi) == ref_mul(p, a, tower.xi)
        assert tower.f2_scale(a, k) == ref_mul(p, a, (k, 0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_add_sub_neg_round_trips(self, tower, data):
        p = tower.fq.modulus
        a, b = data.draw(fq2(p)), data.draw(fq2(p))
        assert tower.f2_add(a, b) == ref_add(p, a, b)
        assert tower.f2_sub(a, b) == ref_sub(p, a, b)
        assert tower.f2_neg(a) == ref_sub(p, (0, 0), a)
        assert tower.f2_sub(tower.f2_add(a, b), b) == a
        assert tower.f2_add(tower.f2_sub(a, b), b) == a
        assert tower.f2_neg(tower.f2_neg(a)) == a
        assert tower.f2_add(a, tower.f2_neg(a)) == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inv(self, tower, data):
        p = tower.fq.modulus
        a = data.draw(fq2(p).filter(lambda c: c != (0, 0)))
        inv = tower.f2_inv(a)
        assert canonical(p, inv)
        assert tower.f2_mul(inv, a) == (1, 0)
        assert ref_mul(p, inv, a) == (1, 0)

    def test_edge_operands(self, tower):
        p = tower.fq.modulus
        edges = edge_operands(p)
        for a in edges:
            unary = [tower.f2_neg(a), tower.f2_sqr(a), tower.f2_mul_xi(a),
                     tower.f2_scale(a, p - 1), tower.f2_scale(a, 0)]
            assert tower.f2_sqr(a) == ref_mul(p, a, a)
            assert tower.f2_mul_xi(a) == ref_mul(p, a, tower.xi)
            assert tower.f2_scale(a, p - 1) == ref_mul(p, a, (p - 1, 0))
            if a != (0, 0):
                unary.append(tower.f2_inv(a))
                assert tower.f2_mul(tower.f2_inv(a), a) == (1, 0)
            for b in edges:
                assert tower.f2_mul(a, b) == ref_mul(p, a, b)
                assert tower.f2_add(a, b) == ref_add(p, a, b)
                assert tower.f2_sub(a, b) == ref_sub(p, a, b)
                unary += [tower.f2_mul(a, b), tower.f2_add(a, b), tower.f2_sub(a, b)]
            assert all(canonical(p, c) for c in unary), a

    def test_inverse_of_zero_raises(self, tower):
        with pytest.raises(ZeroDivisionError):
            tower.f2_inv((0, 0))

    def test_u_squared_is_minus_one(self, tower):
        p = tower.fq.modulus
        assert tower.f2_sqr((0, 1)) == tower.f2_mul((0, 1), (0, 1)) == (p - 1, 0)


class TestBetaIsMinusOne:
    def test_other_beta_rejected(self):
        f = PrimeField(7, "f7")  # 7 = 1 (mod 6), so only beta can be at fault
        TowerParams(f, beta=-1, xi=(1, 1))
        TowerParams(f, beta=6, xi=(1, 1))  # -1 mod 7
        for beta in (3, 5, 0, 1):
            with pytest.raises(ValueError, match="beta"):
                TowerParams(f, beta=beta, xi=(1, 1))

    @both_towers
    def test_shipped_towers(self, tower):
        assert tower.beta == tower.fq.modulus - 1


# -- traced counts -----------------------------------------------------------------

#: One nested-formulation ``f2_mul``: Karatsuba's 3 products + the explicit
#: multiply by beta, 3 additions, 2 subtractions.
_MUL = {"mul": 4, "add": 3, "sub": 2}

#: kernel -> (primitive counts by kind, clock); identical on both towers up
#: to the limb suffix.  Captured on the parent commit.
KERNEL_PINS = {
    "f2_mul": (_MUL, 9),
    "f2_sqr": (_MUL, 9),
    "f2_mul_xi": (_MUL, 9),
    "f2_inv": ({"sqr": 2, "mul": 3, "sub": 1, "inv": 1, "add": 1}, 8),
    "f2_add": ({"add": 2}, 2),
    "f2_sub": ({"sub": 2}, 2),
    "f2_neg": ({"add": 2}, 2),
    "f2_scale": ({"mul": 2}, 2),
    "g2_double": ({"add": 39, "mul": 28, "sub": 24, "ec_dbl": 1}, 92),
    "g2_add_affine": ({"add": 45, "mul": 44, "sub": 38, "ec_add": 1}, 128),
    "g2_to_affine": ({"add": 13, "inv": 1, "mul": 19, "sqr": 2, "sub": 9}, 44),
}

#: One full pairing of the generators, Frobenius constants already cached
#: (their one-off ``f2_pow`` would otherwise land in whichever test runs first).
PAIRING_PINS = {
    "bn128": ({"bigint_add_4": 268188, "bigint_inv_4": 105, "bigint_mul_4": 231579,
               "bigint_sqr_4": 209, "bigint_sub_4": 147164,
               "pairing_final_exp": 1, "pairing_miller_loop": 1}, 647247),
    "bls12_381": ({"bigint_add_6": 330407, "bigint_inv_6": 72, "bigint_mul_6": 283080,
                   "bigint_sqr_6": 143, "bigint_sub_6": 175835,
                   "pairing_final_exp": 1, "pairing_miller_loop": 1}, 789539),
}


def _traced(fn):
    tracer = Tracer()
    with tracing(tracer):
        fn()
    return dict(tracer.total_counts()), tracer.clock


def _expand(curve, kinds):
    """``{"mul": 4, "ec_dbl": 1}`` -> this curve's primitive names."""
    limbs = curve.fq.limbs
    tag = curve.g2.ops.tag
    return {(f"{k}_{tag}" if k.startswith("ec_") else f"bigint_{k}_{limbs}"): n
            for k, n in kinds.items()}


@pytest.mark.parametrize("curve_name", sorted(TOWERS))
class TestTracedCountPins:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_PINS))
    def test_kernel(self, curve_name, kernel):
        curve = get_curve(curve_name)
        tower = curve.tower
        p = curve.fq.modulus
        a, b = (3, p - 5), (p - 7, 11)
        Q = curve.g2.generator.double()
        gx, gy = curve.g2.generator.to_affine()
        calls = {
            "f2_mul": lambda: tower.f2_mul(a, b),
            "f2_sqr": lambda: tower.f2_sqr(a),
            "f2_mul_xi": lambda: tower.f2_mul_xi(a),
            "f2_inv": lambda: tower.f2_inv(a),
            "f2_add": lambda: tower.f2_add(a, b),
            "f2_sub": lambda: tower.f2_sub(a, b),
            "f2_neg": lambda: tower.f2_neg(a),
            "f2_scale": lambda: tower.f2_scale(a, 12345),
            "g2_double": Q.double,
            "g2_add_affine": lambda: Q.add_affine(gx, gy),
            "g2_to_affine": Q.to_affine,
        }
        kinds, clock = KERNEL_PINS[kernel]
        assert _traced(calls[kernel]) == (_expand(curve, kinds), clock)

    def test_zero_inverse_reports_the_norm_before_raising(self, curve_name):
        curve = get_curve(curve_name)
        tracer = Tracer()
        with tracing(tracer), pytest.raises(ZeroDivisionError):
            curve.tower.f2_inv((0, 0))
        assert dict(tracer.root.counts) == _expand(curve, {"sqr": 2, "mul": 1, "sub": 1})

    def test_pairing(self, curve_name):
        curve = get_curve(curve_name)
        eng = PairingEngine(curve)
        assert curve.tower.frobenius_constants
        assert (_traced(lambda: eng.pairing(curve.g1.generator, curve.g2.generator))
                == PAIRING_PINS[curve_name])
