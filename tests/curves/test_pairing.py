"""Pairing correctness: bilinearity, non-degeneracy, and the verifier's
product-check interface.  These are the properties Groth16 consumes."""

import dataclasses

import pytest

from repro.curves import BLS12_381, BN128, PairingEngine, engine_for, get_curve
from repro.fields.prime_field import PrimeField
from tests.oracle import fp12_add, fp12_pow, fp12_scalar, frobenius_point, untwist_g2


@pytest.fixture(params=["bn128", "bls12_381"], scope="module")
def engine(request):
    curve = BN128 if request.param == "bn128" else BLS12_381
    return PairingEngine(curve)


@pytest.fixture(scope="module")
def base_pairing(engine):
    c = engine.curve
    return engine.pairing(c.g1.generator, c.g2.generator)


class TestPairingProperties:
    def test_non_degenerate(self, base_pairing):
        assert not base_pairing.is_one()

    def test_value_in_order_r_subgroup(self, engine, base_pairing):
        assert fp12_pow(base_pairing, engine.curve.fr.modulus).is_one()

    def test_bilinear_in_g1(self, engine, base_pairing):
        c = engine.curve
        lhs = engine.pairing(c.g1.generator * 5, c.g2.generator)
        assert lhs == fp12_pow(base_pairing, 5)

    def test_bilinear_in_g2(self, engine, base_pairing):
        c = engine.curve
        lhs = engine.pairing(c.g1.generator, c.g2.generator * 7)
        assert lhs == fp12_pow(base_pairing, 7)

    def test_bilinear_both_slots(self, engine, base_pairing):
        c = engine.curve
        lhs = engine.pairing(c.g1.generator * 3, c.g2.generator * 4)
        assert lhs == fp12_pow(base_pairing, 12)

    def test_inverse_slot(self, engine, base_pairing):
        c = engine.curve
        lhs = engine.pairing(-c.g1.generator, c.g2.generator)
        assert lhs * base_pairing == engine.tower.fp12_one()

    def test_identity_inputs_give_one(self, engine):
        c = engine.curve
        assert engine.pairing(c.g1.infinity(), c.g2.generator).is_one()
        assert engine.pairing(c.g1.generator, c.g2.infinity()).is_one()


class TestMultiPairing:
    def test_cancelling_product_is_one(self, engine):
        c = engine.curve
        P, Q = c.g1.generator, c.g2.generator
        assert engine.pairing_check([(P * 6, Q), (-(P * 2), Q * 3)])

    def test_non_cancelling_product_is_not_one(self, engine):
        c = engine.curve
        P, Q = c.g1.generator, c.g2.generator
        assert not engine.pairing_check([(P * 6, Q), (-(P * 2), Q * 2)])

    def test_multi_matches_product_of_singles(self, engine):
        c = engine.curve
        P, Q = c.g1.generator, c.g2.generator
        single = engine.pairing(P * 2, Q) * engine.pairing(P, Q * 3)
        multi = engine.multi_pairing([(P * 2, Q), (P, Q * 3)])
        assert single == multi

    def test_empty_product_is_one(self, engine):
        assert engine.pairing_check([])


class TestInternals:
    def test_untwisted_generator_on_curve(self, engine):
        # psi(G2) must satisfy y^2 = x^3 + b in E(Fp12).
        c = engine.curve
        x, y = untwist_g2(engine, c.g2.generator.to_affine())
        b = fp12_scalar(engine.tower, c.g1.b)
        assert y * y == fp12_add(x * x * x, b)

    def test_frobenius_point_stays_on_curve(self, engine):
        c = engine.curve
        R = untwist_g2(engine, c.g2.generator.to_affine())
        Rp = frobenius_point(R)
        b = fp12_scalar(engine.tower, c.g1.b)
        x, y = Rp
        assert y * y == fp12_add(x * x * x, b)

    def test_final_exponentiation_of_zero_raises(self, engine):
        with pytest.raises(ZeroDivisionError):
            engine.final_exponentiation(fp12_scalar(engine.tower, 0))


class TestConstruction:
    def test_family_polynomials_rebuild_the_curve(self, engine):
        # CurveSpec.parameter is what the hard part exponentiates by.
        curve = engine.curve
        z, p, r = curve.parameter, curve.fq.modulus, curve.fr.modulus
        if curve.family == "bn":
            assert p == 36 * z**4 + 36 * z**3 + 24 * z**2 + 6 * z + 1
            assert r == 36 * z**4 + 36 * z**3 + 18 * z**2 + 6 * z + 1
            assert curve.ate_loop == 6 * z + 2
        else:
            assert r == z**4 - z**2 + 1
            assert 3 * (p - z) == (z - 1) ** 2 * r
            assert curve.ate_loop == abs(z) and curve.x_negative == (z < 0)

    def test_wrong_subgroup_order_is_rejected(self, engine):
        curve = engine.curve
        wrong = PrimeField(curve.fr.modulus + 2, "not-r")
        with pytest.raises(ValueError, match="does not divide"):
            PairingEngine(dataclasses.replace(curve, fr=wrong))

    @pytest.mark.parametrize("delta", [1, 3, -3])
    def test_wrong_parameter_is_rejected(self, engine, delta):
        curve = engine.curve
        with pytest.raises(ValueError, match="parameter"):
            PairingEngine(dataclasses.replace(curve, parameter=curve.parameter + delta))

    def test_one_engine_per_curve_and_process(self, engine):
        curve = engine.curve
        assert engine_for(get_curve(curve.name)) is engine_for(curve)
        assert engine_for(curve).curve is curve
