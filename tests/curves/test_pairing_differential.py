"""The two formulations of the pairing agree (docs/KERNELS.md, "Pairing kernels").

``PairingEngine`` runs the shared-squaring sparse-line Miller loop over line
sequences (walked live, or stored by ``prepare``) and the cyclotomic hard
part when no tracer is installed, and the textbook loop on ``E(Fp12)`` with
``f ** hard_exponent`` under one.  ``RUN.tracer`` is the
only selector, so the reference of every test here is the same public call
made under ``tracing(Tracer())`` — and the contract is equality of ``Fp12``
elements, not of pairings up to a final exponentiation.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves import BLS12_381, BN128, PairingEngine
from repro.curves.pairing import PreparedG2
from repro.fields.extensions import Fp12
from tests.oracle import cofactor_points, reference

CURVES = {"bn128": BN128, "bls12_381": BLS12_381}
ENGINES = {name: PairingEngine(curve) for name, curve in CURVES.items()}

#: Parametrization, not a fixture: hypothesis rejects function-scoped fixtures.
both_curves = pytest.mark.parametrize("name", sorted(CURVES))


def outcome(fn, *args):
    """The value, or the type of the exception, of one call."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point: any type counts
        return type(exc)


def random_fp12(tower, rng):
    p = tower.fq.modulus

    def pair():
        return (rng.randrange(p), rng.randrange(p))

    return Fp12(tower, (pair(), pair(), pair()), (pair(), pair(), pair()))


def easy_part(f):
    f1 = f.conjugate() * f.inverse()
    return f1.frobenius().frobenius() * f1


# -- the field kernels ----------------------------------------------------------------


@both_curves
class TestSparseAndCyclotomicKernels:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.sampled_from([0, 1]))
    def test_mul_by_line_is_the_dense_product_of_the_embedded_line(self, name, seed, k):
        tower = CURVES[name].tower
        rng = random.Random(seed)
        p = tower.fq.modulus
        f = random_fp12(tower, rng)
        s = rng.randrange(p)
        l0, l1 = (rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p))
        z = (0, 0)
        line = Fp12(tower, ((s, 0), z, z), (z, l0, l1) if k else (l0, l1, z))
        assert f.mul_by_line(s, l0, l1, k) == f * line

    def test_reference_lines_fill_the_documented_slots(self, name):
        # D-type: 1, w, w^3.  M-type: 1, w^3, w^5 (w^-3 and w^-1 over xi).
        eng = ENGINES[name]
        c = eng.curve
        P = eng.embed_g1((c.g1.generator * 5).to_affine())
        Q = eng.untwist_g2((c.g2.generator * 7).to_affine())
        R, tangent = eng._double_step(Q, P)
        _, chord = eng._add_step(R, Q, P)
        z = (0, 0)
        empty = 2 if name == "bn128" else 0
        for line in (tangent, chord):
            assert line.c0[1:] == (z, z) and line.c0[0][1] == 0
            assert line.c1[empty] == z and z not in line.c1[:empty] + line.c1[empty + 1:]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_cyclotomic_square_on_easy_part_outputs_only(self, name, seed):
        tower = CURVES[name].tower
        f = random_fp12(tower, random.Random(seed))
        g = easy_part(f)
        assert g.cyclotomic_square() == g.square() == g * g
        assert g.conjugate() * g == tower.fp12_one()
        # Outside the cyclotomic subgroup the formula is simply wrong, which
        # is why the engine applies it only after the easy part.
        assert f.cyclotomic_square() != f.square()


# -- the engine ------------------------------------------------------------------------


@both_curves
class TestFastEqualsReference:
    @settings(max_examples=8, deadline=None)
    @given(a=st.integers(1, 2**256), b=st.integers(1, 2**256))
    def test_miller_loop_and_pairing(self, name, a, b):
        eng = ENGINES[name]
        c = eng.curve
        P, Q = c.g1.generator * a, c.g2.generator * b
        if P.is_infinity() or Q.is_infinity():
            assert eng.pairing(P, Q).is_one()
            return
        f = eng.miller_loop(P.to_affine(), Q.to_affine())
        assert f == reference(eng.miller_loop, P.to_affine(), Q.to_affine())
        assert eng.pairing(P, Q) == reference(eng.final_exponentiation, f)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_final_exponentiation_of_any_nonzero_element(self, name, seed):
        # Not only Miller values: the hard part sees the easy part's output,
        # whatever went in.
        eng = ENGINES[name]
        f = random_fp12(eng.tower, random.Random(seed))
        assert eng.final_exponentiation(f) == easy_part(f) ** eng._hard_exponent

    def test_multi_pairing_products(self, name):
        eng = ENGINES[name]
        c = eng.curve
        P, Q = c.g1.generator, c.g2.generator
        cancelling = [(P * 6, Q), (-(P * 2), Q * 3)]
        for pairs in (cancelling, [(P * 6, Q), (-(P * 2), Q * 2)], [(P, c.g2.infinity())], []):
            assert eng.multi_pairing(pairs) == reference(eng.multi_pairing, pairs)
            assert eng.pairing_check(pairs) == reference(eng.pairing_check, pairs)
        assert eng.pairing_check(cancelling) and eng.pairing_check([])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shared_loop_is_the_product_of_reference_loops(self, name, n):
        # Live points and tables mixed, identities on either side: one loop,
        # f squared once a step, the element of n separate reference loops.
        eng = ENGINES[name]
        c = eng.curve
        rng = random.Random(f"{name}:{n}")
        product = eng.tower.fp12_one()
        pairs = [((c.g1.generator * 3).to_affine(), None)]
        for i in range(n):
            P = c.g1.random_point(rng).to_affine()
            Q = c.g2.random_point(rng).to_affine()
            product = product * reference(eng.miller_loop, P, Q)
            pairs.append((P, eng.prepare(Q) if (i + n) % 2 else Q))
        pairs.insert(n // 2, (None, eng.prepare(c.g2.generator.to_affine())))
        assert eng._miller_loops(pairs) == product
        assert eng._miller_loops(pairs[::-1]) == product

    def test_prepared_point_is_the_live_point(self, name):
        eng = ENGINES[name]
        c = eng.curve
        P, Q = c.g1.generator * 5, c.g2.generator * 9
        table = eng.prepare(Q.to_affine())
        assert isinstance(table, PreparedG2) and table.point == Q.to_affine()
        assert len(table.lines) == {"bn128": 102, "bls12_381": 68}[name]
        assert eng.prepare(table) is table and eng.prepare(None) is None
        f = reference(eng.miller_loop, P.to_affine(), Q.to_affine())
        assert eng.miller_loop(P.to_affine(), table) == f
        assert reference(eng.miller_loop, P.to_affine(), table) == f
        pairs = [(P, Q), (-P, Q)]
        stored = [(P, table), (-P, table)]
        assert eng.multi_pairing(stored) == reference(eng.multi_pairing, pairs)
        assert eng.multi_pairing(stored[:1], f) == reference(eng.multi_pairing, pairs[:1], f)
        assert reference(eng.multi_pairing, stored) == reference(eng.multi_pairing, pairs)
        assert eng.pairing_check(stored) and not eng.pairing_check(stored, f)


@both_curves
class TestDegenerateInputs:
    def test_twist_points_outside_the_subgroup(self, name):
        eng = ENGINES[name]
        P = (eng.curve.g1.generator * 11).to_affine()
        for Q in cofactor_points(eng.curve, 2):
            expected = outcome(reference, eng.miller_loop, P, Q)
            assert outcome(eng.miller_loop, P, Q) == expected
            assert outcome(eng.miller_loop, P, eng.prepare(Q)) == expected

    @pytest.mark.parametrize("extra", [0, 2], ids=["vertical-chord", "chord-is-tangent"])
    def test_chord_through_equal_abscissas_reruns_the_reference(self, name, extra):
        # A loop count of r (r + 2) brings R to -Q (Q) at the last addition,
        # which no point of order r meets under the curve's own count: the
        # reference multiplies by the vertical line and loses R (doubles).
        curve = CURVES[name]
        eng = PairingEngine(dataclasses.replace(curve, ate_loop=curve.fr.modulus + extra))
        P, Q = curve.g1.generator.to_affine(), curve.g2.generator.to_affine()
        with pytest.raises(ZeroDivisionError):
            list(eng._lines(Q))
        table = eng.prepare(Q)
        assert table.point == Q and table.lines is None
        expected = outcome(reference, eng.miller_loop, P, Q)
        # BN's Frobenius additions then meet R = None; BLS12 returns.
        assert (expected is TypeError) == (name == "bn128" and extra == 0)
        assert outcome(eng.miller_loop, P, Q) == expected          # walked live
        assert outcome(eng.miller_loop, P, table) == expected      # inside prepare
        # Among other pairs: that pair alone runs the reference.
        P2, Q2 = (curve.g1.generator * 3).to_affine(), (curve.g2.generator * 5).to_affine()
        among = [(P2, Q2), (P, Q), (P2, eng.prepare(Q2))]
        if expected is TypeError:
            with pytest.raises(TypeError):
                eng._miller_loops(among)
        else:
            other = reference(eng.miller_loop, P2, Q2)
            assert eng._miller_loops(among) == other * expected * other


# -- the selector ----------------------------------------------------------------------


@both_curves
class TestTracePinsTheReference:
    def test_fast_kernels_run_only_untraced(self, name, monkeypatch):
        eng = ENGINES[name]
        c = eng.curve
        calls = []
        for owner, attr in [(PairingEngine, "_miller_loops"),
                            (PairingEngine, "_pow_cyclotomic"),
                            (Fp12, "mul_by_line"), (Fp12, "cyclotomic_square")]:
            original = getattr(owner, attr)

            def spy(*args, _original=original, _attr=attr):
                calls.append(_attr)
                return _original(*args)

            monkeypatch.setattr(owner, attr, spy)
        traced = reference(eng.pairing, c.g1.generator, c.g2.generator)
        assert calls == []
        assert eng.pairing(c.g1.generator, c.g2.generator) == traced
        assert set(calls) == {"_miller_loops", "_pow_cyclotomic",
                              "mul_by_line", "cyclotomic_square"}
