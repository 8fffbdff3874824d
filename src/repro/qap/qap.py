"""R1CS -> QAP conversion.

The QAP view of an R1CS places constraint ``j`` at the ``j``-th point of a
power-of-two evaluation domain: column polynomials ``u_i, v_i, w_i`` (one
triple per wire) interpolate the sparse matrix columns, and a witness ``z``
satisfies the R1CS iff

    ``(sum_i z_i u_i) * (sum_i z_i v_i) - (sum_i z_i w_i) = h * Z``

for some quotient ``h``, with ``Z`` the domain's vanishing polynomial.

Two consumers, two representations:

- the **trusted setup** needs the columns evaluated at the toxic point
  ``tau`` (:func:`column_evaluations_at`, O(nnz + n) via Lagrange weights);
- the **prover** needs the quotient ``h`` (:func:`compute_h`, three inverse
  NTTs plus a coset round trip — the FFT workload of the proving stage).

Each computes its value one way, traced or not, and a traced call is
charged the per-operation route (docs/KERNELS.md, "Charging a
reference"): the column walk one ``field.mul`` and ``field.add`` a matrix
entry, the transforms their butterfly passes (:mod:`repro.poly.ntt`).
:func:`column_polynomials` materializes full coefficient forms for the
test-suite's equivalence checks.
"""

from __future__ import annotations

from repro.context import RUN, Tally, charge, region, scoped
from repro.poly.domain import EvaluationDomain
from repro.poly.ntt import coset_intt, coset_ntt, intt
from repro.poly.polynomial import Polynomial
from repro.resilience.errors import ArtifactCorruption

__all__ = ["qap_domain", "column_evaluations_at", "column_polynomials", "compute_h"]


def qap_domain(r1cs):
    """The smallest power-of-two domain hosting the system's constraints."""
    return EvaluationDomain.for_constraints(r1cs.fr, r1cs.n_constraints)


def column_evaluations_at(r1cs, domain, tau):
    """Evaluate every QAP column at *tau*.

    Returns ``(u, v, w)`` — three lists indexed by wire — computed as
    ``u_i(tau) = sum_j A[j][i] * L_j(tau)`` from the Lagrange weights, the
    way snarkjs' setup walks the constraint matrices once.  Lazy reduction
    (docs/KERNELS.md): exact integer products accumulate per column and
    each wire is reduced once at the end.  A traced call is charged the
    per-term walk, one ``field.mul`` and one ``field.add`` a matrix entry,
    in a ``parallel`` ``qap_columns_at_tau`` region.
    """
    f = r1cs.fr
    mod = f.modulus
    lag = domain.lagrange_at(tau)
    u = [0] * r1cs.n_wires
    v = [0] * r1cs.n_wires
    w = [0] * r1cs.n_wires
    for j, cons in enumerate(r1cs.constraints):
        lj = lag[j]
        for wire, coeff in cons.a.items():
            u[wire] += coeff * lj
        for wire, coeff in cons.b.items():
            v[wire] += coeff * lj
        for wire, coeff in cons.c.items():
            w[wire] += coeff * lj
    for col in (u, v, w):
        for i, x in enumerate(col):
            col[i] = x % mod
    t = RUN.tracer
    if t is not None:
        with t.region("qap_columns_at_tau", parallel=True, items=r1cs.n_constraints):
            with scoped("tracer", Tally()) as term:
                f.add(0, f.mul(0, 0))
            charge(t, term, r1cs.stats()["nonzeros"])
    return u, v, w


def column_polynomials(r1cs, domain):
    """Full coefficient-form columns ``(U, V, W)`` (lists of
    :class:`~repro.poly.polynomial.Polynomial` per wire).

    O(n_wires * n log n) — intended for tests and small systems; the
    protocol never materializes these.
    """
    f = r1cs.fr
    n = domain.size
    U, V, W = [], [], []
    cols_a = [[0] * n for _ in range(r1cs.n_wires)]
    cols_b = [[0] * n for _ in range(r1cs.n_wires)]
    cols_c = [[0] * n for _ in range(r1cs.n_wires)]
    for j, cons in enumerate(r1cs.constraints):
        for wire, coeff in cons.a.items():
            cols_a[wire][j] = coeff
        for wire, coeff in cons.b.items():
            cols_b[wire][j] = coeff
        for wire, coeff in cons.c.items():
            cols_c[wire][j] = coeff
    for i in range(r1cs.n_wires):
        U.append(Polynomial(f, intt(f, cols_a[i], domain)))
        V.append(Polynomial(f, intt(f, cols_b[i], domain)))
        W.append(Polynomial(f, intt(f, cols_c[i], domain)))
    return U, V, W


def compute_h(r1cs, witness, domain):
    """The quotient polynomial's coefficients ``h`` (length ``n - 1``).

    The proving stage's FFT pipeline: evaluate ``Az, Bz, Cz`` per
    constraint, inverse-NTT to coefficients, re-evaluate on the coset where
    ``Z`` is the non-zero constant ``g^n - 1``, divide pointwise, and come
    back.  Raises ``ValueError`` if the witness does not satisfy the system
    (the remainder would be non-zero).
    """
    f = r1cs.fr
    n = domain.size

    az = [0] * n
    bz = [0] * n
    cz = [0] * n

    with region("prove_constraint_dots", parallel=True, items=r1cs.n_constraints):
        for j, cons in enumerate(r1cs.constraints):
            az[j] = r1cs.eval_lc(cons.a, witness)
            bz[j] = r1cs.eval_lc(cons.b, witness)
            cz[j] = r1cs.eval_lc(cons.c, witness)

    for j in range(r1cs.n_constraints):
        if f.mul(az[j], bz[j]) != cz[j]:
            raise ValueError(f"witness does not satisfy constraint {j}; cannot build quotient")

    a_coeff = intt(f, az, domain)
    b_coeff = intt(f, bz, domain)
    c_coeff = intt(f, cz, domain)

    a_cos = coset_ntt(f, a_coeff, domain)
    b_cos = coset_ntt(f, b_coeff, domain)
    c_cos = coset_ntt(f, c_coeff, domain)

    # Z on the coset is the constant g^n - 1 (omega^(n*i) == 1).
    z_const = f.sub(pow(domain.coset_gen, n, f.modulus), 1)
    z_inv = f.inv(z_const)

    with region("prove_quotient_pointwise", parallel=True, items=n):
        h_cos = [
            f.mul(f.sub(f.mul(a_cos[i], b_cos[i]), c_cos[i]), z_inv)
            for i in range(n)
        ]

    h = coset_intt(f, h_cos, domain)
    # deg(A*B - C) <= 2n - 2, so deg(h) <= n - 2: the top coefficient
    # must vanish.  (A non-satisfying witness is caught above.)
    if h[n - 1] != 0:
        raise ArtifactCorruption(
            "quotient has unexpected degree; NTT pipeline inconsistency",
            artifact="quotient")
    return h[: n - 1]
