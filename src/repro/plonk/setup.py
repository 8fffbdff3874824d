"""PLONK preprocessing: SRS, selector and permutation commitments.

Unlike Groth16's per-circuit trusted setup, PLONK's SRS is *universal*;
only the (transparent) selector/permutation commitments are per-circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plonk.circuit import compile_plonk
from repro.plonk.kzg import KZG, SRS
from repro.poly.domain import EvaluationDomain
from repro.poly.ntt import coset_ntt, intt

__all__ = ["PlonkPreprocessed", "plonk_setup", "build_permutation", "to_coset"]


def to_coset(fr, coeffs, coset):
    """Evaluate a coefficient vector on the quotient's coset domain."""
    return coset_ntt(fr, list(coeffs) + [0] * (coset.size - len(coeffs)), coset)


def _find_coset_constants(fr, n, omega):
    """Find k1, k2 placing the three wire columns in disjoint cosets of H."""
    r = fr.modulus

    def in_H_ratio(k):
        return pow(k, n, r) == 1

    k1 = 2
    while in_H_ratio(k1):
        k1 += 1
    k2 = k1 + 1
    while in_H_ratio(k2) or in_H_ratio(k2 * pow(k1, -1, r) % r):
        k2 += 1
    return k1, k2


def build_permutation(compiled, domain, k1, k2):
    """The copy-constraint permutation as three evaluation vectors.

    Position ``(col, row)`` is labelled ``k_col * omega^row``; positions
    holding the same variable form a cycle, and ``sigma`` maps each
    position to the next one in its cycle.  Returns the per-column lists of
    sigma labels (the evaluations of ``s_sigma1..3`` on the domain).
    """
    fr = compiled.fr
    n = compiled.n
    ks = (1, k1, k2)
    omegas = domain.elements()

    # Gather positions per variable.
    cycles = {}
    for col in range(3):
        for row in range(n):
            var = compiled.wires[col][row]
            cycles.setdefault(var, []).append((col, row))

    sigma_label = [[0] * n for _ in range(3)]
    for positions in cycles.values():
        m = len(positions)
        for i, (col, row) in enumerate(positions):
            ncol, nrow = positions[(i + 1) % m]
            sigma_label[col][row] = fr.mul(ks[ncol], omegas[nrow])
    return sigma_label


@dataclass
class PlonkPreprocessed:
    """Everything the prover and verifier share for one circuit."""

    curve: object
    compiled: object            # CompiledPlonk
    domain: object              # size-n evaluation domain
    kzg: object
    k1: int
    k2: int
    selector_polys: dict        # name -> coefficient list
    selector_commits: dict      # name -> G1 point
    sigma_polys: list           # three coefficient lists
    sigma_commits: list         # three G1 points
    sigma_evals: list           # three evaluation vectors (prover-side)
    coset: object               # the quotient's domain, above deg t = 3n + 5
    selector_cosets: dict       # name -> evaluations on the coset
    sigma_cosets: list          # three evaluation vectors on the coset

    @property
    def n(self):
        return self.compiled.n

    @property
    def n_public(self):
        return self.compiled.n_public


def plonk_setup(curve, circuit, rng, srs=None):
    """Preprocess *circuit*, the :class:`~repro.circuit.compiler.CompiledCircuit`
    Groth16's ``setup`` takes, through its :func:`compile_plonk` lowering.

    *srs* may be shared across circuits (universality); when omitted a
    fresh one of size n + 8 is generated.  The largest committed
    polynomial, ``t_hi``, needs n + 6 points.
    """
    fr = curve.fr
    compiled = compile_plonk(circuit)
    n = compiled.n
    domain = EvaluationDomain(fr, n)
    if srs is None:
        srs = SRS.generate(curve, n + 8, rng)
    elif srs.size < n + 6:
        raise ValueError(f"SRS of size {srs.size} too small for n={n}")
    kzg = KZG(srs)

    k1, k2 = _find_coset_constants(fr, n, domain.omega)

    selector_polys = {}
    selector_commits = {}
    for name, evals in compiled.selectors.items():
        coeffs = intt(fr, list(evals), domain)
        selector_polys[name] = coeffs
        selector_commits[name] = kzg.commit(coeffs)

    sigma_evals = build_permutation(compiled, domain, k1, k2)
    sigma_polys = [intt(fr, list(col), domain) for col in sigma_evals]
    sigma_commits = [kzg.commit(p) for p in sigma_polys]

    # The smallest power-of-two coset above deg t = 3n + 5 (4n once n >= 8).
    coset = EvaluationDomain(fr, 1 << (3 * n + 5).bit_length())

    return PlonkPreprocessed(
        curve=curve,
        compiled=compiled,
        domain=domain,
        kzg=kzg,
        k1=k1,
        k2=k2,
        selector_polys=selector_polys,
        selector_commits=selector_commits,
        sigma_polys=sigma_polys,
        sigma_commits=sigma_commits,
        sigma_evals=sigma_evals,
        coset=coset,
        selector_cosets={name: to_coset(fr, p, coset)
                         for name, p in selector_polys.items()},
        sigma_cosets=[to_coset(fr, p, coset) for p in sigma_polys],
    )
