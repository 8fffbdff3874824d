"""PLONK constraint systems, lowered from the compiled R1CS.

A PLONK circuit is a table of *gates*, each constraining three wire values
``(a, b, c)`` through five selectors:

    ``qM*a*b + qL*a + qR*b + qO*c + qC + PI == 0``

plus *copy constraints*: wire slots referring to the same variable must
carry equal values, enforced by the permutation argument.  Public inputs
occupy the first rows (``qL = 1``) and enter the identity through the
public-input polynomial.

There is no second front end: :func:`compile_plonk` lowers the
:class:`~repro.circuit.compiler.CompiledCircuit` that Groth16 sets up from,
as snarkjs's ``plonk setup`` reads circom's ``.r1cs``.  R1CS wire ids are
the PLONK variables (wire 0 is the constant one, folded into the
selectors and never constrained), and the witness is the vector
:func:`~repro.groth16.witness.generate_witness` returns, extended by
:meth:`CompiledPlonk.assignment` with the helper values.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CompiledPlonk", "compile_plonk"]

#: Selector columns, in the order a gate row stores them.
SELECTOR_NAMES = ("ql", "qr", "qo", "qm", "qc")


@dataclass
class CompiledPlonk:
    """The padded gate table plus permutation data the protocol consumes.

    Row layout: ``n_public`` public-input rows first (``qL=1``; the PI
    polynomial cancels them), then the lowered constraints, then padding
    rows of all-zero selectors, to a power-of-two ``n``.
    """

    fr: object
    n: int
    selectors: dict          # name -> list of n ints (ql, qr, qo, qm, qc)
    wires: tuple             # (a_vars, b_vars, c_vars): variable id per row
    public_vars: list
    n_wires: int             # R1CS witness length; helper k is variable n_wires + k
    additions: list          # (x, cx, y, cy): helper = cx*x + cy*y, in helper order

    @property
    def n_public(self):
        return len(self.public_vars)

    def assignment(self, witness):
        """Extend an R1CS witness vector with the helper values."""
        if len(witness) != self.n_wires:
            raise ValueError(f"witness length {len(witness)} != n_wires {self.n_wires}")
        fr = self.fr
        values = list(witness)
        for x, cx, y, cy in self.additions:
            values.append(fr.add(fr.mul(cx, values[x]), fr.mul(cy, values[y])))
        return values

    def wire_values(self, values):
        """Per-column value vectors for an assignment."""
        return tuple([values[v] for v in col] for col in self.wires)

    def check(self, values):
        """Check every row against an assignment, *including* the
        public-input rows (whose PI term cancels ``qL * x_i``).

        Returns ``None`` when satisfied, else the first violating row.
        """
        fr = self.fr
        wa, wb, wc = self.wire_values(values)
        ql, qr, qo, qm, qc = (self.selectors[name] for name in SELECTOR_NAMES)
        for row in range(self.n):
            acc = fr.lincomb(((ql[row], wa[row]), (qr[row], wb[row]),
                              (qo[row], wc[row]), (qm[row], fr.mul(wa[row], wb[row]))),
                             qc[row])
            if row < self.n_public:
                acc = fr.sub(acc, values[self.public_vars[row]])  # PI_i = -x_i
            if acc != 0:
                return row
        return None


def compile_plonk(circuit):
    """Lower a :class:`~repro.circuit.compiler.CompiledCircuit` into the
    padded gate table (see :class:`CompiledPlonk`).

    Each constraint ``(sum a)(sum b) = sum c`` becomes one gate.  A
    combination with more than one variable term is first folded, two
    terms at a time, by helper add gates (snarkjs's "plonk additions");
    terms are taken in wire order, so the table is deterministic.
    """
    r1cs = circuit.r1cs
    r = r1cs.fr.modulus
    publics = r1cs.public_wires[1:]
    rows = [(1, 0, 0, 0, 0, w, 0, 0) for w in publics]
    additions = []

    def fold(lc):
        """Reduce *lc* to ``coeff * var + const``; ``coeff`` is 0 (on wire
        0) when *lc* has no variable term."""
        terms = sorted((w, c) for w, c in lc.items() if w)
        if not terms:
            return 0, 0, lc.get(0, 0)
        var, coeff = terms[0]
        for w, c in terms[1:]:
            helper = r1cs.n_wires + len(additions)
            additions.append((var, coeff, w, c))
            rows.append((coeff, c, r - 1, 0, 0, var, w, helper))
            var, coeff = helper, 1
        return coeff, var, lc.get(0, 0)

    for cons in r1cs.constraints:
        ca, a, ka = fold(cons.a)
        cb, b, kb = fold(cons.b)
        cc, c, kc = fold(cons.c)
        # (ca*a + ka)(cb*b + kb) - (cc*c + kc) == 0
        rows.append((ca * kb % r, cb * ka % r, -cc % r, ca * cb % r,
                     (ka * kb - kc) % r, a, b, c))

    n = 2
    while n < len(rows):
        n *= 2
    rows.extend([(0,) * 8] * (n - len(rows)))
    cols = list(zip(*rows))
    return CompiledPlonk(
        fr=r1cs.fr,
        n=n,
        selectors={name: list(col) for name, col in zip(SELECTOR_NAMES, cols)},
        wires=tuple(list(col) for col in cols[5:]),
        public_vars=list(publics),
        n_wires=r1cs.n_wires,
        additions=additions,
    )
