"""Benchmark circuit generators.

The paper's evaluation uses one circuit family — ``exponentiate`` (``y =
x^e`` with the constraint count equal to ``e``, Section IV-A) — swept over
constraint sizes.  The extra generators here back the domain examples and
widen the test surface (hash preimage, range proof, dot product).
"""

from __future__ import annotations

from repro.circuit.dsl import CircuitBuilder
from repro.circuit import gadgets

__all__ = [
    "WORKLOADS",
    "build_dot_product",
    "build_exponentiate",
    "build_gadget_zoo",
    "build_hash_preimage",
    "build_poseidon_chain",
    "build_range_batch",
    "build_range_proof",
    "build_workload",
    "lint_targets",
]


def build_exponentiate(curve, n_constraints, x_value=3):
    """The paper's benchmark: prove knowledge of ``x`` with ``y = x^n``.

    Returns ``(builder, inputs)``.  The exponent equals the constraint
    count (each power is one multiplication gate, Fig. 2); ``x`` is the
    prover's private input and ``y`` the public output.
    """
    if n_constraints < 1:
        raise ValueError(f"need at least one constraint, got {n_constraints}")
    b = CircuitBuilder(f"exponentiate_{n_constraints}", curve.fr)
    x = b.private_input("x")
    y = gadgets.exponentiate(b, x, n_constraints)
    b.output(y, "y")
    return b, {"x": x_value}


def build_hash_preimage(curve, chain_length=4, preimage=12345):
    """Prove knowledge of a preimage of a MiMC hash chain digest.

    The motivating "privacy" workload of the paper's introduction: the
    digest is public, the preimage private.
    """
    b = CircuitBuilder(f"hash_preimage_{chain_length}", curve.fr)
    values = [b.private_input(f"m{i}") for i in range(chain_length)]
    digest = gadgets.mimc_hash_chain(b, values)
    b.output(digest, "digest")
    inputs = {f"m{i}": preimage + i for i in range(chain_length)}
    return b, inputs


def build_range_proof(curve, n_bits=32, value=123456, bound=2**31):
    """Prove that a private value lies below a public bound (n-bit range).

    The classic credential-style statement (age/balance checks) from the
    ZKP application literature the paper cites.
    """
    b = CircuitBuilder(f"range_proof_{n_bits}", curve.fr)
    v = b.private_input("value")
    bound_sig = b.public_input("bound")
    # Both operands are constrained to n_bits, then compared.
    gadgets.num_to_bits(b, v, n_bits)
    ok = gadgets.less_than(b, v, bound_sig, n_bits)
    b.assert_equal(ok, b.constant(1))
    return b, {"value": value, "bound": bound}


def build_poseidon_chain(curve, n_constraints, preimage=777):
    """A Poseidon hash chain sized to approximately *n_constraints*.

    The hash-heavy workload class (Zcash-style commitment trees) — used by
    the workload-sensitivity experiment to check that the exponentiation
    circuit's characterization generalizes.
    """
    from repro.circuit.poseidon import PoseidonParams, poseidon_hash

    b = CircuitBuilder(f"poseidon_chain_{n_constraints}", curve.fr)
    params = PoseidonParams(curve.fr)
    per_perm = 3 * (params.full_rounds * params.t + params.partial_rounds)
    links = max(1, n_constraints // per_perm)
    digest = b.private_input("m")
    for _ in range(links):
        digest = poseidon_hash(b, [digest], params)
    b.output(digest, "digest")
    return b, {"m": preimage}


def build_range_batch(curve, n_constraints, seed=3):
    """A batch of independent 16-bit range checks sized to roughly
    *n_constraints* (to the nearest whole check) — the
    bit-decomposition-heavy workload class."""
    b = CircuitBuilder(f"range_batch_{n_constraints}", curve.fr)
    inputs = {}
    rng_state = seed
    ok_acc = b.constant(1)
    while True:
        before = len(b.constraints)
        rng_state = (rng_state * 1103515245 + 12345) % (1 << 31)
        name = f"v{len(inputs)}"
        sig = b.private_input(name)
        inputs[name] = rng_state % 50_000
        ok = gadgets.less_than(b, sig, b.constant(60_000), 16)
        ok_acc = b.mul(ok_acc, ok)
        per_check = len(b.constraints) - before
        if len(b.constraints) + per_check / 2 >= n_constraints:
            break
    b.output(ok_acc, "all_in_range")
    return b, inputs


#: Workload registry for the harness: name -> builder(curve, size).
WORKLOADS = {
    "exponentiate": build_exponentiate,
    "poseidon": build_poseidon_chain,
    "range": build_range_batch,
}


def build_workload(name, curve, size):
    """Instantiate a registered workload at (approximately) *size*
    constraints; returns ``(builder, inputs)``."""
    try:
        builder_fn = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return builder_fn(curve, size)


def build_gadget_zoo(curve, n_options=4):
    """One circuit exercising every gadget in the toolbox.

    Exists for the static analyzer (``repro lint``): a soundness
    regression in any gadget — a hint left unconstrained, a comparator
    losing its booleanity checks — shows up here as a diagnostic.
    """
    b = CircuitBuilder(f"gadget_zoo_{n_options}", curve.fr)
    x = b.private_input("x")
    y = b.private_input("y")
    idx = b.public_input("idx")
    eq = gadgets.is_equal(b, x, y)
    lt = gadgets.less_than(b, x, y, 16)
    both = gadgets.logical_and(b, eq, lt)
    either = gadgets.logical_or(b, eq, lt)
    odd = gadgets.logical_xor(b, eq, lt)
    picked = gadgets.mux(b, eq, x, y)
    quot = gadgets.divide(b, x, y + 1)
    options = [picked + i for i in range(n_options)]
    chosen = gadgets.select(b, idx, options)
    digest = gadgets.mimc_hash_chain(b, [chosen, quot, both + either + odd])
    b.output(digest, "digest")
    return b, {"x": 37, "y": 41, "idx": n_options - 1}


def build_dot_product(curve, length=8, seed=7):
    """Prove a claimed inner product of a private vector with a public one.

    A miniature of the verifiable-ML/linear-programming workloads the
    paper's introduction uses to motivate constraint-system growth.
    """
    b = CircuitBuilder(f"dot_product_{length}", curve.fr)
    xs = [b.private_input(f"x{i}") for i in range(length)]
    ws = [b.public_input(f"w{i}") for i in range(length)]
    out = gadgets.dot_product(b, xs, ws)
    b.output(out, "y")
    inputs = {}
    for i in range(length):
        inputs[f"x{i}"] = (seed * (i + 1)) % 97
        inputs[f"w{i}"] = (seed + i) % 89
    return b, inputs


#: Sizes used by ``lint_targets`` for the size-parameterized workloads —
#: small enough to analyze in milliseconds, large enough to be
#: representative.
_LINT_SIZES = {"exponentiate": 64, "poseidon": 256, "range": 128}


def lint_targets(curve):
    """Every built-in circuit, instantiated for static analysis.

    Returns ``{name: (builder, inputs, expected_constraints)}`` — the
    registry ``repro lint`` walks.  ``expected_constraints`` feeds the
    ZK402 blowup lint where the generator takes a target size (``None``
    where no expectation exists).
    """
    targets = {}
    for name, size in _LINT_SIZES.items():
        builder, inputs = build_workload(name, curve, size)
        targets[name] = (builder, inputs, size)
    for builder, inputs in (
        build_hash_preimage(curve),
        build_range_proof(curve),
        build_dot_product(curve),
        build_gadget_zoo(curve),
    ):
        targets[builder.name] = (builder, inputs, None)
    return targets
