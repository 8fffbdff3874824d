"""Fig. 4 — top-down microarchitecture analysis.

Paper claims reproduced and asserted:

- the *witness* and *verifying* stages are front-end bound on ALL CPUs;
- *compile* is back-end bound on the i5 and i9 but front-end bound on the
  i7 (Key Takeaway 1's headline example);
- *setup* is front-end bound on the i5 and back-end bound on the i9;
- *proving* is front-end bound on the i7 and back-end bound on the i9
  (on the i5 it sits in the back-end/bad-speculation categories);
- BN128 and BLS12-381 produce similar classifications.
"""

from repro.harness.experiments import fig4_topdown
from repro.workflow import STAGES


def test_fig4_topdown(sweep):
    result = fig4_topdown(sweep)
    majority = result.extras["majority"]

    # Witness and verifying: front-end bound everywhere.
    for stage in ("witness", "verifying"):
        for cpu in ("i7", "i5", "i9"):
            assert majority[(stage, cpu)] == "frontend", (stage, cpu)

    # Compile: FE on i7, BE on i5/i9.
    assert majority[("compile", "i7")] == "frontend"
    assert majority[("compile", "i5")] == "backend"
    assert majority[("compile", "i9")] == "backend"

    # Setup: FE on i5, BE on i9.
    assert majority[("setup", "i5")] == "frontend"
    assert majority[("setup", "i9")] == "backend"

    # Proving: FE on i7, BE (or bad speculation) on i5, BE on i9.
    assert majority[("proving", "i7")] == "frontend"
    assert majority[("proving", "i5")] in ("backend", "bad_speculation")
    assert majority[("proving", "i9")] == "backend"


def test_fig4_curves_agree(sweep):
    """BN128 and BLS12-381 show similar behaviour (paper, Section IV-B)."""
    result = fig4_topdown(sweep)
    fractions = result.extras["fractions"]
    sizes = sorted({k[3] for k in fractions})
    for stage in STAGES:
        for cpu in ("i7", "i5", "i9"):
            for size in sizes:
                bn = fractions[(stage, cpu, "BN", size)]
                bls = fractions[(stage, cpu, "BLS", size)]
                for cat in bn:
                    assert abs(bn[cat] - bls[cat]) < 0.25, (stage, cpu, size, cat)


def test_fig4_fractions_are_distributions(sweep):
    result = fig4_topdown(sweep)
    for key, frac in result.extras["fractions"].items():
        total = sum(frac.values())
        assert abs(total - 1.0) < 1e-9, key
        assert all(v >= 0 for v in frac.values()), key
