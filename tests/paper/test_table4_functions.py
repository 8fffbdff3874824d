"""Table IV — time-consuming functions per stage (VTune hotspot view).

Paper: big-integer computation (bigint), dynamic memory allocation
(malloc / heap allocation), data movement (memcpy) and the page-fault
handler dominate CPU time; in compile malloc ~12% and memcpy ~8%;
bigint is a top hotspot of proving/verifying.

Claims asserted: the same function families appear as hotspots, with the
compile stage's malloc/memcpy shares in the paper's ~10% band and bigint
leading the cryptographic stages.
"""

from repro.harness.experiments import table4_functions


def test_table4_functions(sweep):
    result = table4_functions(sweep)
    shares = result.extras["shares"]

    # Compile: malloc ~12%, memcpy ~8% (paper's headline numbers).
    assert 0.06 <= shares["compile"]["malloc"] <= 0.25
    assert 0.04 <= shares["compile"]["memcpy"] <= 0.20
    assert shares["compile"].get("bigint", 0) > 0.02
    assert shares["compile"].get("heap allocation", 0) > 0.0

    # bigint dominates the cryptographic stages (setup/proving/verifying).
    for stage in ("setup", "proving", "verifying"):
        top = max(shares[stage], key=shares[stage].get)
        assert top == "bigint", (stage, top)

    # The witness stage is interpreter-dominated (WASM calculator).
    top_witness = max(shares["witness"], key=shares["witness"].get)
    assert top_witness == "interpreter"

    # The page-fault handler shows up as a measurable witness hotspot.
    assert shares["witness"].get("page fault exception handler", 0) > 0.01

    # memcpy registers in the proving stage's profile (paper: ~10%).
    assert shares["proving"].get("memcpy", 0) > 0.0
