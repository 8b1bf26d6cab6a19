"""`extensions`: sampled validation of symbolic structures over growing windows.

The unital (T1), ring (T0) and double extensions multiply letter by letter
over direct-sum word forms, so `coproduct.word_form`/`normalize_word` do
almost all the work, and a product's cost grows with the tails in the
window.  Free modules run it twice: with an off-absorber basepoint the
action is letter-wise, with the absorber basepoint it takes the
component-wise fast path and never builds a word (the bypass).

Sample counts are fixed per family so that, at today's cost, every case
sits well away from the 1 s limit (a case's time varies about 2x between
seeds and over time on a shared machine): T1/T0 decide at windows 5, 10
and 20 and hit the limit at 100 (at 50 the two-element base TC2 lands on
the limit); a double extension nests the word machinery and hits it at
window 20.

The perturbed-base cases must find a violation in their samples.  Over
every one-entry perturbation of TZ3 at least 19 % of samples hit one
(measured on T0 through cell (2, 2) with 2.2 = 2), so 100 samples miss
with probability below 1e-9; at 20 samples the miss rate was about 1 %
and a run could report a pass for a non-truss.  At 100 samples window 20
sits on the limit, so the perturbed cases use windows 5, 10 and 100.
"""

from __future__ import annotations

import oracles as O
from harness import Case, verdict

WINDOWS = (5, 10, 20, 100)
MODULE_WINDOWS = (5, 10, 20, 50)
EXTENSION_SAMPLES = 20
DOUBLE_SAMPLES = 25
MODULE_SAMPLES = 200
PERTURBED_SAMPLES = 100
PERTURBED_WINDOWS = (5, 10, 100)
DOUBLE_WINDOWS = (5, 20)
DORROH_RINGS = (2, 3)
DORROH_WINDOWS = range(2, 9)


def build(tk, seed):
    trusses, modules, rings = tk.trusses, tk.modules, tk.rings
    bases = {
        "TZ": trusses.integer_truss(),
        "Zc3": trusses.constant_truss(3),
        "TZ5": trusses.truss_TZn(5),
        "TC2": trusses.tc2_brace_truss(),
    }
    rng = O.seeded(seed, "extensions")
    cases = []

    def validate(label, ext, samples, window):
        s = rng.randrange(2 ** 31)
        return Case(f"validate_truss {label} w={window}",
                    lambda: trusses.validate_truss(ext, samples=samples, window=window, seed=s),
                    verdict(True))

    for name, base in bases.items():
        for kind, make in (("T1", trusses.unital_extension), ("T0", trusses.ring_extension)):
            ext = make(base)
            cases += [validate(f"{kind}({name})", ext, EXTENSION_SAMPLES, w) for w in WINDOWS]
        ext = trusses.double_extension(base)
        cases += [validate(f"T01({name})", ext, DOUBLE_SAMPLES, w) for w in DOUBLE_WINDOWS]

    # a non-truss base embeds in its extensions, so they are not trusses either
    n = 3
    bad_mul, _, _ = O.perturbed_with_witness(
        O.zn_mul(n), 2, O.seeded(seed, "perturbed base"),
        lambda m, cell: O.truss_witness(n, m, cell))
    tz3 = trusses.truss_TZn(n)
    bad_base = trusses.FiniteTruss(tz3.heap, bad_mul, names=tz3.names)
    for kind, make in (("T1", trusses.unital_extension), ("T0", trusses.ring_extension)):
        ext = make(bad_base)
        for w in PERTURBED_WINDOWS:
            s = rng.randrange(2 ** 31)
            cases.append(Case(
                f"validate_truss {kind}(TZ3 perturbed) w={w}",
                lambda ext=ext, w=w, s=s: trusses.validate_truss(
                    ext, samples=PERTURBED_SAMPLES, window=w, seed=s),
                verdict(False)))

    # free modules: the absorber basepoint takes the fast path, 1 does not
    for label, truss, absorber in (("TZ", trusses.integer_truss(), 0),
                                   ("TZ5", trusses.truss_TZn(5), 0)):
        for basepoint in (absorber, 1):
            path = "fast" if basepoint == absorber else "letter-wise"
            fm = modules.free_module(truss, 2, basepoint)
            for w in MODULE_WINDOWS:
                s = rng.randrange(2 ** 31)
                cases.append(Case(
                    f"validate_module free {label}^2 {path} w={w}",
                    lambda fm=fm, w=w, s=s: modules.validate_module(
                        fm, samples=MODULE_SAMPLES, window=w, seed=s),
                    verdict(True)))

    for n in DORROH_RINGS:
        ring = rings.FiniteRing.Zn(n)
        for w in DORROH_WINDOWS:
            cases.append(Case(f"dorroh_compare Z{n} w={w}",
                              lambda ring=ring, w=w: trusses.dorroh_compare(ring, w),
                              verdict(True)))
    return cases
