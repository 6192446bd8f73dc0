"""Mean information content before and after shaping, across alphabets.

Reproduces the two summary tables: a small grid computed exactly, and the
long-block grid (n=100, k=1), exact wherever the partition walk's byte
budget admits the row (every alphabet here) and seeded Monte Carlo beyond.
"""

from setshaping import McConfig, estimate_table

# -- small grid: n equal to the alphabet size, exact throughout --------------

print("exact grid (n = a, k = 1)")
print(f"{'a':>3} {'I(x)':>8} {'I(y)':>8} {'diff':>8}")
small = estimate_table(
    [McConfig(alphabet_size=a, n=a, k=1, samples=1, seed=0) for a in range(2, 8)],
    method="exact",
)
for row in small:
    print(
        f"{row.alphabet_size:>3} {row.source_bits:8.3f} "
        f"{row.shaped_bits:8.3f} {row.diff_bits:8.3f}"
    )

# The two-symbol row is the famous oddity: shaping three-bit outputs of
# two-bit inputs RAISES the average content, because half of all length-3
# strings must be admitted and the low-content classes run out early.

# -- long blocks: n = 100, exact where the walk budget admits, sampled beyond -

M = 200_000  # raise to 10**6 to reproduce reference precision
print(f"\nlong-block grid (n = 100, k = 1, M = {M} where sampled)")
print(f"{'a':>3} {'I(x)':>10} {'I(y)':>10} {'diff':>8}  method")
rows = estimate_table(
    [
        McConfig(alphabet_size=a, n=100, k=1, samples=M, seed=a, threads=2)
        for a in range(2, 11)
    ],
    method="auto",
)
for row in rows:
    print(
        f"{row.alphabet_size:>3} {row.source_bits:10.3f} "
        f"{row.shaped_bits:10.3f} {row.diff_bits:8.3f}  {row.method}"
    )

print("\nthe diff column grows with the alphabet: larger alphabets leave")
print("more slack between typical strings and the low-content tail.")
