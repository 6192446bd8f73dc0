"""The shaping bijection on a pocket-sized example, end to end.

Walks the two-symbol, two-bit case where everything fits on screen: the
content-sorted order of inputs and outputs, the resulting lookup table, and
why exactly half of all length-3 strings can never appear as images.
"""

from setshaping import (
    NotInImageError,
    ShapingParameters,
    class_order,
    composition_of,
    empirical_information_content,
    in_image,
    multinomial,
    shape,
    string_rank,
    string_unrank,
    unshape,
)

params = ShapingParameters(alphabet_size=2, n=2, k=1)
a, n, k = params.alphabet_size, params.n, params.k

# -- the sorted orders --------------------------------------------------------

print("length-2 strings, content ascending:")
for r in range(a**n):
    s = string_unrank(r, n, a)
    print(f"  rank {r}: {''.join(map(str, s))}  I = {empirical_information_content(s, a):.4f}")

print("\nlength-3 strings, content ascending:")
for r in range(a ** (n + k)):
    s = string_unrank(r, n + k, a)
    marker = "image" if r < a**n else "never produced"
    print(
        f"  rank {r}: {''.join(map(str, s))}  I = "
        f"{empirical_information_content(s, a):.4f}  ({marker})"
    )

# -- the map itself -----------------------------------------------------------

print("\nshape pairs rank r of length 2 with rank r of length 3:")
for r in range(a**n):
    x = string_unrank(r, n, a)
    y = shape(x, params)
    assert string_rank(y, a) == r
    back = unshape(y, params)
    print(f"  {''.join(map(str, x))} -> {''.join(map(str, y))} -> {''.join(map(str, back))}")

# -- the boundary -------------------------------------------------------------

target = a**n
counts, offset = class_order(n + k, a).locate_string(target - 1)
# The classes of the strings before the first string of the last class.
before = (string_unrank(r, n + k, a) for r in range(target - 1 - offset))
whole = dict.fromkeys(composition_of(s, a) for s in before)
print(f"\ncut after {target} strings of length {n + k}:")
print(f"  whole classes admitted: {list(whole)}")
print(f"  last admitted class: {counts}, {offset + 1} of its {multinomial(counts)} strings")
admitted, excluded = (
    empirical_information_content(string_unrank(r, n + k, a), a) for r in (target - 1, target)
)
print(f"  highest admitted content: {admitted:.4f}")
print(f"  lowest excluded content:  {excluded:.4f}")

probe = [0, 1, 0]
print(f"\n{''.join(map(str, probe))} in image: {in_image(probe, params)}")
try:
    unshape(probe, params)
except NotInImageError as exc:
    print(f"unshape rejects it: {exc}")
