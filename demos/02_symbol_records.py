"""
Binding, chunking and clean-up at n = 64
========================================

"""

from bladebind import ga_decode, ga_encode, gen_symbols

# Draw a random symbol table: four roles anywhere in the 64-bit space,
# fillers confined to the leading 16 bits, so that a relabelled key of
# another pair almost always lands outside their support.
table = gen_symbols(
    seed=7,
    n=64,
    k=16,
    role_names=["name", "sex", "age", "shoe"],
    filler_names=["Pat", "male", "66"],
)
for name, blade in table.roles.items():
    print(f"role   {name:<5} {blade.hex}")
for name, blade in table.fillers.items():
    print(f"filler {name:<5} {blade.hex}")

# A record is the sum of the three bound pairs, one signed blade each.
record = ga_encode(table, [("name", "Pat"), ("sex", "male"), ("age", "66")])
print("record terms:", len(record.payload))

# Decoding a role relabels each record key v as v XOR role and reads the
# filler coefficients off the relabelled keys; the largest in absolute
# value wins.  The role's inverse gives a key landing on a filler the
# same sign that binding gave that pair, product_sign(role, filler), so
# the bound filler comes back at full weight.  The other two pairs are
# relabelled onto keys that name no filler and are counted as residual
# terms.
for role in ("name", "sex", "age"):
    res = ga_decode(record, table, role)
    print(
        f"{role:<5} -> {res.filler:<5} score {res.score:+.1f} "
        f"residual terms {res.residual_terms}"
    )

# "shoe" was never bound.  Nothing lands on the filler support, every
# candidate scores zero, and the tie is flagged; callers should treat a
# near-zero score as "absent", not trust the name that comes back.
res = ga_decode(record, table, "shoe")
print(f"shoe  -> {res.filler:<5} score {res.score:+.1f} ambiguous {res.ambiguous}")
