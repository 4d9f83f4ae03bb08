"""Every size cap of relpsi, in one table.

Each result here is a brute-force count, an enumeration or a table over
the elements of a group, so each input either answers within a bound on
its work and memory or is refused with ValueError before that work starts.
Each cap below states one such bound. The module that does the work checks
its cap before it starts and builds its refusal message from it. This
module imports nothing, so every layer can read it, from `finite_field` up
to the CLI, which loads no numpy at import.
"""

# order of a constructed C_n or direct product: every encoding, and the sum
# of two exponents that `_reduce` takes mod n, fits an int64
ENCODING_CAP = 1 << 62
# elements of a group that any per-element array is built over (orders,
# inverses, relative orders, closure masks), and n of `psi-cyclic N
# --brute-force`, whose C_n sieve is one such array: at most one int64
# each, 128 MiB. The worst admitted brute forces, `frobenius --r 7 --q 1031
# --brute-force` (order 16 759 936) and `--r 3 --q 299569` (order
# 16 775 864, whose subgroup of 2 096 983 members is kept as a mask only),
# take 2.0 s at 164 MiB and 1.2 s at 198 MiB peak RSS in a fresh process
# on a 2-vCPU VM
ELEMENT_CAP = 1 << 24
# order of a group that caches its Cayley table, n^2 entries of at most two
# bytes: 32 MiB
TABLE_CAP = 4096
# order of a group whose whole subgroup lattice is enumerated: no search
# when the group is cyclic, since its lattice is its seeds <x>, numpy
# rounds by prime index in blocks when it is abelian, and a Python loop per
# conjugacy class of subgroups otherwise; the largest lattice under it is
# C2^7's 29 212 subgroups, on whose table file `ratios --json` (a 10.9 MB
# report, streamed to its file, with every subgroup's canonical
# generators) takes 1.8 s and `check-bounds --json` 1.4 s in fresh
# processes on a 2-vCPU VM, at 80 or 85 MiB and 61 or 67 MiB peak RSS:
# glibc's dynamic mmap threshold picks the level by the path, the argv and
# the source text, and with MALLOC_MMAP_THRESHOLD_=131072 it is 80 and 56 MiB
LATTICE_CAP = 200
# index of a quotient group, whose Cayley table has index^2 entries
QUOTIENT_INDEX_CAP = 512
# order of a group in the bijection decision: a table file of n^2 entries,
# and one relative order and one witness image per element. `bijection` on
# the 489 MB table file of C10000 takes 2.2-2.3 s at 233 MiB peak RSS in a
# fresh process on a 2-vCPU VM, with --subgroup 0 or 5000; loading the file
# takes most of that time and sets the peak, the 191 MiB uint16 table kept
# once, as parsed
BIJECTION_CAP = 10_000
# size p^r of a finite field, whose log/exp tables hold one int64 per
# element (8 MiB each) and are filled by array gathers over all elements
FIELD_SIZE_CAP = 1 << 20
# n of the dihedral group D_n: 2n permutations of degree n, listed in Python
DIHEDRAL_CAP = 512
# degree d of S_d and A_d: at most d! = 40 320 permutations, listed in Python
DEGREE_CAP = 8
# largest r of frobenius_ratio_table: one exact ratio and one Mersenne
# test per row
RATIO_TABLE_CAP = 64


def power_text(cap: int) -> str:
    """``cap``, a power of 2, written as 2^k, the way the refusal messages
    print it."""
    return f"2^{cap.bit_length() - 1}"
