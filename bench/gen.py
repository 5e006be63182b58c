"""Seed-driven instance files for the cli-batch workload.

The generator does not import redsep.  Each slot fixes the parameters that
set a command's cost (open-set band, generator count, codomain size, base),
and the seed draws everything else (subbases, generator sets, map tables,
document order), so command costs vary little from seed to seed while the
inputs themselves differ.
"""

import random

from finite import bits, points, topology

A_OP = [[0, 0], [0, 1], [1, 0], [1, 1]]
BASES = {
    "union": {"alphabet": 2, "branches": [[0], [1]], "mode": "range"},
    "intersection": {"alphabet": 2, "branches": [[0, 1]], "mode": "range"},
    "aop": {"alphabet": 2, "branches": A_OP, "mode": "range"},
    "aop-prefix": {"alphabet": 2, "branches": A_OP, "mode": "prefix"},
}

# open-set count bands for the random 5-point spaces, one per slot
SPACE_BANDS = [(4, 6), (7, 9), (10, 12), (13, 16)] * 4
# (mode, generator template) for the a-operation generate slots on 4 points;
# the seed relabels the points, so every seed meets the same intersection
# pattern, the same evaluation cost and the same number of outcomes
GENERATE_SLOTS = [
    (mode, template)
    for mode in ("range", "prefix")
    for template in (
        ((0,), (1, 2), (0, 2, 3)),
        ((0,), (1, 2), (0, 3), (1, 2, 3)),
        ((0,), (1, 2), (0, 3), (1, 2, 3), (0, 1, 2, 3)),
    )
] * 2
# (codomain size, base) for the transfer slots; prefix mode only on 2 points
TRANSFER_SLOTS = (
    [(m, b) for m in (2, 3, 4) for b in ("union", "intersection", "aop")] * 4
    + [(2, "aop-prefix")] * 4
)


def _space_doc(n, subbasis, rng):
    return {"n": n, "subbasis": [points(s) for s in rng.sample(subbasis, len(subbasis))]}


def random_space(rng, n, band):
    """A subbasis on n points whose topology's open count lies in the band."""
    lo, hi = band
    while True:
        subbasis = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, n + 1))]
        if lo <= len(topology(n, subbasis)) <= hi:
            return subbasis


def _space_instances(rng):
    out = []
    for i, band in enumerate(SPACE_BANDS):
        space = _space_doc(5, random_space(rng, 5, band), rng)
        for derived in ("opens", "closeds", "zeros"):
            doc = {"space": space, "class_from": derived}
            out.append((f"space-{i:02d}-{derived}.json", doc, ("check-reduction", "check-separation")))
    return out


def _generate_instances(rng):
    out = []
    for i, (mode, template) in enumerate(GENERATE_SLOTS):
        relabel = rng.sample(range(4), 4)
        members = [sorted(relabel[p] for p in g) for g in rng.sample(template, len(template))]
        doc = {
            "base": BASES["aop-prefix" if mode == "prefix" else "aop"],
            "generators": {"universe": 4, "members": members},
            "mode": mode,
        }
        out.append((f"generate-{i:02d}.json", doc, ("generate",)))
    return out


def _transfer_instances(rng):
    out = []
    for i, (m, base) in enumerate(TRANSFER_SLOTS):
        n = min(5, m + rng.randint(0, 2))
        table = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(table)
        dom = _space_doc(n, [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 3))], rng)
        cod = {"n": m, "subbasis": [[y] for y in range(m)]}
        # the saturated sets: preimages of every codomain subset
        saturated = [bits(x for x, y in enumerate(table) if h >> y & 1) for h in range(1 << m)]
        rng.shuffle(saturated)
        doc = {
            "map": {"dom": dom, "cod": cod, "table": table},
            "base": BASES[base],
            "which": ("reduction", "separation")[i % 2],
            "dom_generators": {"universe": n, "members": [points(s) for s in saturated]},
            "cod_generators": "opens",
        }
        out.append((f"transfer-{i:02d}.json", doc, ("transfer",)))
    return out


def instances(seed):
    """[(file name, instance document, subcommands to run on it)] for one seed."""
    rng = random.Random(f"cli-batch:{seed}")
    return _space_instances(rng) + _generate_instances(rng) + _transfer_instances(rng)
