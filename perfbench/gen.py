"""Seeded input generator for the benchmark workloads.

Every input a run feeds the program comes from here, as a pure function of
(workload, seed, seconds): the deck texts, the serve-small geometry pool,
which submissions get a fresh geometry, and the paced schedule.  The
program under test only ever sees the generated files.
"""

import hashlib
import random

# Paper §IV-B constants (src/core/deck.cpp): the dense region's density
# scales with mesh resolution so the mean free path stays a fixed number
# of cells.
DENSE_KG_M3 = 1.0e3
VACUUM_KG_M3 = 1.0e-30

# Fixed workload shapes.  THREADS / CONNECTIONS are checked against the
# host's CPU count before anything runs.
SCATTER_CELLS = 320
SCATTER_PARTICLES = 30000
THREADS = 4

# The serve-small mix is stratified so that every seed offers the same
# amount of work: the pooled geometries span the cell range once, each has
# one variant per particle count, hits cycle through the pool, and exactly
# one submission in each block of FRESH_EVERY is a fresh geometry.
SERVE_CONNECTIONS = 4
SERVE_CELLS = (80, 88, 104, 112, 128, 136, 152, 160)   # one pool geometry each
SERVE_PARTICLES = (100, 300, 1000, 2000)               # one variant each
SERVE_FRESH_EVERY = 8
# Open-loop paced phase: a fixed offered load, about half the recording
# host's capacity, so a faster daemon is not handed a higher load.
SERVE_PACED_RATE = 40.0      # submissions per second
SERVE_PACED_SHARE = 0.75     # of --seconds
# Closed-loop saturation phase: a fixed number of submissions per second
# of --seconds, so every daemon gets the same work and the same count of
# fresh geometries whatever its speed.
SERVE_SAT_PER_SECOND = 12


def deck_text(name, cells, density, regions, source, particles, seed):
    """A .params deck in the format io/deck_io.h reads."""
    lines = [
        "# neutral-mc problem deck",
        f"name {name}",
        f"nx {cells}",
        f"ny {cells}",
        "width 100",
        "height 100",
        f"density {density!r}",
    ]
    for x0, y0, x1, y1, rho in regions:
        lines.append(f"region {x0!r} {y0!r} {x1!r} {y1!r} {rho!r}")
    x0, y0, x1, y1 = source
    lines += [
        f"source {x0!r} {y0!r} {x1!r} {y1!r}",
        "energy 1000000",
        f"particles {particles}",
        "dt 1e-07",
        "timesteps 1",
        f"seed {seed}",
        "molar_mass 1",
        "mass_number 100",
        "min_energy 1",
        "min_weight 1e-10",
        "xs_points 30000",
    ]
    return "\n".join(lines) + "\n"


def dense_density(cells):
    return DENSE_KG_M3 * cells / 4000.0


def _rng(workload, seed):
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def _deck_seed(rng):
    return rng.randrange(1, 2**31)


def scatter_deck(rng, cells, particles):
    """Homogeneously dense mesh, centre source: collisions dominate."""
    return deck_text("scatter", cells, dense_density(cells), [],
                     (47.5, 47.5, 52.5, 52.5), particles, _deck_seed(rng))


def _serve_geometry(rng, name, cells):
    """A small csp-like geometry: random square, random source corner."""
    side = rng.uniform(10.0, 30.0)
    cx, cy = rng.uniform(30.0, 70.0), rng.uniform(30.0, 70.0)
    square = (cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2,
              dense_density(cells))
    sx, sy = rng.choice(((0.0, 0.0), (90.0, 0.0), (0.0, 90.0), (90.0, 90.0)))
    return dict(name=name, cells=cells, regions=[square],
                source=(sx, sy, sx + 10.0, sy + 10.0))


def _serve_text(rng, geometry, particles):
    return deck_text(geometry["name"], geometry["cells"], VACUUM_KG_M3,
                     geometry["regions"], geometry["source"], particles,
                     _deck_seed(rng))


def anchor(workload):
    """The workload's anchor deck: small, fixed, the same for every seed.

    Its expected solve is checked in (anchors.json), so it holds the build
    under test to results that build cannot move.
    """
    rng = _rng(workload, "anchor")
    if workload == "scatter-events":
        return scatter_deck(rng, 80, 5000)
    return _serve_text(rng, _serve_geometry(rng, "anchor", 128), 2000)


def _cycle(rng, items):
    """Endless seeded permutations of `items`, each item once per pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def serve_counts(seconds):
    """(paced submissions, saturation submissions) for a run length."""
    paced = max(1, round(SERVE_PACED_RATE * SERVE_PACED_SHARE * seconds))
    sat = max(1, round(SERVE_SAT_PER_SECOND * seconds))
    return paced, sat


def generate(workload, seed, seconds):
    """All inputs of one run: {"decks": {file name: text}, ...}.

    In-process workloads get one deck ("deck.params").  serve-small also
    gets "paced" and "sat": lists of (due seconds, deck file name) in send
    order, and "pool": the file names of the first variant of each pooled
    geometry (the decks the traced replay profiles).
    """
    rng = _rng(workload, seed)
    if workload == "scatter-events":
        return {"decks": {"deck.params":
                          scatter_deck(rng, SCATTER_CELLS, SCATTER_PARTICLES)}}
    if workload != "serve-small":
        raise ValueError(f"unknown workload {workload!r}")

    decks = {}
    pool = []
    for g, cells in enumerate(SERVE_CELLS):
        geometry = _serve_geometry(rng, f"pool{g}", cells)
        for v, particles in enumerate(SERVE_PARTICLES):
            decks[f"pool{g}v{v}.params"] = _serve_text(rng, geometry, particles)
        pool.append(f"pool{g}v0.params")
    hits = _cycle(rng, sorted(decks))
    fresh_cells = _cycle(rng, SERVE_CELLS)
    fresh_particles = _cycle(rng, SERVE_PARTICLES)

    def draw(count, first):
        names = []
        fresh_at = 0
        for i in range(count):
            if i % SERVE_FRESH_EVERY == 0:
                fresh_at = i + rng.randrange(min(SERVE_FRESH_EVERY, count - i))
            if i == fresh_at:
                name = f"fresh{first + i}.params"
                geometry = _serve_geometry(rng, f"fresh{first + i}",
                                           next(fresh_cells))
                decks[name] = _serve_text(rng, geometry, next(fresh_particles))
                names.append(name)
            else:
                names.append(next(hits))
        return names

    n_paced, n_sat = serve_counts(seconds)
    paced = [(i / SERVE_PACED_RATE, name)
             for i, name in enumerate(draw(n_paced, 0))]
    sat = [(0.0, name) for name in draw(n_sat, n_paced)]
    return {"decks": decks, "paced": paced, "sat": sat, "pool": pool}


def digest(inputs):
    """A stable hash of everything generate() returned."""
    h = hashlib.sha256()
    for name in sorted(inputs["decks"]):
        h.update(name.encode() + b"\0" + inputs["decks"][name].encode() + b"\0")
    for key in ("paced", "sat", "pool"):
        h.update(repr(inputs.get(key)).encode())
    return h.hexdigest()
