import random
from pathlib import Path

import pytest

from finspace.posets import Poset

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
CATALOG_DIR = Path(__file__).resolve().parent.parent / "src" / "finspace" / "catalog"


def random_poset(rng: random.Random, n_max: int = 8, n_min: int = 1) -> Poset:
    """Random poset: a shuffled linear extension with random comparabilities,
    transitively closed."""
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    prob = rng.choice((0.15, 0.3, 0.5))
    up = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < prob:
                up[order[a]] |= 1 << order[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            probe = up[i]
            while probe:
                low = probe & -probe
                acc |= up[low.bit_length() - 1]
                probe ^= low
            if acc != up[i]:
                up[i] = acc
                changed = True
    return Poset(up)


def random_connected_poset(rng: random.Random, n_max: int = 8) -> Poset:
    while True:
        p = random_poset(rng, n_max=n_max, n_min=2)
        if p.is_connected:
            return p


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """p and q side by side, q's elements numbered after p's."""
    up = list(p._strict_up) + [mask << p.n for mask in q._strict_up]
    return Poset([mask | 1 << i for i, mask in enumerate(up)])


def product(p: Poset, q: Poset) -> Poset:
    """The product order on pairs, (a, b) <= (c, d) iff a <= c and b <= d;
    pair (i, j) is element i * q.n + j."""
    up = []
    for i in range(p.n):
        for j in range(q.n):
            mask = 0
            for a in (i, *[a for a in range(p.n) if p._strict_up[i] >> a & 1]):
                for b in (j, *[b for b in range(q.n) if q._strict_up[j] >> b & 1]):
                    mask |= 1 << (a * q.n + b)
            up.append(mask)
    return Poset(up)


def betti_signature(profile) -> tuple[int, ...]:
    """Betti numbers with trailing zeros stripped: the right shape for
    comparing spaces whose complexes have different dimensions."""
    betti = list(profile.betti)
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def composes_to_zero(low, high) -> bool:
    """Whether the product of two sparse integer matrices ``low . high``
    (rows as {column: nonzero}) is the zero matrix."""
    for row in low.entries:
        acc: dict[int, int] = {}
        for k, a in row.items():
            for j, b in high.entries[k].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            return False
    return True


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    """The spaces that are not published figures: chain2, circle4, sphere6."""
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def catalog_dir() -> Path:
    """The package's figure files, one ``<figure id>.poset`` per figure."""
    return CATALOG_DIR


@pytest.fixture(scope="session")
def fixture_paths() -> list[Path]:
    """Every ``.poset`` file of the fixtures and of the catalog, sorted by
    file name: chain2, circle4, fig04a, ..., fig21cstar, sphere6."""
    paths = [*FIXTURE_DIR.glob("*.poset"), *CATALOG_DIR.glob("*.poset")]
    return sorted(paths, key=lambda path: path.name)
