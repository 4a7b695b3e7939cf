"""Seeded inputs for the three workloads, as plain data.

Nothing here imports the library: templates are lists of (x, y) pairs,
passwords are (height, eye colour, gender, word) tuples, and each user's
enrolment randomness is a seed for ``random.Random``.  The runner turns
these into library objects, so the program under test receives only the
generated templates, secrets and passwords.

The query set of ``noisy`` and ``impostor`` is fixed: their failures come
from faults in the decoder, and a failure that moved with the seed would
make the share of failed operations differ between runs.  ``--seed``
orders their queries.  ``exact`` cannot fail, so its seed also draws
every user's secret, chaff and scramble.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

USERS = 100
TEMPLATE_SIZE = 20
MIN_DIST = 4
GRID = 256
PLACEMENT_TRIES = 10_000

# The three reference passwords of the test suite: height, eye colour,
# gender and the five-character user password.
FUZZY = (155, "brown", "M", "FUZZY")
TOKEN = (170, "gray", "F", "TOKEN")
VAULT = (146, "amber", "M", "VAULT")
# User u enrols under ROTATION[u % 3].  Template 17 keeps only 19
# distinct lock units under VAULT, which enrolment refuses as it should,
# so this order gives user 17 TOKEN.
ROTATION = (FUZZY, VAULT, TOKEN)

NOISY_EPSILON = 2
NOISY_JITTER_SEED = 20_000  # test_5_noise_tolerance draws jitter from 20_000 + user
IMPOSTOR_EPSILON = 8
IMPOSTOR_CAP = 20_000


@dataclass(frozen=True)
class User:
    template: list[tuple[int, int]]
    password: tuple[int, str, str, str]
    rng_seed: int  # Random(rng_seed) draws the secret, then chaff and scramble


@dataclass(frozen=True)
class Query:
    template: list[tuple[int, int]]
    password: tuple[int, str, str, str]
    genuine: bool  # True: must return the user's secret; False: must be refused


@dataclass(frozen=True)
class Workload:
    epsilon: int
    max_combinations: int | None  # None: the library default
    users: list[User]
    queries: list[Query]  # queries[i] is made against users[i]'s vault
    order: list[int]  # the order in which a round visits the users
    kernel: str  # the clock kernel whose slowdowns follow this workload's (clock.KERNELS)


def synth(seed: int) -> list[tuple[int, int]]:
    """TEMPLATE_SIZE points at least MIN_DIST apart; the draw of ``irisvault synth``."""
    rng = random.Random(seed)
    points: list[tuple[int, int]] = []
    for _ in range(TEMPLATE_SIZE):
        for _ in range(PLACEMENT_TRIES):
            x, y = rng.randrange(GRID), rng.randrange(GRID)
            if all((x - px) ** 2 + (y - py) ** 2 >= MIN_DIST ** 2 for px, py in points):
                points.append((x, y))
                break
        else:
            raise RuntimeError(f"template {seed} does not fit")
    return points


def secret_of(user: User) -> bytes:
    return random.Random(user.rng_seed).randbytes(16)


def _jitter(points: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    out = []
    for x, y in points:
        nx = min(GRID - 1, max(0, x + rng.choice((-1, 0, 1))))
        ny = min(GRID - 1, max(0, y + rng.choice((-1, 0, 1))))
        out.append((nx, ny))
    return out


def _change_one_char(word: str, u: int) -> str:
    # test_4_rejection's rule: one printable character shifted 1..94 places.
    pos = u % 5
    shifted = chr(32 + (ord(word[pos]) - 32 + 1 + u % 94) % 95)
    return word[:pos] + shifted + word[pos + 1:]


def exact(seed: int) -> Workload:
    master = random.Random(seed)
    users = [User(synth(u), ROTATION[u % 3], master.getrandbits(64)) for u in range(USERS)]
    queries = [Query(user.template, user.password, True) for user in users]
    return Workload(0, None, users, queries, _order(master), "records")


def noisy(seed: int) -> Workload:
    users = [User(synth(u), FUZZY, u) for u in range(USERS)]
    queries = [Query(_jitter(user.template, random.Random(NOISY_JITTER_SEED + u)), FUZZY, True)
               for u, user in enumerate(users)]
    return Workload(NOISY_EPSILON, None, users, queries, _order(random.Random(seed)),
                    "blend")


def impostor(seed: int) -> Workload:
    users = [User(synth(u), ROTATION[u % 3], u) for u in range(USERS)]
    queries = []
    for u, user in enumerate(users):
        if u % 2 == 0:
            height, eye, gender, word = user.password
            queries.append(Query(user.template, (height, eye, gender, _change_one_char(word, u)),
                                 False))
        else:
            queries.append(Query(users[(u + 1) % USERS].template, user.password, False))
    return Workload(IMPOSTOR_EPSILON, IMPOSTOR_CAP, users, queries,
                    _order(random.Random(seed)), "blend")


def _order(rng: random.Random) -> list[int]:
    order = list(range(USERS))
    rng.shuffle(order)
    return order


WORKLOADS = {"exact": exact, "noisy": noisy, "impostor": impostor}
