"""Closed-loop benchmark of enrolment and verification through the public API.

    python3 perfbench/run.py --workload exact|noisy|impostor --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one thread, one caller: each round enrols every
user (``build_vault`` + ``write_vault``) and at once verifies that user's
query against the new vault (``read_vault`` + ``open_vault``), in the order
the seed gives.  After an untimed warm-up round, whole rounds run until
``--seconds`` have passed.  Every output is checked against what the
benchmark itself generated.  Times are at reference core speed (clock.py).
The last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``; the same object, with
the outcome counts and raw times, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from clock import Clock
from layers import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
IMPORTS = 15  # fresh imports timed for setup_s
WARMUP_CAP = 200  # subset cap of the warm-up round, which only has to touch every code path
VAULT_HEADER = 16
VAULT_RECORD = 4

OK = "ok"
WRONG_SECRET = "wrong_secret"
FALSE_ACCEPT = "false_accept"
GENUINE_REJECTED = "genuine_rejected"
UNEXPECTED = "unexpected_exception"
BAD_VAULT = "bad_vault"


def time_imports(clock: Clock) -> tuple[list, object]:
    """IMPORTS fresh imports of the package, timed, and the last module."""
    took = []
    for _ in range(IMPORTS):
        for name in [m for m in sys.modules if m == "irisvault" or m.startswith("irisvault.")]:
            del sys.modules[name]
        gc.collect()  # free the last import's tables, which sit in reference cycles
        since = clock.begin()
        iv = importlib.import_module("irisvault")
        took.append(clock.end(since))
    return took, iv


class Runner:
    """One workload turned into library objects, and the checks on its outputs."""

    def __init__(self, iv, work: workloads.Workload, clock: Clock) -> None:
        self.iv = iv
        self.work = work
        self.clock = clock
        # Checks call the library as imported, never through the tracer.
        self.read_vault = iv.read_vault
        self.write_vault = iv.write_vault
        self.params = iv.VaultParams(epsilon=work.epsilon)
        self.templates = [self._template(u.template) for u in work.users]
        self.passwords = [self._password(u.password) for u in work.users]
        self.secrets = [workloads.secret_of(u) for u in work.users]
        self.queries = [(self._template(q.template), self._password(q.password))
                        for q in work.queries]
        self.vault_size = VAULT_HEADER + VAULT_RECORD * self.params.total
        self.vaults: list[bytes | None] = [None] * len(work.users)
        self.outcomes: list[tuple | None] = [None] * len(work.users)
        self.consistent = True

    def _template(self, points):
        return [self.iv.MinutiaPoint(x, y) for x, y in points]

    def _password(self, spec):
        height, eye, gender, word = spec
        soft = self.iv.SoftBiometrics(height, self.iv.EyeColor(eye), gender)
        return self.iv.combine_password(soft, self.iv.UserPassword(word))

    def enrol(self, u: int) -> tuple[tuple, bytes | None, str]:
        """Enrol user u.  The vault must have the IFV1 size, re-serialize to
        the same bytes, and come out the same in every round."""
        rng = random.Random(self.work.users[u].rng_seed)
        rng.randbytes(16)  # the secret, drawn first as `irisvault enroll` does
        iv = self.iv
        since = self.clock.begin()
        try:
            data = iv.write_vault(iv.build_vault(self.templates[u], self.secrets[u],
                                                 self.passwords[u], self.params, rng))
        except Exception:
            return self.clock.end(since), None, UNEXPECTED
        took = self.clock.end(since)
        if self.vaults[u] is None:
            self.vaults[u] = data
        elif self.vaults[u] != data:
            self.consistent = False
        if len(data) != self.vault_size or self.write_vault(self.read_vault(data)) != data:
            return took, data, BAD_VAULT
        return took, data, OK

    def verify(self, u: int, data: bytes, cap: int | None) -> tuple[tuple, str, object]:
        """Verify query u.  A genuine query must return the generated secret;
        an impostor query must raise UnlockError."""
        iv = self.iv
        query, cp = self.queries[u]
        genuine = self.work.queries[u].genuine
        kwargs = {} if cap is None else {"max_combinations": cap}
        since = self.clock.begin()
        try:
            got = iv.open_vault(iv.read_vault(data), query, cp, **kwargs)
        except iv.UnlockError as exc:
            outcome = GENUINE_REJECTED if genuine else OK
            return self.clock.end(since), outcome, type(exc).__name__
        except Exception as exc:
            return self.clock.end(since), UNEXPECTED, type(exc).__name__
        took = self.clock.end(since)
        if not genuine:
            return took, FALSE_ACCEPT, got
        return took, OK if got == self.secrets[u] else WRONG_SECRET, got

    def warm_up(self) -> None:
        """Enrol everyone and touch every verify path, with the search capped."""
        for u in self.work.order:
            _, data, _ = self.enrol(u)
            if data is not None:
                self.verify(u, data, WARMUP_CAP)

    def round(self, tally: Counter) -> tuple[list, list]:
        """One timed round; returns the enrolment and verify intervals."""
        enrols, verifies = [], []
        cap = self.work.max_combinations
        for u in self.work.order:
            took, data, outcome = self.enrol(u)
            enrols.append(took)
            tally[outcome] += 1
            if data is None:
                tally[UNEXPECTED] += 1  # the verify that cannot run fails too
                continue
            took, outcome, result = self.verify(u, data, cap)
            verifies.append(took)
            tally[outcome] += 1
            if self.outcomes[u] is None:
                self.outcomes[u] = (outcome, result)
            elif self.outcomes[u] != (outcome, result):
                self.consistent = False
        return enrols, verifies


def end_to_end(imports: list, rounds: list, seconds) -> dict[str, tuple[float, str]]:
    """The end-to-end figures, with ``seconds`` turning an interval into a time."""
    enrol_s = [seconds(iv) for enrols, _ in rounds for iv in enrols]
    verify_ms = [seconds(iv) * 1e3 for _, verifies in rounds for iv in verifies]
    rates = [len(verifies) / sum(map(seconds, verifies)) for _, verifies in rounds]
    return {
        "setup_s": (statistics.median(map(seconds, imports)), "s"),
        "enroll_p50_ms": (statistics.median(enrol_s) * 1e3, "ms"),
        "verify_p50_ms": (statistics.median(verify_ms), "ms"),
        "verify_p90_ms": (statistics.quantiles(verify_ms, n=10, method="inclusive")[8], "ms"),
        "verify_per_s": (statistics.median(rates), "1/s"),
    }


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "irisvault" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'irisvault'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    # One core for the whole run, so the speed samples describe the core
    # the program ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    work = workloads.WORKLOADS[args.workload](args.seed)
    clock = Clock(work.kernel)
    clock.start()
    imports, iv = time_imports(clock)
    runner = Runner(iv, work, clock)
    tracer = None
    if args.trace:
        tracer = Tracer(clock)
        tracer.install({name: sys.modules[name] for name in ("irisvault", "irisvault.vault")})
    runner.warm_up()
    gc.collect()
    if tracer:
        tracer.reset()

    tally: Counter = Counter()
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(runner.round(tally))
    clock.stop()

    figures = end_to_end(imports, rounds, lambda iv: clock.reference(*iv))
    raw = end_to_end(imports, rounds, lambda iv: iv[2])
    if tracer:
        metrics = tracer.metrics()
        metrics["traced.verify_per_s"] = figures["verify_per_s"]
    else:
        metrics = figures
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(tally.values())
    result = {
        "correct": runner.consistent,
        "attempted": attempted,
        "failed": attempted - tally[OK],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(rounds)} rounds, "
          f"median block {statistics.median(clock.block_s) * 1e3:.3f} ms")
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    for name, (value, unit) in metrics.items():
        suffix = f" (raw {raw[name][0]:.6g})" if name in raw and not tracer else ""
        print(f"{name}: {value:.6g} {unit}{suffix}")
    OUT.mkdir(exist_ok=True)
    failures = {u: [seen[0], seen[1] if isinstance(seen[1], str) else seen[1].hex()]
                for u, seen in enumerate(runner.outcomes) if seen and seen[0] != OK}
    record = dict(result, outcomes=dict(tally), failed_queries=failures, rounds=len(rounds),
                  raw={name: value for name, (value, _) in raw.items()},
                  median_block_s=statistics.median(clock.block_s))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
