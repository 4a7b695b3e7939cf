"""Per-layer timing from outside the library.

``Tracer.install`` replaces module-level names with wrappers.  The
library's public functions are wrapped on the package, where the runner
calls them; the helpers that ``build_vault`` and ``open_vault`` call are
wrapped in ``irisvault.vault``, where those functions look them up.  A
name a later change removes or renames is skipped and its metric goes
unreported.

Each wrapper records a span: its layer, start, end and self time, which is
its duration minus the durations of the spans opened inside it.  Spans
stay in memory until ``metrics`` converts them to reference time.
"""

from __future__ import annotations

import functools

from clock import Clock

# (module, attribute, layer, counts a call).  A layer's time is the self
# time of all its spans; its call count comes from the entries marked True,
# so transform.template is transform_template plus the prune_close after it.
SPANS = (
    ("irisvault", "build_vault", "vault.build", True),
    ("irisvault", "write_vault", "templates.write_vault", True),
    ("irisvault", "read_vault", "templates.read_vault", True),
    ("irisvault", "open_vault", "vault.decode", True),
    ("irisvault.vault", "encrypt_vault", "vault.cipher", True),
    ("irisvault.vault", "decrypt_vault", "vault.cipher", True),
    ("irisvault.vault", "generate_chaff", "vault.chaff", True),
    ("irisvault.vault", "transform_template", "transform.template", True),
    ("irisvault.vault", "prune_close", "transform.template", False),
    ("irisvault.vault", "match_candidates", "vault.match", True),
)
# Counted, not timed: a span per subset would weigh on the search it measures.
SUBSET_CHECK = ("irisvault.vault", "check_crc")


class Tracer:
    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.spans: list[tuple[str, bool, float, float, float]] = []
        self.open: list[float] = []  # raw time covered by children, per open span
        self.candidates = self.subsets = self.accepted = 0
        self.counting_subsets = False

    def reset(self) -> None:
        self.spans.clear()
        self.candidates = self.subsets = self.accepted = 0

    def install(self, modules: dict) -> None:
        for module_name, attr, layer, counts in SPANS:
            target = getattr(modules[module_name], attr, None)
            if target is not None:
                setattr(modules[module_name], attr, self._span(target, layer, counts))
        module_name, attr = SUBSET_CHECK
        check = getattr(modules[module_name], attr, None)
        if check is not None:
            setattr(modules[module_name], attr, self._counted(check))
            self.counting_subsets = True

    def _span(self, fn, layer: str, counts: bool):
        clock, open_, spans = self.clock, self.open, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            since = clock.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                start, end, raw = clock.interval(since)
                children = open_.pop()
                if open_:
                    open_[-1] += raw
                spans.append((layer, counts, start, end, raw - children))
            if layer == "vault.match":
                self.candidates += len(result)
            elif layer == "vault.decode":
                self.accepted += 1
            return result

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.subsets += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the spans since the last reset."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for layer, counts, start, end, raw in self.spans:
            self_s[layer] = self_s.get(layer, 0.0) + self.clock.reference(start, end, raw)
            calls[layer] = calls.get(layer, 0) + counts
        out = {f"{layer}_us": (self_s[layer] / n * 1e6, "us")
               for layer, n in calls.items() if n}
        if calls.get("vault.match"):
            out["vault.candidates"] = (self.candidates / calls["vault.match"], "count")
        verifies = calls.get("vault.decode", 0)
        if self.counting_subsets and verifies:
            out["vault.subsets"] = (self.subsets / verifies, "count")
            if self.subsets:
                out["vault.decode_yield"] = (self.accepted / self.subsets, "ratio")
        return out
