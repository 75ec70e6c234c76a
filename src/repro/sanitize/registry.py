"""The shared-state and lock registry the sanitizer passes consume.

Production classes declare what the sanitizer should watch through a
lightweight ``_SANITIZE_SHARED`` class attribute — a mapping of
``field name -> guarding lock attribute`` (``None`` when the field is
protected by something other than a lock: single-owner discipline,
event-loop confinement, per-handle serialization).  Production code never
imports this package; the hooks are plain data, and this module is the one
place that enumerates them, so the runtime detector
(:mod:`repro.sanitize.runtime`) and the static passes
(:mod:`repro.sanitize.static`, :mod:`repro.sanitize.contracts`) agree on
the registry.

The static side extends PR 2's :class:`~repro.lint.concurrency.GuardSpec`
contracts (which knew exactly three ``repro.core`` guards) with the PR-4
shared index cache and the PR-3 backing-store global, and adds
:class:`LockSpec` entries for the plfsd daemon's asyncio locks so the
lock-order graph sees the meta/writer nesting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.concurrency import DEFAULT_GUARDS, GuardSpec

__all__ = [
    "LockSpec",
    "EXTENDED_GUARDS",
    "DEFAULT_LOCKS",
    "DEFAULT_TARGETS",
    "runtime_classes",
    "lock_from_guard",
]

#: the packages the whole-system static passes walk (PR 2 walked only
#: ``repro.core``; the daemon and the plfs fast lanes are now in scope)
DEFAULT_TARGETS: tuple[str, ...] = ("repro.core", "repro.plfs", "repro.plfsd")


@dataclass(frozen=True)
class LockSpec:
    """One known lock: where it lives and how it is acquired.

    ``factory`` names a method whose *return value* is a member of this
    lock family (``PlfsdServer._writer_lock(path)`` hands out one asyncio
    lock per container) — acquiring the factory's result acquires the
    family node in the lock-order graph.
    """

    module: str
    owner: str  # class name, "" for a module-level global
    attr: str  # attribute / global name holding the lock
    kind: str = "threading"  # "threading" | "asyncio"
    factory: str = ""  # method returning a member of this family

    @property
    def label(self) -> str:
        scope = self.owner or self.module.rsplit(".", 1)[-1]
        return f"{scope}.{self.attr}"


def lock_from_guard(guard: GuardSpec) -> LockSpec:
    """The :class:`LockSpec` implied by a guarded-field contract."""
    if guard.guard.startswith("self."):
        return LockSpec(guard.module, guard.owner, guard.guard[len("self."):])
    return LockSpec(guard.module, "", guard.guard)


#: the core guards plus the shared index cache, the open-writer registry
#: and the backing global
EXTENDED_GUARDS: list[GuardSpec] = [
    *DEFAULT_GUARDS,
    GuardSpec("repro.plfs.cache", "IndexCache", "_entries", "self._lock"),
    GuardSpec("repro.plfs.cache", "IndexCache", "_generations", "self._lock"),
    GuardSpec("repro.plfs.writer", "OpenWriterRegistry", "_entries", "self._lock"),
    GuardSpec("repro.plfs.writer", "OpenWriterRegistry", "_dirty", "self._lock"),
    GuardSpec("repro.plfs.backing", "", "_current", "_lock"),
]


def _default_locks() -> list[LockSpec]:
    locks: dict[tuple[str, str, str], LockSpec] = {}
    for guard in EXTENDED_GUARDS:
        spec = lock_from_guard(guard)
        locks[(spec.module, spec.owner, spec.attr)] = spec
    for spec in (
        LockSpec("repro.plfsd.server", "PlfsdServer", "_meta_lock", kind="asyncio"),
        LockSpec(
            "repro.plfsd.server",
            "PlfsdServer",
            "_writer_locks",
            kind="asyncio",
            factory="_writer_lock",
        ),
    ):
        locks[(spec.module, spec.owner, spec.attr)] = spec
    return [locks[key] for key in sorted(locks)]


#: every lock the static lock-order pass recognizes
DEFAULT_LOCKS: list[LockSpec] = _default_locks()


def runtime_classes() -> list[type]:
    """The production classes carrying ``_SANITIZE_SHARED`` hooks.

    Imported lazily: the registry must be importable without dragging in
    the daemon (or numpy) — only the runtime detector pays this cost.
    """
    from repro.core.fdtable import FdTable
    from repro.core.mounts import MountTable
    from repro.plfs.cache import IndexCache
    from repro.plfs.writer import OpenWriterRegistry, WriteFile
    from repro.plfsd.server import PlfsdServer

    return [FdTable, MountTable, IndexCache, WriteFile, OpenWriterRegistry, PlfsdServer]
