"""Persistent on-disk tuning cache.

One JSON file maps matrix fingerprints to tuning decisions together
with the environment and tuning options they were measured under.  The
cache is deliberately paranoid:

* **atomic writes** — the file is rewritten via a temporary sibling and
  ``os.replace``, so a crashed or concurrent writer can never leave a
  half-written file behind;
* **corrupt files and entries are ignored**, never raised: a cache is
  an accelerator, and the correct response to damage is to re-tune;
* **staleness checks** — an entry measured under a different
  environment (backends, CPU count, library versions) or different
  tuning options is treated as absent.

An entry is served only on an exact match of fingerprint, environment
and options.  Keys an older version stored beside those three (a
degree ``signature``) are ignored, so such files keep serving hits.

``REPRO_TUNER_CACHE`` points the cache somewhere else, or disables it
entirely with ``off``/``0``/``none``/``disabled``.  The default
location is ``$XDG_CACHE_HOME/repro/tuner_cache.json`` (falling back
to ``~/.cache``).

Every outcome is observable under ``tuner.cache.*`` metrics: ``hits``,
``misses``, ``stale``, ``corrupt`` and ``stores``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs import metrics as _metrics

__all__ = [
    "CACHE_ENV",
    "CACHE_VERSION",
    "TuningCache",
    "default_cache_path",
    "resolve_cache_path",
]

CACHE_ENV = "REPRO_TUNER_CACHE"

#: Schema version of the cache file; bumping it orphans old files.
CACHE_VERSION = 1

_DISABLED_VALUES = {"off", "0", "none", "disabled", "false"}


def default_cache_path() -> Path:
    """The XDG-aware default cache file location."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "tuner_cache.json"


def resolve_cache_path() -> Path | None:
    """Apply the ``REPRO_TUNER_CACHE`` override.

    Returns ``None`` when caching is disabled, the overridden path when
    one is set, the default location otherwise.
    """
    raw = os.environ.get(CACHE_ENV)
    if raw is None or raw.strip() == "":
        return default_cache_path()
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(raw).expanduser()


class TuningCache:
    """Fingerprint → decision store on one JSON file.

    The file is re-read on every lookup and rewritten on every store —
    tuning is rare and measurement dwarfs a small-file read, while
    always-fresh reads keep concurrent processes coherent without a
    lock (the atomic replace makes every observed file state complete).
    """

    def __init__(self, path: str | Path | None | object = "env"):
        # ``"env"`` (the default) resolves REPRO_TUNER_CACHE; an
        # explicit ``None`` disables caching outright.
        if path == "env":
            self.path: Path | None = resolve_cache_path()
        elif path is None:
            self.path = None
        else:
            self.path = Path(path)

    @property
    def enabled(self) -> bool:
        return self.path is not None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _load(self) -> dict:
        """The parsed cache file, or an empty store on any damage."""
        if self.path is None or not self.path.exists():
            return {"version": CACHE_VERSION, "entries": {}}
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            _metrics.count("tuner.cache.corrupt", reason="unreadable")
            return {"version": CACHE_VERSION, "entries": {}}
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or not isinstance(payload.get("entries"), dict)
        ):
            _metrics.count("tuner.cache.corrupt", reason="schema")
            return {"version": CACHE_VERSION, "entries": {}}
        return payload

    def get(
        self, fingerprint: str, environment: dict, options: dict
    ) -> dict | None:
        """The cached decision dict, or ``None`` (miss/stale/corrupt)."""
        if self.path is None:
            _metrics.count("tuner.cache.misses", reason="disabled")
            return None
        entry = self._load()["entries"].get(fingerprint)
        if entry is None:
            _metrics.count("tuner.cache.misses", reason="absent")
            return None
        if not isinstance(entry, dict) or not isinstance(
            entry.get("decision"), dict
        ):
            _metrics.count("tuner.cache.corrupt", reason="entry")
            return None
        if (
            entry.get("environment") != environment
            or entry.get("options") != options
        ):
            _metrics.count("tuner.cache.stale")
            return None
        _metrics.count("tuner.cache.hits")
        return entry["decision"]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        environment: dict,
        options: dict,
        decision: dict,
    ) -> None:
        """Store (or overwrite) one entry atomically; no-op if disabled."""
        if self.path is None:
            return
        payload = self._load()
        payload["entries"][fingerprint] = {
            "environment": environment,
            "options": options,
            "decision": decision,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(
                f"{self.path.name}.tmp.{os.getpid()}"
            )
            with tmp.open("w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            # An unwritable cache degrades to tuning-per-process; it
            # must never take the computation down with it.
            _metrics.count("tuner.cache.corrupt", reason="unwritable")
            return
        _metrics.count("tuner.cache.stores")

    def clear(self) -> None:
        """Delete the cache file (tests and the CLI ``--force`` path)."""
        if self.path is not None and self.path.exists():
            self.path.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TuningCache(path={self.path})"
