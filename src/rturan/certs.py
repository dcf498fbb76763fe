"""Machine-checkable certificates and the directory they are written to,
where each file is named by the hash of its kind and params."""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Optional

from .graphs import Record

ENGINE_VERSION = "0.1.0"
ENUMERATION_SCHEME = 1
SCHEMA = 1

PASS = "PASS"
FAIL = "FAIL"
BUDGET_EXHAUSTED = "BUDGET-EXHAUSTED"


class Certificate(Record):
    _fields = ("kind", "verdict", "params", "payload", "nodes_visited",
               "exhaustive", "assumptions", "seed")

    def __init__(self, kind: str, verdict: str, params: dict,
                 payload: Optional[dict] = None, nodes_visited: int = 0,
                 exhaustive: bool = True, assumptions: tuple[str, ...] = (),
                 seed: Optional[int] = None):
        self.kind = kind        # avoider | exhaustion | k6_rainbow_free | k6_universal | k2s4 | reduction
        self.verdict = verdict  # PASS | FAIL | BUDGET-EXHAUSTED
        self.params = params
        self.payload = {} if payload is None else payload
        self.nodes_visited = nodes_visited
        self.exhaustive = exhaustive
        self.assumptions = assumptions
        self.seed = seed

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "engine_version": ENGINE_VERSION,
            "enumeration_scheme": ENUMERATION_SCHEME,
            "kind": self.kind,
            "verdict": self.verdict,
            "params": self.params,
            "payload": self.payload,
            "nodes_visited": self.nodes_visited,
            "exhaustive": self.exhaustive,
            "assumptions": list(self.assumptions),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """Raises ValueError on input that is not a certificate of this schema."""
        if not isinstance(obj, dict):
            raise ValueError("certificate is not a JSON object")
        if obj.get("schema") != SCHEMA:
            raise ValueError(f"unsupported certificate schema {obj.get('schema')!r}")
        for key in ("kind", "verdict"):
            if key not in obj:
                raise ValueError(f"certificate has no {key!r} field")
        for key in ("params", "payload"):
            if not isinstance(obj.get(key, {}), dict):
                raise ValueError(f"certificate field {key!r} is not a JSON object")
        if not isinstance(obj.get("assumptions", []), list):
            raise ValueError("certificate field 'assumptions' is not a list")
        return cls(
            kind=obj["kind"],
            verdict=obj["verdict"],
            params=obj.get("params", {}),
            payload=obj.get("payload", {}),
            # absent fields stay absent (None): a recheck that reads one
            # refuses it, and one that compares it finds it not reproduced
            nodes_visited=obj.get("nodes_visited"),
            exhaustive=obj.get("exhaustive"),
            assumptions=tuple(obj.get("assumptions", [])),
            seed=obj.get("seed"),
        )


def default_cache_dir() -> Path:
    return Path(os.environ.get("RT_CACHE_DIR", ".rturan-cache"))


def sha256_hex(text: str) -> str:
    """Hex SHA-256 digest of text's UTF-8 bytes: the content hash that names
    certificate files and marks an avoider's coloring with its graph."""
    return _sha256()(text.encode()).hexdigest()


@functools.cache
def _sha256():
    # CPython's built-in SHA-256, the module hashlib itself falls back to: the
    # same digest without loading OpenSSL's libcrypto.  Imported on the first
    # hash, so runs that hash nothing load none of them
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256  # a build without built-in hashes
    return sha256


def cache_key(operation: str, params: dict) -> str:
    """The certificate's file name: sha256_hex of the operation, its params
    and ENGINE_VERSION as compact JSON with sorted keys."""
    payload = json.dumps({"operation": operation, "params": params,
                          "engine": ENGINE_VERSION},
                         sort_keys=True, separators=(",", ":"))
    return sha256_hex(payload)


def save_certificate(cert: Certificate, cache_dir: Optional[Path] = None) -> Path:
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{cache_key(cert.kind, cert.params)}.json"
    # write a sibling file, then rename it over the target: a reader (or a
    # crash) never sees a half-written certificate
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_certificate(path: Path | str) -> Certificate:
    return Certificate.from_json(json.loads(Path(path).read_text()))
