"""Output checks for every generated interface.

Each interface is exported to JSON (:func:`repro.interface.export.
interface_to_json`).  For any seed it must be complete (every choice node
bound exactly once) and have at least the log's ``expected_min_views``
(logs in :data:`KNOWN_VIEW_SHORTFALL`: the pinned count); a repeat
request must export byte-identically to the request that first
served its log.  For the default seed the export's digest must equal the one
pinned in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Logs whose interfaces have fewer views than the paper's figure shows, at
#: the commit that introduced this benchmark: the program maps Abstract
#: (Listing 2) and Connect (Listing 3) to one view, where the workload's
#: ``expected_min_views`` (the paper's overview+detail and linked pair) is 2.
#: For the paper's own queries the check requires exactly this count, so a
#: change in either direction fails; a program change that reaches the
#: paper's count must drop the entry.  A literal-perturbed variant of these
#: logs may already reach the paper's count, so for variants this count is
#: the minimum.  Every run prints the shortfall.
KNOWN_VIEW_SHORTFALL = {"abstract": 1, "connect": 1}


def digest(exported: str) -> str:
    return hashlib.sha256(exported.encode("utf-8")).hexdigest()[:16]


def view_problem(log: str, views: int, expected_min_views: int, variant: bool) -> Optional[str]:
    """What is wrong with an interface of ``views`` views for ``log`` (or, with
    ``variant``, for a literal-perturbed variant of it), if anything."""
    pinned = KNOWN_VIEW_SHORTFALL.get(log)
    if pinned is not None and (views < pinned or (views != pinned and not variant)):
        return (f"{views} view(s), pinned shortfall is {pinned} "
                f"(paper: {expected_min_views}); update checks.KNOWN_VIEW_SHORTFALL")
    if pinned is None and views < expected_min_views:
        return f"{views} view(s), need {expected_min_views}"
    return None


def load_digests(workload: str) -> dict[str, str]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text()).get(workload, {})


def write_digests(workload: str, digests: dict[str, str]) -> None:
    pinned = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    pinned[workload] = dict(sorted(digests.items()))
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def problems(
    interface,
    exported: str,
    log: str,
    expected_min_views: int,
    variant: bool,
    pinned: Optional[str],
    first_export: Optional[str],
) -> list[str]:
    """Everything wrong with one request's output (empty when it passes)."""
    found = []
    if interface is None:
        return ["no interface"]
    if not interface.is_complete():
        found.append("interface is not complete")
    views = view_problem(log, interface.num_views(), expected_min_views, variant)
    if views is not None:
        found.append(views)
    if interface.cost is None:
        found.append("interface has no cost")
    if pinned is not None and digest(exported) != pinned:
        found.append(f"digest {digest(exported)} != pinned {pinned}")
    if first_export is not None and exported != first_export:
        found.append("repeat request exported a different interface")
    return found
