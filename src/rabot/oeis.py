"""Optional lookup of integer sequences against the OEIS search service.

Lookup results label exported sequences; they are advisory and never
correctness-bearing, so every transport or parse failure degrades to
fetched=False instead of raising.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence
from urllib.parse import quote

SEARCH_URL = "https://oeis.org/search"
MAX_QUERY_TERMS = 40
DEFAULT_TIMEOUT = 10.0


@dataclass(frozen=True)
class LookupResult:
    """Matches for a queried sequence.

    fetched=False means the service could not be reached or parsed; the
    caller must treat that as "lookup unavailable", never as "no match".
    """

    query: tuple[int, ...]
    matches: tuple[tuple[str, str], ...]
    fetched: bool


def _urllib_get(url: str, timeout: float) -> str:
    # imported here: urllib.request pulls in ssl and http.client, which
    # every other subcommand would pay for at startup
    from urllib.request import urlopen

    # urlopen raises HTTPError, an OSError, on any non-2xx status
    with urlopen(url, timeout=timeout) as response:
        charset = response.headers.get_content_charset() or "utf-8"
        return response.read().decode(charset)


def _parse_matches(payload: object, limit: int) -> tuple[tuple[str, str], ...]:
    # the service has served both {"results": [...]} and a bare list
    if isinstance(payload, dict):
        results = payload.get("results")
    else:
        results = payload
    if not isinstance(results, list):
        return ()
    matches: list[tuple[str, str]] = []
    for entry in results[:limit]:
        if not isinstance(entry, dict):
            continue
        number = entry.get("number")
        name = entry.get("name")
        if isinstance(number, int) and isinstance(name, str):
            matches.append((f"A{number:06d}", name))
    return tuple(matches)


def lookup(
    values: Sequence[int],
    limit: int = 5,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    http_get: Callable[[str, float], str] | None = None,
) -> LookupResult:
    """Search the OEIS for a sequence, returning up to `limit` (id, name) pairs.

    At most MAX_QUERY_TERMS leading terms are sent.  One retry, then the
    degraded fetched=False result.
    """
    if not values:
        raise ValueError("cannot look up an empty sequence")
    if not isinstance(limit, int) or limit < 1:
        raise ValueError(f"limit must be a positive integer, got {limit!r}")
    query = tuple(values[:MAX_QUERY_TERMS])
    terms = ",".join(str(v) for v in query)
    url = f"{SEARCH_URL}?q={quote(terms, safe=',-')}&fmt=json"
    get = _urllib_get if http_get is None else http_get
    for _ in range(2):
        try:
            payload = json.loads(get(url, timeout))
        except Exception:
            continue
        return LookupResult(query, _parse_matches(payload, limit), fetched=True)
    return LookupResult(query, (), fetched=False)
