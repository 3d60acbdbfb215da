"""OEIS lookup client, exercised entirely against recorded fixtures."""
import json

import pytest

from rabot.oeis import DEFAULT_TIMEOUT, MAX_QUERY_TERMS, LookupResult, _urllib_get, lookup

FIXTURE = {
    "greeting": "Greetings from The On-Line Encyclopedia of Integer Sequences!",
    "count": 2,
    "results": [
        {
            "number": 27649,
            "name": "a(n) = 2*3^n - 2^n.",
            "data": "1,4,14,46,146,454,1394,4246",
        },
        {
            "number": 81625,
            "name": "Row sums of a convolution triangle.",
            "data": "1,4,14,46,146",
        },
    ],
}


def recorded(payload):
    """http_get stub returning a canned body and logging requested urls."""
    calls = []

    def get(url, timeout):
        calls.append(url)
        if isinstance(payload, Exception):
            raise payload
        return payload if isinstance(payload, str) else json.dumps(payload)

    return get, calls


def test_fixture_roundtrip():
    get, calls = recorded(FIXTURE)
    result = lookup([1, 4, 14, 46, 146], http_get=get)
    assert result.fetched
    assert result.query == (1, 4, 14, 46, 146)
    assert result.matches == (
        ("A027649", "a(n) = 2*3^n - 2^n."),
        ("A081625", "Row sums of a convolution triangle."),
    )
    assert len(calls) == 1
    assert "q=1,4,14,46,146" in calls[0]
    assert "fmt=json" in calls[0]
    assert calls[0].startswith("https://oeis.org/search?")


def test_bare_list_payload_shape():
    get, _ = recorded(FIXTURE["results"])
    result = lookup([1, 4, 14], http_get=get)
    assert result.fetched
    assert len(result.matches) == 2


def test_limit_respected():
    get, _ = recorded(FIXTURE)
    result = lookup([1, 4, 14], limit=1, http_get=get)
    assert result.matches == (("A027649", "a(n) = 2*3^n - 2^n."),)


def test_query_truncated_to_forty_terms():
    get, calls = recorded(FIXTURE)
    values = list(range(1, 61))
    result = lookup(values, http_get=get)
    assert result.query == tuple(range(1, MAX_QUERY_TERMS + 1))
    sent = calls[0].split("q=")[1].split("&")[0]
    assert sent.count(",") == MAX_QUERY_TERMS - 1


def test_big_terms_sent_verbatim():
    get, calls = recorded(FIXTURE)
    big = 2**200
    lookup([1, big], http_get=get)
    assert str(big) in calls[0]


def test_transport_failure_degrades():
    get, calls = recorded(OSError("no route to host"))
    result = lookup([1, 2, 3], http_get=get)
    assert result == LookupResult((1, 2, 3), (), fetched=False)
    assert len(calls) == 2  # one retry


def test_malformed_json_degrades():
    get, _ = recorded("<html>service busy</html>")
    result = lookup([1, 2, 3], http_get=get)
    assert not result.fetched
    assert result.matches == ()


def test_null_results_field():
    get, _ = recorded({"results": None, "count": 0})
    result = lookup([99999, 88888], http_get=get)
    assert result.fetched
    assert result.matches == ()


def test_malformed_entries_skipped():
    payload = {
        "results": [
            {"number": "A000045", "name": "not an int id"},
            "garbage",
            {"number": 45, "name": "Fibonacci numbers."},
            {"number": 46},
        ]
    }
    get, _ = recorded(payload)
    result = lookup([0, 1, 1, 2], http_get=get)
    assert result.matches == (("A000045", "Fibonacci numbers."),)


def test_retry_then_success():
    attempts = []

    def flaky(url, timeout):
        attempts.append(url)
        if len(attempts) == 1:
            raise TimeoutError("slow service")
        return json.dumps(FIXTURE)

    result = lookup([1, 4, 14], http_get=flaky)
    assert result.fetched
    assert len(attempts) == 2


def test_input_validation():
    get, _ = recorded(FIXTURE)
    with pytest.raises(ValueError):
        lookup([], http_get=get)
    with pytest.raises(ValueError):
        lookup([1, 2], limit=0, http_get=get)


def test_urllib_transport_reads_file_url(tmp_path):
    path = tmp_path / "search.json"
    path.write_text(json.dumps(FIXTURE), encoding="utf-8")
    body = _urllib_get(path.as_uri(), DEFAULT_TIMEOUT)
    assert lookup([1, 4, 14], http_get=lambda url, timeout: body).matches[0][0] == "A027649"
    with pytest.raises(OSError):
        _urllib_get((tmp_path / "missing.json").as_uri(), DEFAULT_TIMEOUT)
