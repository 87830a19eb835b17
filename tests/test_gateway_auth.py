"""Gateway authorization: the token grammar and the decision matrix.

Two layers, no sockets anywhere:

* **grammar** — token-spec parsing (entries, comments, duplicate
  grants widening, duplicate tokens rejected, expiry elements) and
  tenant-namespace confinement (traversal cannot leave the prefix);
* **matrix** — the full authorization decision table driven straight
  through :meth:`GatewayApp.handle`: cross-tenant access answers the
  *same 404 body* as a missing object (tenant roster not probeable),
  insufficient permission on a granted tenant answers 403, and every
  credential failure (absent / unknown / expired token) answers one
  indistinguishable 401.
"""

from __future__ import annotations

import json

import pytest

from repro.api.fleet import FleetStore
from repro.api.store import StoreConfig
from repro.errors import ConfigurationError
from repro.gateway import (
    GatewayApp,
    Grant,
    PathError,
    TokenTable,
    confine,
    evidence_case,
    parse_token_spec,
)
from repro.gateway.auth import redact

SPEC = """
# ops
root-token=admin
acme-rw=acme:rw
acme-ro=acme:r
globex-rw=globex:w;both-ro=acme:r,globex:r
stale-tok=acme:rw,expires:1500000000
"""


# -- token grammar -------------------------------------------------------------


def test_spec_parses_entries_comments_and_semicolons():
    table = parse_token_spec(SPEC)
    assert set(table) == {"root-token", "acme-rw", "acme-ro",
                          "globex-rw", "both-ro", "stale-tok"}
    assert table["root-token"].admin
    assert table["acme-rw"].grants["acme"] == Grant("acme", True, True)
    assert table["both-ro"].grants.keys() == {"acme", "globex"}


def test_write_implies_read():
    table = parse_token_spec("wtok=acme:w")
    grant = table["wtok"].grants["acme"]
    assert grant.read and grant.write


def test_duplicate_tenant_grants_widen_never_narrow():
    table = parse_token_spec("tok1=acme:w,acme:r")
    assert table["tok1"].grants["acme"] == Grant("acme", True, True)


def test_duplicate_tokens_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_token_spec("tok1=acme:r;tok1=globex:r")


def test_token_granting_nothing_rejected():
    with pytest.raises(ConfigurationError, match="grants nothing"):
        parse_token_spec("tok1=")


def test_short_or_spaced_tokens_rejected():
    with pytest.raises(ConfigurationError, match="whitespace"):
        parse_token_spec("abc=acme:r")
    with pytest.raises(ConfigurationError, match="whitespace"):
        parse_token_spec("a bcd=acme:r")


def test_bad_grant_elements_rejected():
    with pytest.raises(ConfigurationError, match="bad permissions"):
        parse_token_spec("tok1=acme:x")
    with pytest.raises(ConfigurationError, match="bad grant element"):
        parse_token_spec("tok1=acme")
    with pytest.raises(ConfigurationError, match="bad tenant name"):
        parse_token_spec("tok1=.hidden:r")
    with pytest.raises(ConfigurationError, match="expires"):
        parse_token_spec("tok1=acme:r,expires:soon")


def test_empty_table_refused():
    with pytest.raises(ConfigurationError, match="refuses to start"):
        TokenTable({})


def test_redaction_never_echoes_the_full_token():
    assert "secret" not in redact("secretcredential")


def test_expired_unknown_and_missing_are_indistinguishable():
    from repro.gateway import AuthError

    table = TokenTable.from_spec(SPEC)
    messages = set()
    for token, now in ((None, None), ("never-issued", None),
                      ("stale-tok", 1500000001)):
        with pytest.raises(AuthError) as err:
            table.resolve(token, now=now)
        messages.add(str(err.value))
    assert len(messages) == 1
    # not yet expired → resolves
    assert table.resolve("stale-tok", now=1499999999).grants["acme"]


# -- namespace confinement -----------------------------------------------------


def test_confine_maps_into_tenant_prefix():
    assert confine("acme", "/ledger/2026") == "/t/acme/ledger/2026"


@pytest.mark.parametrize("path", [
    "ledger",              # not absolute
    "/",                   # the root is not an object
    "/a/../../t/globex/x",  # traversal
    "/a//b",               # empty segment
    "/a/" + "x" * 200,     # over-long segment
    "/a/b c",              # whitespace smuggling
])
def test_confine_rejects_escapes(path):
    with pytest.raises(PathError):
        confine("acme", path)


def test_evidence_case_is_tenant_prefixed_and_flat():
    assert evidence_case("acme", "case-7") == "acme--case-7"
    with pytest.raises(PathError):
        evidence_case("acme", "a/b")


# -- the decision matrix through the app ---------------------------------------


@pytest.fixture()
def app():
    fleet = FleetStore.create(2, StoreConfig(total_blocks=128,
                                             audit_log=True))
    return GatewayApp(fleet, TokenTable.from_spec(SPEC))


def _call(app, method, path, token=None, body=None):
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    raw = json.dumps(body).encode() if body is not None else b""
    return app.handle(method, path, headers, raw)


def _seed(app, tenant, path="/doc"):
    _call(app, "POST", f"/v1/t/{tenant}/put", "root-token",
          {"path": path, "data": ""})


def test_healthz_needs_no_token(app):
    status, _headers, body = _call(app, "GET", "/v1/healthz")
    assert (status, body["status"]) == (200, "ok")


def test_missing_token_is_401_with_challenge(app):
    status, headers, body = _call(app, "GET", "/v1/t/acme/get?path=/x")
    assert status == 401
    assert headers["WWW-Authenticate"] == "Bearer"
    assert body["error"]["code"] == "unauthorized"


def test_unknown_and_expired_tokens_answer_identically(app):
    responses = {
        token: _call(app, "GET", "/v1/t/acme/get?path=/x", token)
        for token in ("never-issued", "stale-tok")
    }
    assert len({json.dumps(r) for r in responses.values()}) == 1
    assert responses["stale-tok"][0] == 401


def test_cross_tenant_read_matches_missing_object_byte_for_byte(app):
    _seed(app, "acme")
    # globex-rw holds no grant on acme: the response must be
    # indistinguishable from asking for an object that does not exist
    cross = _call(app, "GET", "/v1/t/acme/get?path=/doc", "globex-rw")
    missing = _call(app, "GET", "/v1/t/acme/get?path=/nope",
                    "acme-rw")
    assert cross[0] == missing[0] == 404
    assert cross[2] == missing[2]


@pytest.mark.parametrize("method,op,body", [
    ("POST", "put", {"path": "/x", "data": ""}),
    ("POST", "seal", {"path": "/x"}),
    ("POST", "seal_many", {"paths": ["/x"]}),
    ("POST", "export_evidence",
     {"case": "c1", "exhibits": {"a": ""}}),
    ("GET", "get?path=/x", None),
    ("GET", "verify?path=/x", None),
])
def test_no_grant_hides_the_tenant_on_every_op(app, method, op, body):
    status, _headers, out = _call(app, method, f"/v1/t/acme/{op}",
                                  "globex-rw", body)
    assert status == 404
    assert out["error"]["code"] == "not_found"


def test_reader_cannot_write_403(app):
    _seed(app, "acme")
    for op, body in (("put", {"path": "/y", "data": ""}),
                     ("seal", {"path": "/doc"}),
                     ("seal_many", {"paths": ["/doc"]}),
                     ("export_evidence",
                      {"case": "c1", "exhibits": {"a": ""}})):
        status, _headers, out = _call(app, "POST",
                                      f"/v1/t/acme/{op}",
                                      "acme-ro", body)
        assert status == 403, op
        assert out["error"]["code"] == "forbidden"
    # …while reads still work
    status, _headers, _out = _call(app, "GET",
                                   "/v1/t/acme/get?path=/doc",
                                   "acme-ro")
    assert status == 200


def test_writer_allowed_and_write_implies_read(app):
    status, _h, _b = _call(app, "POST", "/v1/t/globex/put",
                           "globex-rw", {"path": "/w", "data": ""})
    assert status == 200
    status, _h, _b = _call(app, "GET",
                           "/v1/t/globex/get?path=/w", "globex-rw")
    assert status == 200


def test_admin_reaches_every_tenant(app):
    for tenant in ("acme", "globex", "brand-new"):
        status, _h, _b = _call(app, "POST", f"/v1/t/{tenant}/put",
                               "root-token",
                               {"path": "/a", "data": ""})
        assert status == 200


@pytest.mark.parametrize("method,op", [
    ("GET", "audit"), ("GET", "history"), ("GET", "describe"),
    ("GET", "alerts"),
])
def test_admin_endpoints_403_for_tenant_tokens(app, method, op):
    status, _h, body = _call(app, method, f"/v1/admin/{op}",
                             "acme-rw", {} if method == "POST" else None)
    assert status == 403
    assert body["error"]["code"] == "forbidden"
    status, _h, _b = _call(app, method, f"/v1/admin/{op}",
                           "root-token", {} if method == "POST" else None)
    assert status == 200


def test_admin_format_verb_is_gone(app):
    """Every gateway fleet is fs-backed, where a format scan could only
    erase or refuse: the verb is not served, to admins or tenants."""
    for token in ("root-token", "acme-rw"):
        status, _h, body = _call(app, "POST", "/v1/admin/format", token, {})
        assert status == 404
        assert body["error"]["code"] == "not_found"


def test_tenant_cannot_smuggle_a_path_out_of_its_namespace(app):
    _seed(app, "globex", "/secret")
    status, _h, body = _call(app, "POST", "/v1/t/acme/put", "acme-rw",
                             {"path": "/../globex/steal", "data": ""})
    assert status == 400
    # and reads with traversal are equally rejected, not routed
    status, _h, _b = _call(
        app, "GET", "/v1/t/acme/get?path=/../../t/globex/secret",
        "acme-rw")
    assert status == 400


def test_two_tenants_same_path_are_distinct_objects(app):
    for tenant, token, payload in (("acme", "acme-rw", "AAA"),
                                   ("globex", "globex-rw", "GGG")):
        import base64

        status, _h, _b = _call(
            app, "POST", f"/v1/t/{tenant}/put", token,
            {"path": "/report",
             "data": base64.b64encode(payload.encode()).decode()})
        assert status == 200
    status, _h, body = _call(app, "GET",
                             "/v1/t/acme/get?path=/report", "both-ro")
    import base64

    assert base64.b64decode(body["data"]) == b"AAA"


def test_grant_resolution_precedence_last_write_wins_union(app):
    # both-ro holds r on both tenants: reads allowed, writes forbidden
    _seed(app, "acme")
    status, _h, _b = _call(app, "GET",
                           "/v1/t/acme/get?path=/doc", "both-ro")
    assert status == 200
    status, _h, _b = _call(app, "POST", "/v1/t/acme/put", "both-ro",
                           {"path": "/z", "data": ""})
    assert status == 403


def test_conflict_and_validation_statuses(app):
    _seed(app, "acme")
    status, _h, body = _call(app, "POST", "/v1/t/acme/put", "acme-rw",
                             {"path": "/doc", "data": ""})
    assert status == 409 and body["error"]["code"] == "conflict"
    status, _h, body = _call(app, "POST", "/v1/t/acme/put", "acme-rw",
                             {"data": ""})
    assert status == 400
    status, _h, body = _call(app, "POST", "/v1/t/acme/put", "acme-rw",
                             {"path": "/ok", "data": "!!!not-b64"})
    assert status == 400
    status, _h, body = _call(app, "POST", "/v1/t/acme/seal",
                             "acme-rw", {"path": "/doc",
                                         "timestamp": "now"})
    assert status == 400
    status, _h, body = _call(app, "GET", "/v1/nope/где", "acme-rw")
    assert status == 404


def test_search_without_grant_matches_missing_object_byte_for_byte(app):
    _seed(app, "acme")
    # globex-rw holds no grant on acme: probing the search endpoint
    # must be indistinguishable from a missing object
    cross = _call(app, "GET", "/v1/t/acme/search?q=doc", "globex-rw")
    missing = _call(app, "GET", "/v1/t/acme/get?path=/nope",
                    "acme-rw")
    assert cross[0] == missing[0] == 404
    assert cross[2] == missing[2]


def test_alert_registration_is_admin_only_and_validated(app):
    denied = _call(app, "POST", "/v1/admin/alerts", "acme-rw",
                   {"name": "t", "query": "tampered:true"})
    assert denied[0] == 403

    bad = _call(app, "POST", "/v1/admin/alerts", "root-token",
                {"name": "t"})
    assert bad[0] == 400  # query is required

    ok = _call(app, "POST", "/v1/admin/alerts", "root-token",
               {"name": "t", "query": "tampered:true",
                "tenant": "acme"})
    assert ok[0] == 200
    assert ok[2] == {"name": "t", "query": "tampered:true",
                     "tenant": "acme"}

    gone = _call(app, "POST", "/v1/admin/alerts", "root-token",
                 {"unregister": "t"})
    assert gone[0] == 200 and gone[2]["unregistered"] is True
    listing = _call(app, "GET", "/v1/admin/alerts", "root-token")
    assert listing[0] == 200
    assert listing[2] == {"standing": [], "alerts": []}
