"""Settings-driven gateway configuration: a deployment is environment
variables, not code.

:class:`GatewaySettings` gathers everything ``python -m repro.gateway
serve`` needs, each knob resolved through the established chain
(explicit argument > ``repro.engine(...)`` context > installed policy
> environment variable > default) and its deciding layer recorded —
the gateway's answer to :func:`repro.api.describe_policy`:

* **bind address** — :func:`repro.api.resolve_gateway_bind`
  (``REPRO_GATEWAY_BIND``, default loopback ``127.0.0.1:8473``);
* **credentials** — the inline spec ``REPRO_GATEWAY_TOKENS`` wins
  over a token file (explicit path >
  :func:`repro.api.resolve_gateway_token_file` /
  ``REPRO_GATEWAY_TOKEN_FILE``), because the inline variable is the
  container-native deployment and the file is the mounted-secret one;
  with neither, the gateway refuses to start;
* **fleet shape** — gateway-local variables
  (:data:`GATEWAY_MEMBERS_ENV_VAR` and friends) size the
  ``FleetStore`` the service fronts; the *dispatch* of that fleet
  (executor, worker hosts, timeouts, degrade mode, HMAC secret) is
  deliberately NOT re-plumbed here — ``FleetStore`` resolves all of
  it through the existing policy chain at each pass,
  so ``REPRO_FLEET_HOSTS=... REPRO_FLEET_EXECUTOR=rpc python -m
  repro.gateway serve`` is a remote-fleet deployment with zero
  gateway-specific wiring.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..api import policy as _policy
from ..api.fleet import FleetStore
from ..api.store import StoreConfig
from ..errors import ConfigurationError
from .auth import TokenTable

#: Fleet members the serve CLI provisions (gateway-local: the fleet
#: *shape* is a service property, not an execution-policy switch).
GATEWAY_MEMBERS_ENV_VAR = "REPRO_GATEWAY_MEMBERS"
GATEWAY_SEED_ENV_VAR = "REPRO_GATEWAY_SEED"
GATEWAY_BLOCKS_ENV_VAR = "REPRO_GATEWAY_BLOCKS"

DEFAULT_GATEWAY_MEMBERS = 4
DEFAULT_GATEWAY_SEED = 2008
DEFAULT_GATEWAY_BLOCKS = 512

#: Policy rows the admin ``describe`` payload reports — how the fleet
#: dispatches and where the gateway listens; the search rows are not
#: deployment state.
_DESCRIBED_KNOBS = (
    "executor", "fleet_hosts", "fleet_timeout", "fleet_retries",
    "fleet_on_failure", "fleet_secret", "gateway_bind",
    "gateway_token_file")


def _env_int(name: str, default: int, *, minimum: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}")
    return value


@dataclass
class GatewaySettings:
    """Resolved gateway deployment configuration (see module doc)."""

    host: str
    port: int
    bind_source: str
    tokens: TokenTable
    tokens_source: str
    members: int = DEFAULT_GATEWAY_MEMBERS
    seed: int = DEFAULT_GATEWAY_SEED
    total_blocks: int = DEFAULT_GATEWAY_BLOCKS
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def resolve(cls, *, bind: Optional[str] = None,
                tokens: Optional[str] = None,
                token_file: Optional[str] = None,
                members: Optional[int] = None,
                seed: Optional[int] = None,
                total_blocks: Optional[int] = None) -> "GatewaySettings":
        """Resolve every knob through its chain and record sources.

        ``tokens`` is an inline token spec string (the
        ``REPRO_GATEWAY_TOKENS`` syntax); ``token_file`` a path to
        one.  Explicit spec > explicit file > env spec > resolved
        file (context/policy/env).
        """
        bind_value, bind_source = _policy.resolve_gateway_bind(bind)
        host, _sep, port_text = bind_value.rpartition(":")
        table, tokens_source = cls._resolve_tokens(tokens, token_file)
        return cls(
            host=host, port=int(port_text), bind_source=bind_source,
            tokens=table, tokens_source=tokens_source,
            members=members if members is not None else _env_int(
                GATEWAY_MEMBERS_ENV_VAR, DEFAULT_GATEWAY_MEMBERS,
                minimum=1),
            seed=seed if seed is not None else _env_int(
                GATEWAY_SEED_ENV_VAR, DEFAULT_GATEWAY_SEED, minimum=0),
            total_blocks=total_blocks if total_blocks is not None
            else _env_int(GATEWAY_BLOCKS_ENV_VAR,
                          DEFAULT_GATEWAY_BLOCKS, minimum=64))

    @staticmethod
    def _resolve_tokens(tokens: Optional[str],
                        token_file: Optional[str]) -> "tuple[TokenTable, str]":
        if tokens is not None:
            return TokenTable.from_spec(tokens, where="explicit spec"), \
                "explicit"
        if token_file is None:
            inline = os.environ.get(_policy.GATEWAY_TOKENS_ENV_VAR)
            if inline is not None and inline.strip():
                return TokenTable.from_spec(
                    inline, where=_policy.GATEWAY_TOKENS_ENV_VAR), "env"
            token_file, file_source = \
                _policy.resolve_gateway_token_file(None)
        else:
            file_source = "explicit"
        if token_file is None:
            raise ConfigurationError(
                "no gateway credentials configured: set "
                f"{_policy.GATEWAY_TOKENS_ENV_VAR} to an inline token "
                f"spec, or point {_policy.GATEWAY_TOKEN_FILE_ENV_VAR} "
                "(or the gateway_token_file policy field) at a token "
                "file")
        try:
            with open(token_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read gateway token file {token_file!r}: "
                f"{exc}") from exc
        return TokenTable.from_spec(text, where=token_file), \
            f"token_file ({file_source})"

    @property
    def bind(self) -> str:
        return f"{self.host}:{self.port}"

    def build_fleet(self) -> FleetStore:
        """Provision the fleet this gateway fronts.

        Members keep instruction logs (``audit_log=True``) so the
        admin ``history`` endpoint has records to serve; dispatch
        executor/hosts/faults resolve per pass through the policy
        chain, untouched by this object.
        """
        return FleetStore.create(
            self.members,
            StoreConfig(total_blocks=self.total_blocks, audit_log=True),
            seed=self.seed)

    def describe(self) -> Dict[str, Any]:
        """Deployment diagnostics for the admin ``describe`` endpoint
        — sources, never secret material (token count only), plus the
        fleet-dispatch policy picture the service will run under."""
        return {
            "bind": self.bind,
            "bind_source": self.bind_source,
            "tokens": len(self.tokens),
            "tokens_source": self.tokens_source,
            "members": self.members,
            "seed": self.seed,
            "total_blocks": self.total_blocks,
            "policy": {
                key: value for name in _DESCRIBED_KNOBS
                for key, value in _policy.describe_knob(name).items()
            },
        }
