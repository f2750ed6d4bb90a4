"""Optional LLM cross-check of supervisor routing via a chat-completions endpoint.

The endpoint is asked, once per transition, which stage should run next.
The question is plain text built from the blackboard and the finished
agent's report: its status and summary line, clipped, and a fixed line
listing every stage. The answer is accepted only when it parses to
exactly one role name and agrees with the deterministic route, which the
router passes in as the fallback; every other outcome (parse failure,
transport error, timeout, redirect, disagreement) falls back to it. The
router only observes: the episode always follows the deterministic route,
so it never depends on the network, and the decisions record how often
the endpoint agreed.

The endpoint is described by scenario.EndpointConfig, the class the
scenario's llm section builds; EndpointConfig.from_settings fills in the
API key from the environment.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import re
import urllib.request
from dataclasses import dataclass

from .lifecycle import IDLE, ROLE_NAMES, AgentRole
from .scenario import EndpointConfig

log = logging.getLogger(__name__)

# a failed agent's message is str(exc), which has no length bound
_MESSAGE_CLIP = 500

_IDLE_NAME = "Idle"
_STAGES_LINE = "The stages are: " + ", ".join(ROLE_NAMES) + f", {_IDLE_NAME}."
_NAME_LOOKUP = {name.lower(): AgentRole(name) for name in ROLE_NAMES}
_NAME_LOOKUP[_IDLE_NAME.lower()] = IDLE


class _RefuseRedirects(urllib.request.HTTPRedirectHandler):
    """Turn every 3xx into an HTTPError, so the key only goes to base_url."""

    def redirect_request(self, *args):
        return None


@functools.cache
def _opener():
    """One shared opener, built on first use (from Python 3.12 that loads the CA bundle)."""
    return urllib.request.build_opener(_RefuseRedirects)


@dataclass(frozen=True)
class RoutingDecision:
    """Where one routing answer came from; the route is the caller's own."""

    source: str  # "llm" when the answer named the route, else "fallback"
    raw_response: str = ""


def build_routing_prompt(blackboard, report) -> str:
    """Summarize the blackboard and the finished agent's report into one
    routing question."""
    status = "ok" if report.ok else "fail"
    decision = blackboard.trigger_decision
    if decision is None:
        trigger_line = "Trigger state: none."
    else:
        state = f"fired, reason {decision.reason.value}" if decision.trigger else "quiet"
        if None in (decision.deployed_gain_db, decision.baseline_gain_db):
            # a HardwareChange decision compares no gains
            trigger_line = f"Trigger state: {state}."
        else:
            trigger_line = (
                f"Trigger state: {state}, deployed {decision.deployed_gain_db:.4f} dB "
                f"vs baseline {decision.baseline_gain_db:.4f} dB."
            )
    last_db = blackboard.last_deployed_gain_db
    message = report.message[:_MESSAGE_CLIP]
    return "\n".join(
        [
            "You route stages of a self-maintaining beamforming loop.",
            f"Step index: {blackboard.step_index}.",
            f"Finished stage: {report.role.value}, status {status}: {message}",
            trigger_line,
            "No movable array deployed yet."
            if last_db is None
            else f"Last deployed gain: {last_db:.4f} dB.",
            _STAGES_LINE,
            "Answer with exactly one stage name and nothing else.",
        ]
    )


def parse_role_name(raw) -> object | None:
    """Map a model response onto a role or Idle; None when unparseable."""
    if not isinstance(raw, str):
        return None
    cleaned = re.sub(r"^[^A-Za-z]+|[^A-Za-z]+$", "", raw)
    return _NAME_LOOKUP.get(cleaned.lower())


def decide_next_agent(prompt: str, fallback_role, config: EndpointConfig) -> RoutingDecision:
    """Ask the endpoint for the next stage and record whether it agreed.

    fallback_role is the deterministic supervisor result and therefore the
    only legal transition; the decision's source is "llm" only when the
    answer names it. No failure mode escapes as an exception.
    """
    raw = _post_chat(prompt, config)
    if raw is None:
        return RoutingDecision("fallback")
    parsed = parse_role_name(raw)
    if parsed is None:
        log.warning("unparseable routing response %r; using fallback", raw[:80])
        return RoutingDecision("fallback", raw)
    if parsed is not fallback_role:
        log.warning(
            "routing response %r is not a legal transition here; using fallback", raw[:80]
        )
        return RoutingDecision("fallback", raw)
    return RoutingDecision("llm", raw)


def _post_chat(prompt_text, config):
    """One chat-completions request with retries; None on any failure.

    Failures: a status other than 200 (a refused redirect; none at all
    from a non-HTTP URL), a timeout or refused connection, a broken HTTP
    exchange, a body without choices[0].message.content. HTTPS verifies
    certificates through ssl's default context.
    """
    url = config.base_url.rstrip("/") + "/chat/completions"
    headers = {
        "Authorization": f"Bearer {config.api_key}",
        "Content-Type": "application/json",
    }
    body = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": 0,
    }
    data = json.dumps(body).encode("utf-8")
    for _ in range(config.max_retries + 1):
        try:
            request = urllib.request.Request(url, data=data, headers=headers)
            with _opener().open(request, timeout=config.timeout_s) as response:
                if response.status != 200:
                    continue
                reply = json.loads(response.read())
            return str(reply["choices"][0]["message"]["content"])
        except (OSError, http.client.HTTPException, ValueError, LookupError, TypeError):
            continue
    return None


def make_router(config: EndpointConfig, decision_log=None):
    """Build a run_episode router that consults the endpoint per transition.

    The router is an observer: it returns nothing, and the episode follows
    the deterministic route whatever the endpoint answers.

    Args:
        config: endpoint to query.
        decision_log: optional list collecting the RoutingDecision of each transition.
    """

    def router(blackboard, report, fallback_role):
        prompt = build_routing_prompt(blackboard, report)
        decision = decide_next_agent(prompt, fallback_role, config)
        if decision_log is not None:
            decision_log.append(decision)

    return router
