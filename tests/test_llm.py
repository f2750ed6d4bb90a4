"""Routing adapter behavior against a local mock chat endpoint."""

import json
import math
import socket
import time
from dataclasses import replace

import pytest
from conftest import SENTINEL_KEY, MockEndpoint

import evobeam.lifecycle as lifecycle
from evobeam import scenario
from evobeam.errors import ConfigurationError, EvobeamError, ValidationError
from evobeam.lifecycle import (
    IDLE,
    AgentReport,
    AgentRole,
    Blackboard,
    TriggerDecision,
    TriggerReason,
    agent_execute,
    run_episode,
    supervisor_next,
)
from evobeam.llm import (
    EndpointConfig,
    build_routing_prompt,
    decide_next_agent,
    make_router,
    parse_role_name,
)
from evobeam.scenario import MAX_RETRIES, MAX_TIMEOUT_S, default_scenario


def make_config(url, timeout_s=5.0, max_retries=0):
    return EndpointConfig(
        base_url=url,
        model_name="router-model",
        api_key=SENTINEL_KEY,
        timeout_s=timeout_s,
        max_retries=max_retries,
    )


def triggered_prompt():
    blackboard = Blackboard()
    blackboard.step_index = 7
    blackboard.stage = AgentRole.MONITORING
    blackboard.trigger_decision = TriggerDecision(
        True, TriggerReason.BELOW_BASELINE, deployed_gain_db=3.9847, baseline_gain_db=7.8169
    )
    report = AgentReport(
        role=AgentRole.MONITORING, ok=True, message="deployed below baseline"
    )
    return build_routing_prompt(blackboard, report)


def decide(config, fallback=AgentRole.DATA_COLLECTION):
    """Route the triggered prompt, where the deterministic answer is fallback."""
    return decide_next_agent(triggered_prompt(), fallback, config)


def dead_url():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}/v1"


class TestParsing:
    def test_exact_names_parse(self):
        assert parse_role_name("DataCollection") is AgentRole.DATA_COLLECTION
        assert parse_role_name("Monitoring") is AgentRole.MONITORING
        assert parse_role_name("Idle") is IDLE

    def test_decoration_and_case_are_tolerated(self):
        assert parse_role_name("  Training.\n") is AgentRole.TRAINING
        assert parse_role_name('"deployment"') is AgentRole.DEPLOYMENT
        assert parse_role_name("MODELSELECTION") is AgentRole.MODEL_SELECTION

    def test_garbage_does_not_parse(self):
        assert parse_role_name("I think you should probably retrain the model") is None
        assert parse_role_name("") is None
        assert parse_role_name("42") is None
        assert parse_role_name(None) is None
        assert parse_role_name("Training and Evaluation") is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_retries", 1.5),
        ("max_retries", True),
        ("max_retries", -1),
        ("max_retries", MAX_RETRIES + 1),
        ("timeout_s", math.inf),
        ("timeout_s", math.nan),
        ("timeout_s", 0),
        ("timeout_s", MAX_TIMEOUT_S * 2),
        ("timeout_s", 1.0e300),
    ],
    ids=str,
)
def test_endpoint_config_checks_its_numbers(field, value):
    with pytest.raises(ValidationError, match=rf"^llm\.{field}\b"):
        EndpointConfig(base_url="http://h/v1", model_name="m", **{field: value})


def test_the_llm_section_and_the_router_share_one_config_class():
    assert EndpointConfig is scenario.EndpointConfig


class TestPrompt:
    def test_prompt_lists_every_role_and_stays_small(self):
        prompt = triggered_prompt()
        for name in (
            "DataCollection",
            "ModelSelection",
            "Training",
            "Evaluation",
            "Deployment",
            "Monitoring",
        ):
            assert name in prompt
        assert "Idle" in prompt
        assert len(prompt.encode()) <= 8192
        assert "3.9847" in prompt
        assert "7.8169" in prompt

    @pytest.mark.parametrize("field", ["message"])
    def test_long_report_messages_are_clipped(self, monkeypatch, field):
        # a failed agent's message is str(exc), which has no length bound
        def raising(blackboard, scenario):
            raise EvobeamError("\u00e9" * 100000)

        monkeypatch.setitem(lifecycle._HANDLERS, AgentRole.MONITORING, raising)
        blackboard = Blackboard(stage=AgentRole.MONITORING)
        report = agent_execute(AgentRole.MONITORING, blackboard, default_scenario())
        prompt = build_routing_prompt(blackboard, report)
        assert len(prompt.encode()) <= 8192
        assert "status fail: " + "\u00e9" * 500 + "\n" in prompt

    def test_upgrade_prompt_names_hardware_change_without_unknown_gains(self):
        blackboard = Blackboard(stage=AgentRole.MONITORING)
        report = agent_execute(AgentRole.MONITORING, blackboard, default_scenario())
        supervisor_next(blackboard, report)
        prompt = build_routing_prompt(blackboard, report)
        assert "Trigger state: fired, reason HardwareChange." in prompt
        assert "unknown" not in prompt


class TestDecide:
    def test_legal_answer_is_accepted_from_the_llm(self, endpoint):
        endpoint.reply_content("DataCollection")
        decision = decide(make_config(endpoint.url))
        assert decision.source == "llm"
        assert decision.raw_response == "DataCollection"

    def test_decorated_legal_answer_is_accepted(self, endpoint):
        endpoint.reply_content(" datacollection.\n")
        decision = decide(make_config(endpoint.url))
        assert decision.source == "llm"

    def test_garbage_answer_falls_back(self, endpoint):
        endpoint.reply_content("I think you should probably retrain the model")
        decision = decide(make_config(endpoint.url))
        assert decision.source == "fallback"

    def test_illegal_transition_falls_back(self, endpoint):
        endpoint.reply_content("Deployment")
        decision = decide(make_config(endpoint.url))
        assert decision.source == "fallback"

    def test_idle_fallback_accepts_idle(self, endpoint):
        endpoint.reply_content("Idle.")
        decision = decide(make_config(endpoint.url), fallback=IDLE)
        assert decision.source == "llm"

    def test_timeout_falls_back(self, endpoint):
        endpoint.reply_content("DataCollection")
        endpoint.reply_script((200, b"{}", 2.0))
        config = make_config(endpoint.url, timeout_s=0.2, max_retries=0)
        start = time.time()
        decision = decide(config)
        assert time.time() - start < 1.5
        assert decision.source == "fallback"

    def test_http_error_falls_back(self, endpoint):
        endpoint.reply_script((500, b"busted", 0.0))
        decision = decide(make_config(endpoint.url))
        assert decision.source == "fallback"

    def test_non_json_body_falls_back(self, endpoint):
        endpoint.reply_script((200, b"not json at all", 0.0))
        decision = decide(make_config(endpoint.url))
        assert decision.source == "fallback"

    def test_unreachable_endpoint_falls_back(self):
        decision = decide(make_config(dead_url()))
        assert decision.source == "fallback"

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_refused_and_falls_back(self, endpoint, status):
        target = MockEndpoint()
        try:
            target.reply_content("DataCollection")
            location = {"Location": target.url + "/chat/completions"}
            endpoint.reply_script((status, b"{}", 0.0, location))
            config = make_config(endpoint.url, max_retries=1)
            decision = decide(config)
            assert decision.source == "fallback"
            assert len(endpoint.seen) == 2  # each attempt failed at the first server
            assert target.seen == []  # so the key never left base_url
        finally:
            target.close()

    def test_non_http_base_url_falls_back(self, tmp_path):
        # urllib reads file: URLs too; a reply without an HTTP status fails
        (tmp_path / "chat").mkdir()
        reply = {"choices": [{"message": {"content": "DataCollection"}}]}
        (tmp_path / "chat" / "completions").write_text(json.dumps(reply))
        decision = decide(make_config(f"file://{tmp_path}"))
        assert decision.source == "fallback"

    def test_retry_recovers_from_one_failure(self, endpoint):
        good = json.dumps({"choices": [{"message": {"content": "DataCollection"}}]}).encode()
        endpoint.reply_script((500, b"flaky", 0.0), (200, good, 0.0))
        config = make_config(endpoint.url, max_retries=2)
        decision = decide(config)
        assert decision.source == "llm"
        assert len(endpoint.seen) == 2

    def test_request_shape(self, endpoint):
        endpoint.reply_content("DataCollection")
        decide(make_config(endpoint.url))
        request = endpoint.seen[0]
        assert request["path"].endswith("/chat/completions")
        assert request["authorization"] == f"Bearer {SENTINEL_KEY}"
        body = request["body"]
        assert body["model"] == "router-model"
        assert body["temperature"] == 0
        assert len(body["messages"]) == 1
        assert body["messages"][0]["role"] == "user"


class TestSecrecy:
    def test_config_repr_hides_the_key(self):
        config = make_config("http://example.invalid/v1")
        assert SENTINEL_KEY not in repr(config)
        assert SENTINEL_KEY not in str(config)

    def test_prompt_and_decisions_never_carry_the_key(self, endpoint):
        endpoint.reply_content("DataCollection")
        prompt = triggered_prompt()
        assert SENTINEL_KEY not in prompt
        decision = decide_next_agent(prompt, AgentRole.DATA_COLLECTION, make_config(endpoint.url))
        assert SENTINEL_KEY not in repr(decision)

    def test_from_settings_reads_the_environment(self, monkeypatch):
        settings = EndpointConfig(
            base_url="http://example.invalid/v1",
            model_name="m",
            api_key_env="EVOBEAM_TEST_KEY",
            timeout_s=4.5,
            max_retries=3,
        )
        monkeypatch.delenv("EVOBEAM_TEST_KEY", raising=False)
        with pytest.raises(ConfigurationError) as err:
            EndpointConfig.from_settings(settings)
        assert "EVOBEAM_TEST_KEY" in str(err.value)
        monkeypatch.setenv("EVOBEAM_TEST_KEY", SENTINEL_KEY)
        config = EndpointConfig.from_settings(settings)
        assert config == replace(settings, api_key=SENTINEL_KEY)
        assert SENTINEL_KEY not in repr(config)


class TestEpisodeParity:
    def test_legal_llm_answers_leave_the_episode_unchanged(self, endpoint):
        scenario = default_scenario(num_steps=3, seed=31)
        plain = run_episode(scenario)

        def echo_router(blackboard, report, fallback_role):
            endpoint.reply_content(str(getattr(fallback_role, "value", fallback_role)))
            prompt = build_routing_prompt(blackboard, report)
            decision = decide_next_agent(prompt, fallback_role, make_config(endpoint.url))
            assert decision.source == "llm"
            return fallback_role

        routed = run_episode(scenario, router=echo_router)
        assert plain.metrics_history == routed.metrics_history
        assert plain.event_log == routed.event_log

    def test_garbage_llm_answers_leave_the_episode_unchanged(self, endpoint):
        endpoint.reply_content("ramble ramble ramble")
        scenario = default_scenario(num_steps=3, seed=31)
        plain = run_episode(scenario)
        decisions = []
        routed = run_episode(
            scenario, router=make_router(make_config(endpoint.url), decisions)
        )
        assert plain.metrics_history == routed.metrics_history
        assert plain.event_log == routed.event_log
        assert decisions
        assert all(d.source == "fallback" for d in decisions)

    def test_dead_endpoint_leaves_the_episode_unchanged(self):
        scenario = default_scenario(num_steps=2, seed=8)
        plain = run_episode(scenario)
        config = make_config(dead_url(), timeout_s=0.5)
        routed = run_episode(scenario, router=make_router(config))
        assert plain.metrics_history == routed.metrics_history
        assert plain.event_log == routed.event_log
