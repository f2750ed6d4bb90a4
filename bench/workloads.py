"""The benchmark's workloads: one scenario family each, made from a seed.

Each workload is a scenario template. A run turns its seed into a list of
scenario seeds (disjoint for distinct run seeds), writes each scenario as
YAML and loads it through ``evobeam.load_scenario``, so the program only
ever sees the generated scenario files.

Episode lengths are chosen so that one run holds many independent
episodes: the cost of an episode depends strongly on its trajectory (how
many recovery cycles it needs, how degenerate the spectrum is at the
estimated directions), and only many episodes per run keep the per-run
figures steady across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

# scenario seeds of run seed s are s * SEED_STRIDE + i; a run never gets
# near this many episodes, so distinct run seeds never share an episode
SEED_STRIDE = 100_000
WARMUP_INDEX = SEED_STRIDE - 1


def scenario_seed(run_seed, index):
    return run_seed * SEED_STRIDE + index


API_KEY_ENV = "EVOBEAM_BENCH_KEY"


@dataclass(frozen=True)
class Workload:
    """One scenario family plus how much of it a run scores.

    scored: episodes every run completes, whatever --seconds says; the
    deterministic metrics (gains, cycle counts, per-layer counts) are taken
    over exactly these, so they repeat for a given seed. They fill half to
    three quarters of a 25 s window, so a machine running 1.3 times slower
    still ends its runs on time.
    """

    name: str
    why: str
    num_steps: int
    angles: tuple
    sigma_deg: float
    num_elements: int = 8
    routed: bool = False
    scored: int = 24

    def scenario_document(self, seed, llm_url=None, num_steps=None):
        """The YAML mapping of one scenario."""
        doc = {
            "schema_version": 1,
            "seed": seed,
            "trajectory": {
                "num_steps": num_steps or self.num_steps,
                "initial_angles": list(self.angles),
                "drift": {"kind": "random_walk", "sigma_deg_per_step": self.sigma_deg},
            },
            "constraints": {"num_elements": self.num_elements},
        }
        if llm_url is not None:
            doc["llm"] = {
                "base_url": llm_url,
                "model_name": "bench-router",
                "api_key_env": API_KEY_ENV,
                "timeout_s": 10.0,
                "max_retries": 0,
            }
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="episode_default",
            why="default 8-element, 3-user drifting episode; gradient search and projection dominate",
            num_steps=50,
            angles=(60.0, 90.0, 120.0),
            sigma_deg=1.0,
            scored=48,
        ),
        # at 60/90/120 the three steering vectors are exactly orthogonal, and
        # power-iteration cost swings by three orders of magnitude with the
        # estimated angles, so runs of different seeds differed by ~20%;
        # 50/90/130 is near-degenerate everywhere (120-470 iterations)
        Workload(
            name="episode_steady",
            why="slowly drifting users on a nearly degenerate spectrum; monitoring and its eigen-solve dominate",
            num_steps=200,
            angles=(50.0, 90.0, 130.0),
            sigma_deg=0.1,
            scored=40,
        ),
        # short episodes: nearly all the cost is the step-0 coordinate search,
        # and ~50 episodes a run keep its figures steady across seeds
        Workload(
            name="episode_wide",
            why="16 elements, 5 users; coordinate search over batched Gram eigenvalues dominates, projection idle",
            num_steps=6,
            angles=(40.0, 65.0, 90.0, 115.0, 140.0),
            sigma_deg=1.0,
            num_elements=16,
            scored=30,
        ),
        Workload(
            name="episode_routed",
            why="static non-degenerate users with LLM routing via a loopback stub; the llm layer dominates",
            num_steps=200,
            angles=(45.0, 100.0, 140.0),
            sigma_deg=0.1,
            routed=True,
            scored=32,
        ),
    )
}
