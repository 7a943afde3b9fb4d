"""Self-modifying policy learner with checkpointed self-evaluation.

The agent's policy is a probability vector over a closed action set.  Some
actions nudge the vector itself up or down; those edits only count when a
checkpoint is open, and every edit stores the exact pre-edit vector so it
can be undone.  At each checkpoint boundary the agent asks one question:
reading the surviving checkpoint times oldest to newest, is the reward per
step earned since each one strictly increasing?  Any checkpoint breaking
that chain is popped and its edits rolled back, newest first.  What remains
is a success story: every surviving self-modification has so far paid for
itself, measured from the moment it was made.

The bundled environment is a two-armed bandit whose good arm flips every
`period` steps, so the story is never allowed to settle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BASE_ACTIONS = ["arm0", "arm1", "begin_pmp", "end_pmp", "wait"]
ACTIONS = (
    BASE_ACTIONS
    + ["up:" + a for a in BASE_ACTIONS]
    + ["down:" + a for a in BASE_ACTIONS]
)
_ACTION_INDEX = {a: i for i, a in enumerate(ACTIONS)}

STATE = "B"
# one jsonl_rows() row as json.dumps writes it: rewards and their running
# sums are finite, and %r of a finite float is its JSON text
_TRACE_LINE = f'{{"t": %d, "state": "{STATE}", "action": "%s", "reward": %r, "R": %r}}\n'
PROB_FLOOR = 1e-4
GAMMA_UP = 2.0
GAMMA_DOWN = 0.5
_GAMMA_MIN, _GAMMA_MAX = 0.25, 4.0


def floor_renormalize(vec: list[float], floor: float = PROB_FLOOR) -> list[float]:
    """Scale to sum 1 while keeping every entry at least `floor`.

    Entries that would fall below the floor are pinned there and the rest
    are rescaled into the remaining mass; repeats until stable.
    """
    n = len(vec)
    if floor * n > 1.0:
        raise ValueError("floor too large for vector length")
    pinned = [False] * n
    out = list(vec)
    while True:
        free_mass = 1.0 - floor * sum(pinned)
        s = sum(v for v, p in zip(out, pinned) if not p)
        changed = False
        for i in range(n):
            if pinned[i]:
                continue
            out[i] = (out[i] / s) * free_mass if s > 0 else free_mass / (n - sum(pinned))
            if out[i] < floor:
                pinned[i] = True
                changed = True
        if not changed:
            break
    for i in range(n):
        if pinned[i]:
            out[i] = floor
    return out


class Policy:
    """Per-state probability vector over ACTIONS."""

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    @classmethod
    def uniform(cls) -> "Policy":
        n = len(ACTIONS)
        return cls({STATE: [1.0 / n] * n})


def select_action(policy: Policy, state: str, rng: random.Random) -> str:
    r = rng.random()
    cum = 0.0
    vec = policy.vectors[state]
    for i, p in enumerate(vec):
        cum += p
        if r < cum:
            return ACTIONS[i]
    return ACTIONS[-1]


def apply_pla(policy: Policy, state: str, action: str, gamma: float) -> list[float]:
    """Multiply one action's probability by gamma (clamped to [1/4, 4]) and
    floor-renormalize.  Returns the exact pre-edit vector for rollback."""
    gamma = min(_GAMMA_MAX, max(_GAMMA_MIN, gamma))
    old = list(policy.vectors[state])
    vec = list(old)
    vec[_ACTION_INDEX[action]] *= gamma
    policy.vectors[state] = floor_renormalize(vec)
    return old


@dataclass
class StackEntry:
    s: int  # step count when opened
    reward_at: float  # cumulative reward at that point
    modifications: list[tuple[str, list[float]]] = field(default_factory=list)
    e: int | None = None  # step count when closed, None while open


def ssc_holds(t: int, reward_t: float, checkpoints: list[tuple[int, float]]) -> bool:
    """Success-story criterion at time t.

    checkpoints is [(v_i, R(v_i))] oldest first.  Requires
    R(t)/t < (R(t)-R(v_1))/(t-v_1) < ... strictly; a checkpoint at v_i >= t
    or a tie anywhere is a violation.
    """
    if t <= 0:
        return not checkpoints
    prev = reward_t / t
    for v, r_v in checkpoints:
        if v >= t:
            return False
        slope = (reward_t - r_v) / (t - v)
        if slope <= prev:
            return False
        prev = slope
    return True


def ssc_evaluate(
    stack: list[StackEntry], t: int, reward_t: float, policy: Policy
) -> int:
    """Pop checkpoints, newest first, until the criterion holds for what is
    left, rolling back each popped entry's edits in reverse order.  Returns
    the number popped."""
    popped = 0
    while stack:
        if ssc_holds(t, reward_t, [(en.s, en.reward_at) for en in stack]):
            break
        entry = stack.pop()
        for state, vec in reversed(entry.modifications):
            policy.vectors[state] = vec
        popped += 1
    return popped


class SwitchingBandit:
    """Two arms, one observation.  Arm arm0 pays 1.0 while (t // period) is
    even, arm1 while odd; everything else pays 0.  Every action advances the
    clock, so idling has a real opportunity cost."""

    def __init__(self, period: int):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self.t = 0

    @property
    def state(self) -> str:
        return STATE

    def good_arm(self, t: int) -> str:
        return "arm0" if (t // self.period) % 2 == 0 else "arm1"

    def act(self, action: str) -> float:
        reward = 1.0 if action == self.good_arm(self.t) else 0.0
        self.t += 1
        return reward


@dataclass
class LearnerTrace:
    total_steps: int
    seed: int
    learn: bool
    total_reward: float
    actions: list[int] | None  # indices into ACTIONS, None if not recorded
    rewards: list[float] | None
    events: list[str]  # one kind per event: begin, end, pop, noop or final
    final_policy: dict[str, list[float]]
    story: list[tuple[int, float]]  # surviving (s, R(s)) checkpoints
    pops: int

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.total_steps if self.total_steps else 0.0

    def jsonl_rows(self):
        if self.actions is None:
            return
        cum = 0.0
        for i, (a, r) in enumerate(zip(self.actions, self.rewards)):
            cum += r
            yield {
                "t": i + 1,
                "state": STATE,
                "action": ACTIONS[a],
                "reward": r,
                "R": cum,
            }

    def jsonl_lines(self):
        """jsonl_rows() as text, one json.dumps(row) + "\\n" line per row."""
        if self.actions is None:
            return
        cum = 0.0
        for t, (a, r) in enumerate(zip(self.actions, self.rewards), start=1):
            cum += r
            yield _TRACE_LINE % (t, ACTIONS[a], r, cum)

    def summary_json(self) -> dict:
        return {
            "steps": self.total_steps,
            "seed": self.seed,
            "learn": self.learn,
            "total_reward": self.total_reward,
            "mean_reward": self.mean_reward,
            "pops": self.pops,
            "story": [[s, r] for s, r in self.story],
            "events": len(self.events),
            "final_policy": {s: v for s, v in self.final_policy.items()},
        }


def run_learner(
    env,
    total_steps: int,
    seed: int,
    learn: bool = True,
    record_steps: bool = True,
) -> LearnerTrace:
    """Run the agent for total_steps actions and evaluate the story one last
    time at the horizon, so the returned checkpoint chain always satisfies
    the criterion at t = total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    rng = random.Random(seed)
    policy = Policy.uniform()
    stack: list[StackEntry] = []
    events: list[str] = []
    actions: list[int] | None = [] if record_steps else None
    rewards: list[float] | None = [] if record_steps else None
    total = 0.0
    pops = 0

    def open_entry() -> StackEntry | None:
        if stack and stack[-1].e is None:
            return stack[-1]
        return None

    for t in range(1, total_steps + 1):
        state = env.state
        action = select_action(policy, state, rng)
        reward = env.act(action)
        total += reward
        if record_steps:
            actions.append(_ACTION_INDEX[action])
            rewards.append(reward)
        if not learn:
            continue
        if action == "begin_pmp":
            entry = open_entry()
            if entry is not None:
                entry.e = t
            n = ssc_evaluate(stack, t, total, policy)
            pops += n
            if n:
                events.append("pop")
            stack.append(StackEntry(t, total))
            events.append("begin")
        elif action == "end_pmp":
            entry = open_entry()
            if entry is None:
                events.append("noop")
            else:
                entry.e = t
                n = ssc_evaluate(stack, t, total, policy)
                pops += n
                if n:
                    events.append("pop")
                events.append("end")
        elif action.startswith(("up:", "down:")):
            entry = open_entry()
            if entry is None:
                events.append("noop")
            else:
                kind, _, target = action.partition(":")
                gamma = GAMMA_UP if kind == "up" else GAMMA_DOWN
                entry.modifications.append(
                    (state, apply_pla(policy, state, target, gamma))
                )

    if learn:
        entry = open_entry()
        if entry is not None:
            entry.e = total_steps
        n = ssc_evaluate(stack, total_steps, total, policy)
        pops += n
        events.append("final")

    return LearnerTrace(
        total_steps=total_steps,
        seed=seed,
        learn=learn,
        total_reward=total,
        actions=actions,
        rewards=rewards,
        events=events,
        final_policy={s: list(v) for s, v in policy.vectors.items()},
        story=[(en.s, en.reward_at) for en in stack],
        pops=pops,
    )


def uniform_baseline(env, total_steps: int, seed: int) -> LearnerTrace:
    """Same action sampler, learning disabled: the policy stays uniform and
    modifier actions do nothing.  Expected reward is 1/15 per step."""
    return run_learner(env, total_steps, seed, learn=False, record_steps=False)

