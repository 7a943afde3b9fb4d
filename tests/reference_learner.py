"""Plain reference success-story learner, for differential tests.

Written for reading, not speed: every step draws its action by scanning
the policy vector left to right, tells the actions apart by their names,
and every edit renormalizes by iterating to a fixpoint.  It covers the
floor renormalization, the checkpoint criterion with its rollback, the
switching bandit and the whole learner loop, and returns the same fields
as omni's LearnerTrace.  It shares no code with omni, so agreement
between the two is evidence, not tautology.
"""

import random
from dataclasses import dataclass, field

BASE_ACTIONS = ["arm0", "arm1", "begin_pmp", "end_pmp", "wait"]
ACTIONS = (
    BASE_ACTIONS
    + ["up:" + a for a in BASE_ACTIONS]
    + ["down:" + a for a in BASE_ACTIONS]
)
ACTION_INDEX = {a: i for i, a in enumerate(ACTIONS)}
STATE = "B"
PROB_FLOOR = 1e-4
GAMMA_UP = 2.0
GAMMA_DOWN = 0.5


def floor_renormalize(vec, floor=PROB_FLOOR):
    """Scale to sum 1 while keeping every entry at least `floor`: pin the
    entries that fall below it and rescale the rest, until stable."""
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


def select_action(vectors, state, rng):
    """The first action whose running sum exceeds r, else the last one."""
    r = rng.random()
    cum = 0.0
    for i, p in enumerate(vectors[state]):
        cum += p
        if r < cum:
            return ACTIONS[i]
    return ACTIONS[-1]


def apply_pla(vectors, state, action, gamma):
    """Scale one action's probability by gamma clamped to [1/4, 4] and
    renormalize; return the pre-edit vector."""
    gamma = min(4.0, max(0.25, gamma))
    old = list(vectors[state])
    vec = list(old)
    vec[ACTION_INDEX[action]] *= gamma
    vectors[state] = floor_renormalize(vec)
    return old


@dataclass
class Entry:
    s: int
    reward_at: float
    modifications: list = field(default_factory=list)
    e: int | None = None


def ssc_holds(t, reward_t, checkpoints):
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


def ssc_evaluate(stack, t, reward_t, vectors):
    popped = 0
    while stack:
        if ssc_holds(t, reward_t, [(en.s, en.reward_at) for en in stack]):
            break
        entry = stack.pop()
        for state, vec in reversed(entry.modifications):
            vectors[state] = vec
        popped += 1
    return popped


class SwitchingBandit:
    def __init__(self, period):
        self.period = period
        self.t = 0

    @property
    def state(self):
        return STATE

    def good_arm(self, t):
        return "arm0" if (t // self.period) % 2 == 0 else "arm1"

    def act(self, action):
        reward = 1.0 if action == self.good_arm(self.t) else 0.0
        self.t += 1
        return reward


def run_learner(env, total_steps, seed, learn=True, record_steps=True):
    """The learner's lifetime as a dict of LearnerTrace's fields."""
    rng = random.Random(seed)
    n = len(ACTIONS)
    vectors = {STATE: [1.0 / n] * n}
    stack = []
    events = []
    actions = [] if record_steps else None
    rewards = [] if record_steps else None
    total = 0.0
    pops = 0

    def open_entry():
        if stack and stack[-1].e is None:
            return stack[-1]
        return None

    for t in range(1, total_steps + 1):
        state = env.state
        action = select_action(vectors, state, rng)
        reward = env.act(action)
        total += reward
        if record_steps:
            actions.append(ACTION_INDEX[action])
            rewards.append(reward)
        if not learn:
            continue
        if action == "begin_pmp":
            entry = open_entry()
            if entry is not None:
                entry.e = t
            k = ssc_evaluate(stack, t, total, vectors)
            pops += k
            if k:
                events.append("pop")
            stack.append(Entry(t, total))
            events.append("begin")
        elif action == "end_pmp":
            entry = open_entry()
            if entry is None:
                events.append("noop")
            else:
                entry.e = t
                k = ssc_evaluate(stack, t, total, vectors)
                pops += k
                if k:
                    events.append("pop")
                events.append("end")
        elif action.startswith(("up:", "down:")):
            entry = open_entry()
            if entry is None:
                events.append("noop")
            else:
                kind, _, target = action.partition(":")
                gamma = GAMMA_UP if kind == "up" else GAMMA_DOWN
                entry.modifications.append((state, apply_pla(vectors, state, target, gamma)))

    if learn:
        entry = open_entry()
        if entry is not None:
            entry.e = total_steps
        pops += ssc_evaluate(stack, total_steps, total, vectors)
        events.append("final")

    return {
        "total_steps": total_steps,
        "seed": seed,
        "learn": learn,
        "total_reward": total,
        "actions": actions,
        "rewards": rewards,
        "events": events,
        "final_policy": {s: list(v) for s, v in vectors.items()},
        "story": [(en.s, en.reward_at) for en in stack],
        "pops": pops,
    }
