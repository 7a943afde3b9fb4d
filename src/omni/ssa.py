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

A step draws r uniform in [0, 1) and takes the first action whose running
sum of probabilities exceeds r, or the last action when none does.  The
running sums are cached, one row per state, and rebuilt whenever an edit
or a rollback writes the vector, so a draw is one bisection.  The row is
`itertools.accumulate` of the vector, the same left-to-right additions a
scan makes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

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

# what the learner does with each action index: (kind, edit target, gamma)
_ARM, _BEGIN, _END, _EDIT = range(4)
_DISPATCH = tuple(
    (_EDIT, target, GAMMA_UP if kind == "up" else GAMMA_DOWN)
    if target
    else ({"begin_pmp": _BEGIN, "end_pmp": _END}.get(kind, _ARM), None, None)
    for kind, _, target in (a.partition(":") for a in ACTIONS)
)
_ARMS = ("arm0", "arm1")  # the good arm while t // period is even, odd


def floor_renormalize(vec: list[float], floor: float = PROB_FLOOR) -> list[float]:
    """Scale to sum 1 while keeping every entry at least `floor`.

    Entries that would fall below the floor are pinned there and the rest
    are rescaled into the remaining mass; repeats until stable.  Each round
    scales the unpinned entries in one pass, in index order.
    """
    n = len(vec)
    if floor * n > 1.0:
        raise ValueError("floor too large for vector length")
    free = range(n)  # the unpinned indices, and their values below
    vals = list(vec)
    while vals:
        free_mass = 1.0 - floor * (n - len(free))
        s = sum(vals)
        if s > 0:
            vals = [(v / s) * free_mass for v in vals]
        else:
            # all free entries are zero: each gets free_mass over the
            # entries not pinned so far, this pass's pins included
            pinned = n - len(free)
            for k in range(len(vals)):
                vals[k] = free_mass / (n - pinned)
                pinned += vals[k] < floor
        if not min(vals) < floor:
            break
        free = [i for i, v in zip(free, vals) if not v < floor]
        vals = [v for v in vals if not v < floor]
    if len(vals) == n:
        return vals
    out = [floor] * n
    for i, v in zip(free, vals):
        out[i] = v
    return out


def apply_pla(
    policy: dict[str, list[float]], state: str, action: str, gamma: float
) -> list[float]:
    """Multiply one action's probability in policy[state], the policy a
    {state: vector} dict, by gamma (clamped to [1/4, 4]) and
    floor-renormalize.  Returns the exact pre-edit vector for rollback."""
    gamma = min(_GAMMA_MAX, max(_GAMMA_MIN, gamma))
    old = list(policy[state])
    vec = list(old)
    vec[_ACTION_INDEX[action]] *= gamma
    policy[state] = floor_renormalize(vec)
    return old


@dataclass
class StackEntry:
    s: int  # step count when opened
    reward_at: float  # cumulative reward at that point
    modifications: list[tuple[str, list[float]]] = field(default_factory=list)


def ssc_holds(t: int, reward_t: float, checkpoints: list[tuple[int, float]]) -> bool:
    """Success-story criterion at time t.

    checkpoints is [(v_i, R(v_i))] oldest first.  Requires
    R(t)/t < (R(t)-R(v_1))/(t-v_1) < ... strictly; a checkpoint at v_i >= t
    or a tie anywhere is a violation.
    """
    return _story_length(t, reward_t, checkpoints) == len(checkpoints)


def _story_length(t: int, reward_t: float, checkpoints: list[tuple[int, float]]) -> int:
    """The length of the longest prefix of checkpoints, oldest first, for
    which the criterion holds at t.  Each check reads only the checkpoints
    before it, so that prefix ends at the first failing check."""
    if t <= 0:
        return 0
    prev = reward_t / t
    for k, (v, r_v) in enumerate(checkpoints):
        if v >= t:
            return k
        slope = (reward_t - r_v) / (t - v)
        if slope <= prev:
            return k
        prev = slope
    return len(checkpoints)


def ssc_evaluate(
    stack: list[StackEntry], t: int, reward_t: float, policy: dict[str, list[float]]
) -> int:
    """Pop checkpoints, newest first, until the criterion holds for what is
    left, rolling back each popped entry's edits in reverse order into
    policy, the {state: vector} dict they were made in.  Returns the number
    popped, found in one pass along the chain."""
    keep = _story_length(t, reward_t, [(en.s, en.reward_at) for en in stack])
    popped = len(stack) - keep
    while len(stack) > keep:
        entry = stack.pop()
        for state, vec in reversed(entry.modifications):
            policy[state] = vec
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

    state = STATE

    def act(self, action: str) -> float:
        reward = 1.0 if action == _ARMS[(self.t // self.period) % 2] else 0.0
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


def _rows(policy: dict[str, list[float]]) -> dict[str, list[float]]:
    """Each state's running sums of its vector, the rows a step bisects."""
    return {s: list(accumulate(v)) for s, v in policy.items()}


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
    draw = random.Random(seed).random
    policy = {STATE: [1.0 / len(ACTIONS)] * len(ACTIONS)}
    rows = _rows(policy)
    last = len(ACTIONS) - 1
    stack: list[StackEntry] = []
    opened: StackEntry | None = None  # the top of the stack while open
    events: list[str] = []
    actions: list[int] | None = [] if record_steps else None
    rewards: list[float] | None = [] if record_steps else None
    total = 0.0
    pops = 0

    for t in range(1, total_steps + 1):
        state = env.state
        i = bisect_right(rows[state], draw())
        if i > last:  # r at or above the row's last sum
            i = last
        reward = env.act(ACTIONS[i])
        total += reward
        if record_steps:
            actions.append(i)
            rewards.append(reward)
        if not learn:
            continue
        kind, target, gamma = _DISPATCH[i]
        if kind == _ARM:
            continue
        if opened is None and kind != _BEGIN:
            events.append("noop")
        elif kind == _EDIT:
            opened.modifications.append((state, apply_pla(policy, state, target, gamma)))
            rows[state] = list(accumulate(policy[state]))
        else:
            # a begin, or the end of the open checkpoint: close it and
            # judge the story
            n = ssc_evaluate(stack, t, total, policy)
            if n:
                pops += n
                events.append("pop")
                rows = _rows(policy)
            if kind == _BEGIN:
                opened = StackEntry(t, total)
                stack.append(opened)
                events.append("begin")
            else:
                opened = None
                events.append("end")

    if learn:
        pops += ssc_evaluate(stack, total_steps, total, policy)
        events.append("final")

    return LearnerTrace(
        total_steps=total_steps,
        seed=seed,
        learn=learn,
        total_reward=total,
        actions=actions,
        rewards=rewards,
        events=events,
        final_policy={s: list(v) for s, v in policy.items()},
        story=[(en.s, en.reward_at) for en in stack],
        pops=pops,
    )


def uniform_baseline(env, total_steps: int, seed: int) -> LearnerTrace:
    """Same action sampler, learning disabled: the policy stays uniform and
    modifier actions do nothing.  Expected reward is 1/15 per step."""
    return run_learner(env, total_steps, seed, learn=False, record_steps=False)

