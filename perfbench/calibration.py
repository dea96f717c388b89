"""Fixed, program-independent CPU tasks that rescale measured times.

The benchmark runs on shared hosts whose speed drifts by a third within a
minute while a neighbour's load comes and goes.  Right before each timed
step the benchmark also times two tasks of its own, and reports the step's
time rescaled to a host on which those tasks take their reference times.
The tasks are the benchmark's own code, so a change to the program moves
the rescaled time exactly as much as it moves the raw one.

The tasks resemble the program's work: one splits IR-like text into tokens
and builds a table of token objects, the other chases a random cycle
through slotted objects spread over a few megabytes.  A neighbour's load
slows these hot loops more than it slows a merge: on a shared two-vCPU
Xeon virtual machine the log-log slope of merge time against either
task's time, over windows of half a minute, was 0.43 to 0.67.  So the
rescaling takes the geometric mean of the two tasks' slowdowns to the
power :data:`ELASTICITY`, the power that gave the steadiest merge times.
"""

from __future__ import annotations

import gc
import random
import time

#: Typical time of each task on a two-vCPU Xeon virtual machine shared
#: with other load; rescaled times are for a host that fast.
REFERENCE_TOKENS_SECONDS = 0.0065
REFERENCE_CHASE_SECONDS = 0.0170
#: How strongly a merge's time follows the tasks' time.
ELASTICITY = 0.7
#: Passes per task in one calibration; the fastest one counts.
PASSES = 3

_LINES = [
    f"  br label %bb{i % 31}"
    if i % 5 == 0
    else f"  %v{i} = add i32 %v{max(0, i - 3)}, {i * 7 % 97}"
    for i in range(1500)
]
_CHASE_NODES = 200_000
_CHASE_STEPS = 60_000


class _Token:
    __slots__ = ("kind", "text", "users")

    def __init__(self, kind, text):
        self.kind = kind
        self.text = text
        self.users = []


class _Node:
    __slots__ = ("value", "key", "next")

    def __init__(self, value, key):
        self.value = value
        self.key = key
        self.next = None


_head = []


def prepare() -> None:
    """Build the chase's cycle, once, and move it out of the garbage
    collector's reach so it costs the program's collections nothing."""
    if _head:
        return
    nodes = [_Node(i, f"k{i}") for i in range(_CHASE_NODES)]
    order = list(range(_CHASE_NODES))
    random.Random(0xCA11B).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    _head.append(nodes[order[0]])
    gc.collect()
    gc.freeze()


def _tokens() -> float:
    start = time.perf_counter()
    table = {}
    out = []
    for line in _LINES:
        tokens = [_Token(part[0], part) for part in line.replace(",", " ").split()]
        for token in tokens:
            first = table.get(token.text)
            if first is None:
                table[token.text] = token
            else:
                first.users.append(token)
        out.append(" ".join(token.text for token in tokens))
    sorted(table, key=lambda text: (len(table[text].users), text))
    "\n".join(out)
    return time.perf_counter() - start


def _chase() -> float:
    node = _head[0]
    seen = {}
    start = time.perf_counter()
    for _ in range(_CHASE_STEPS):
        seen[node.key] = node.value
        node = node.next
    return time.perf_counter() - start


def host_speed() -> float:
    """How much faster than the reference host this one runs right now:
    above 1 when it is faster."""
    prepare()
    tokens = min(_tokens() for _ in range(PASSES))
    chase = min(_chase() for _ in range(PASSES))
    ratio = (REFERENCE_TOKENS_SECONDS / tokens) * (REFERENCE_CHASE_SECONDS / chase)
    return ratio ** (ELASTICITY / 2.0)


def rescaled(seconds: float, speed: float) -> float:
    """*seconds* measured at host speed *speed*, on the reference host."""
    return seconds * speed
