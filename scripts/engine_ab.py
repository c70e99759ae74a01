"""Engine-only A/B: time ``FastSimulator.run_plan`` in two source trees.

Stdlib-only.  BASE is a git revision, checked out with ``git worktree
add --detach`` into a temporary directory; the other side is this
checkout's working tree (uncommitted edits included).

One child process per tree imports ``repro`` from that tree and binds
the same configurations of scenarios b, c and m at 40/48 tiles (first,
middle and last of each scenario's actions), untimed.  The two
children then run the engine in alternation, one bound plan at a time,
so a burst of host noise falls on both sides alike; the side that goes
first alternates from one run to the next.  Every pair of runs
must give the same makespan, bit for bit, or the script stops.  In each
of ``ROUNDS`` rounds every plan runs ``REPEAT`` times per side and its
fastest run counts.  The script prints, per scenario and in total, each
side's median and quartiles of engine seconds per round, the median
per-round speedup and how many rounds the working tree won.  The
worktree is removed afterwards.

Usage: python scripts/engine_ab.py BASE
e.g.   python scripts/engine_ab.py HEAD   # working tree against HEAD
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = ("b", "c", "m")
ROUNDS = 20
REPEAT = 5  # engine runs per plan and round; the fastest counts

#: Environment of every child, as perfbench pins it for its runs.
CHILD_ENV = {
    "REPRO_TILES_101": "40",
    "REPRO_TILES_128": "48",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child(tree):
    """Bind every plan, print them, then run plan ``i`` per stdin line."""
    import gc

    sys.path.insert(0, os.path.join(tree, "src"))
    import repro
    from repro.measure.batch import ScenarioBatch
    from repro.measure.sweep import scenario_actions
    from repro.platform import get_scenario
    from repro.runtime import FastSimulator
    from repro.workload import Workload

    if not repro.__file__.startswith(tree):
        sys.exit(f"imported {repro.__file__}, not the package under {tree}")
    jobs = []
    for key in SCENARIOS:
        scenario = get_scenario(key)
        cluster = scenario.build_cluster()
        workload = Workload.from_name(scenario.workload)
        actions = [int(n) for n in scenario_actions(scenario, workload)]
        mid = actions[(len(actions) - 1) // 2]
        picks = sorted({actions[0], mid, actions[-1]})
        batch = ScenarioBatch(cluster, workload)
        sim = FastSimulator(cluster)
        jobs.extend((key, n, sim, batch.plan(n)) for n in picks)
    print(json.dumps([[key, n] for key, n, _, _ in jobs]), flush=True)
    for line in sys.stdin:
        _, _, sim, plan = jobs[int(line)]
        gc.collect()
        t0 = time.perf_counter()
        result = sim.run_plan(plan)
        seconds = time.perf_counter() - t0
        print(json.dumps([seconds, result.makespan.hex()]), flush=True)


def start_child(tree):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", tree]
    return subprocess.Popen(
        cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )


def ask(proc, line):
    """Send one line to a child (none: just read) and parse its answer."""
    if line is not None:
        proc.stdin.write(f"{line}\n")
        proc.stdin.flush()
    answer = proc.stdout.readline()
    if not answer:
        sys.exit(f"child exited with code {proc.wait()}")
    return json.loads(answer)


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(rounds):
    """Print the per-scenario and total comparison of the two sides."""
    print(f"{'':7} {'base median [q1, q3] s':>28} {'head median [q1, q3] s':>28}"
          f" {'speedup':>8} {'wins':>6}")
    for key in SCENARIOS + ("total",):
        keys = SCENARIOS if key == "total" else (key,)
        b = [sum(r[0][k] for k in keys) for r in rounds]
        h = [sum(r[1][k] for k in keys) for r in rounds]
        bq, hq = quartiles(b), quartiles(h)
        speedup = statistics.median(x / y for x, y in zip(b, h))
        wins = sum(y < x for x, y in zip(b, h))
        print(f"{key:7} {bq[1]:10.4f} [{bq[0]:.4f}, {bq[2]:.4f}]"
              f" {hq[1]:10.4f} [{hq[0]:.4f}, {hq[2]:.4f}]"
              f" {speedup:7.3f}x {wins:3}/{len(b)}")


def compare(trees):
    """Run the alternating rounds; per round, each side's engine seconds
    per scenario."""
    procs = [start_child(tree) for tree in trees]
    try:
        jobs = [ask(proc, None) for proc in procs]
        if jobs[0] != jobs[1]:
            sys.exit(f"the trees bind different configurations: {jobs}")
        jobs = jobs[0]
        print("configurations: " + ", ".join(
            f"{k} {[n for key, n in jobs if key == k]}" for k in SCENARIOS))
        rounds = []
        turn = 0
        for r in range(ROUNDS):
            best = [[float("inf")] * len(jobs) for _ in procs]
            for _ in range(REPEAT):
                for j, (key, n) in enumerate(jobs):
                    got = {}
                    for i in ((0, 1) if turn % 2 == 0 else (1, 0)):
                        got[i] = ask(procs[i], j)
                    turn += 1
                    if got[0][1] != got[1][1]:
                        sys.exit(f"{key} n={n}: makespans differ: "
                                 f"{got[0][1]} vs {got[1][1]}")
                    for i in got:
                        best[i][j] = min(best[i][j], got[i][0])
            rounds.append([
                {k: sum(s for s, (key, _) in zip(side, jobs) if key == k)
                 for k in SCENARIOS}
                for side in best
            ])
            print(f"round {r + 1}/{ROUNDS}: base "
                  f"{sum(best[0]):.4f} s, head {sum(best[1]):.4f} s",
                  file=sys.stderr)
        return rounds
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()


def main():
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
        return
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__.split("\n\n")[-1].strip())
    base = sys.argv[1]

    tmp = tempfile.mkdtemp(prefix="engine_ab-")
    path = os.path.join(tmp, "base")
    try:
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "add", "--detach", path, base],
            check=True, capture_output=True,
        )
        rounds = compare([path, ROOT])
        print(f"base {base}, head working tree, {ROUNDS} rounds, best of "
              f"{REPEAT} runs per plan, engine seconds per round")
        report(rounds)
    finally:
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "remove", "--force", path],
            capture_output=True,
        )
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
