"""Write the reference outputs the benchmark compares against.

Usage (from the repository root):

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's commands once, at full size and the reference
seed, in a fresh child process, checks them against the seed-independent
invariants, and stores the CSV outputs in perfbench/reference/.  Run it
only on a commit whose outputs are trusted; the stored files pin every
later commit to them.
"""

import json
import sys

import checks
import run


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    for name in names or sorted(run.WORKLOADS):
        commands = run.commands_for(name, run.REFERENCE_SEED, tiny=False)
        payload = run.spawn(commands, False, run.RUN_DEADLINE_S)
        if "error" in payload:
            print("%s: %s" % (name, payload["error"]), file=sys.stderr)
            return 1
        outputs = []
        for cmd in payload["commands"]:
            problems = [] if cmd["code"] == 0 else ["exit code %r" % (cmd["code"],)]
            problems += checks.check_command(cmd["argv"], cmd["output"],
                                             run.REFERENCE_SEED, None)
            if problems:
                print("%s: %s" % (name, problems), file=sys.stderr)
                return 1
            outputs.append(cmd["output"])
        path = run.HERE / "reference" / (name + ".json")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": run.REFERENCE_SEED, "commands": commands,
                                    "outputs": outputs}, indent=1) + "\n")
        print("wrote %s" % path.relative_to(run.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
