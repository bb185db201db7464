"""Set-up probe: start, import erkn, build the first method and system, take
one step, then print "ready". The parent times this from process start.

    PYTHONPATH=src python3 perfbench/first_step.py ERKN2 0.1 50
"""

import sys

from erkn import ErknMethod, cli, fpu_system, stepper, trig_stepper


def main(method_name: str, h: str, omega: str) -> None:
    method = cli.resolve_method(method_name)
    system = fpu_system(3, float(omega))
    build = stepper if isinstance(method, ErknMethod) else trig_stepper
    build(method, system, float(h))(system.initial)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
