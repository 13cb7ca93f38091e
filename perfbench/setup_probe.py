"""Child process that times setup: importing bitsplit and loading the
workload's generated inputs. Prints the elapsed seconds.

Usage: setup_probe.py <src dir> <workload> <input args...>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main():
    src, workload, inputs = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import bitsplit  # noqa: F401

    import workloads

    if workload == "resnet50-enumerate":
        workloads.load_resnet_inputs(inputs[0], int(inputs[1]))
    else:
        workloads.load_demo_inputs(*inputs)
    print("%.9f" % (time.perf_counter() - T0))


if __name__ == "__main__":
    main()
