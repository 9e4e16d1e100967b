"""The repository benchmark: serving ladder and paper model, one command.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` lists
the workloads and metrics.
"""
