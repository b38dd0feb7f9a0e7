"""svetbound benchmark: workloads, correctness oracle, tracing and the runner."""
