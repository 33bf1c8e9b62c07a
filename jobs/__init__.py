"""spark-submit entrypoints, one per paper artifact. Each job's
``main(argv)`` parses its arguments, runs its harness and returns the rows;
the benchmarks run ``jobs.<name>.main`` with their committed arguments."""
