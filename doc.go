// Package gostats is a Go reproduction of "Workload Characterization of
// Nondeterministic Programs Parallelized by STATS" (Deiana & Campanoni,
// ISPASS 2019).
//
// The repository contains, from the bottom up: a deterministic
// discrete-event multicore simulator (internal/machine) with a sampling
// cache-hierarchy and branch-predictor model (internal/memsim); the STATS
// execution model as a reusable runtime library (internal/engine) that runs
// both on the simulator and on real goroutines; the paper's six
// nondeterministic benchmarks rebuilt as Go kernels (internal/bench/...);
// an OpenTuner-style autotuner (internal/autotune); the paper's
// critical-path what-if methodology (internal/critpath); and drivers that
// regenerate every table and figure of the evaluation
// (internal/experiments, cmd/statsbench).
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// substitutions made for the paper's non-portable artifacts, and
// EXPERIMENTS.md for paper-vs-measured results.
package gostats
