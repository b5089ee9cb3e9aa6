// Package cluster is the decision core of the statsgate front door: a
// backend registry with health and load tracking, pluggable routing
// policies, token-bucket admission control, metrics aggregation across
// backends, and a deterministic discrete-event cluster simulator.
//
// The package is deliberately split from cmd/statsgate along the
// determinism boundary: everything here is a pure function of its inputs
// (registry state, session key, explicit clock readings), so the exact
// same policy and admission code drives both the live proxy and the
// simulator, and statslint's detpath analyzer enforces that no wall
// clock or global rand sneaks into a routing decision. The only
// wall-clock consumer is the /readyz prober, whose probe timing is
// liveness instrumentation that never reaches a routing decision's
// inputs beyond the health state it reports.
//
// The simulator (Simulate, Compare) replays a workload trace — the
// sessions internal/workload.Generate expands from a spec, or a recorded
// trace file — against a Cluster of virtual backends through the same
// Registry and RoutingPolicy code as the live gateway, using
// internal/machine's event-queue style (a binary heap ordered by virtual
// time with insertion-order tie-breaks) — so routing and admission
// policies can be compared at million-session scale on a laptop,
// bit-reproducibly, on the very traffic statsload drives at a live
// gateway.
package cluster
