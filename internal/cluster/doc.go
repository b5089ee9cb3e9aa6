// Package cluster is the decision core of the statsgate front door: a
// backend registry with health and load tracking, pluggable routing
// policies, token-bucket admission control, and metrics aggregation
// across backends.
//
// The package is deliberately split from cmd/statsgate along the
// determinism boundary: every routing and admission decision here is a
// pure function of its inputs (registry state, session key, explicit
// clock readings), so the gateway's tests can replay a decision sequence
// exactly, and statslint's detpath analyzer enforces that no wall clock
// or global rand sneaks into a routing decision. The only wall-clock
// consumer is the /readyz prober, whose probe timing is liveness
// instrumentation that never reaches a routing decision's inputs beyond
// the health state it reports.
package cluster
