// Package cluster is the decision core of the statsgate front door: a
// backend registry keyed by each backend's address, with health and
// session accounting, round-robin routing, the one /metrics grammar
// with its aggregation across backends, and Front, the HTTP shell
// statsserved and statsgate share.
//
// The package is deliberately split from cmd/statsgate along the
// determinism boundary: every routing decision here is a pure function
// of its inputs (registry state, session key), so the gateway's tests
// can replay a decision sequence exactly, and statslint's detpath
// analyzer enforces that no wall clock or global rand sneaks into one.
// The package reads no clock and makes no outbound request: probing
// backends, fetching their pages and every timeout live in the
// gateway, which writes only the health it observes into the Registry.
package cluster
