package cluster

import "fmt"

// RoutingPolicy, PolicyFor, RoundRobin and SessionKey are what the
// repository benchmark (benchmark/probes.go, cluster.pick_ns) times a
// routing decision through; the gateway itself calls RoundRobin{}.Pick.

// SessionKey identifies one admission attempt to a routing policy.
type SessionKey struct {
	// Benchmark is the session's workload name (the {benchmark} path
	// element).
	Benchmark string
	// Seq is the gateway-assigned admission sequence number, increasing
	// by one per admitted session. Policies use it instead of internal
	// mutable state so that a decision is a pure function of
	// (candidates, key): replaying the same arrival sequence replays the
	// same decisions, which is what lets the gateway's tests pin them.
	Seq uint64
}

// A RoutingPolicy picks which backend serves a session. Pick receives
// the ready candidates (registration order, never empty) and must return
// an index into them. Implementations must be deterministic: no wall
// clock, no global rand, no map iteration — the same candidates and key
// always pick the same backend. When the chosen backend sheds the
// session, the gateway removes it from the candidate slice and asks
// again, so Pick also defines the re-route order.
type RoutingPolicy interface {
	Name() string
	Pick(candidates []Backend, key SessionKey) int
}

// RoundRobin spreads sessions uniformly by admission sequence, blind to
// load. Load awareness belongs to a backend's own admission, which knows
// its idle cores exactly; the gate could only guess from a stale scrape.
type RoundRobin struct{}

func (RoundRobin) Name() string { return "roundrobin" }

func (RoundRobin) Pick(candidates []Backend, key SessionKey) int {
	return int(key.Seq % uint64(len(candidates)))
}

// PolicyFor returns the named routing policy. roundrobin is the only
// one: a policy that reads load from a probe's scrape decides from
// numbers older than the sessions it routes (DESIGN.md §9).
func PolicyFor(name string) (RoutingPolicy, error) {
	if name != (RoundRobin{}).Name() {
		return nil, fmt.Errorf("cluster: unknown routing policy %q (have roundrobin)", name)
	}
	return RoundRobin{}, nil
}
