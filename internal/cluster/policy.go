package cluster

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// SessionKey identifies one admission attempt to a routing policy.
type SessionKey struct {
	// Benchmark is the session's workload name (the {benchmark} path
	// element) — the affinity policy's hash input.
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

// RoundRobin spreads sessions uniformly by admission sequence. It is the
// baseline policy: blind to load, perfectly fair in expectation.
type RoundRobin struct{}

func (RoundRobin) Name() string { return "roundrobin" }

func (RoundRobin) Pick(candidates []Backend, key SessionKey) int {
	return int(key.Seq % uint64(len(candidates)))
}

// LeastLoaded routes to the backend with the smallest load score:
// sessions in flight from this gateway plus the backend's scraped
// active-session and speculation-window-occupancy gauges (Backend.Load).
// Between probes the scores of idle backends tie, so ties rotate by
// admission sequence: of the t least-loaded candidates, Pick takes the
// (Seq mod t)-th in registration order.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "leastloaded" }

func (LeastLoaded) Pick(candidates []Backend, key SessionKey) int {
	least, ties := candidates[0].Load(), 0
	for _, b := range candidates {
		switch l := b.Load(); {
		case l < least:
			least, ties = l, 1
		case l == least:
			ties++
		}
	}
	k := key.Seq % uint64(ties)
	for i := 0; ; i++ {
		if candidates[i].Load() != least {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
}

// Affinity routes every session of one benchmark to the same backend via
// highest-random-weight (rendezvous) hashing over (benchmark, backend
// ID): warm per-benchmark state (codec buffers, state pools, autotune
// history) stays on one process, and when a backend leaves only its own
// benchmarks move. Re-routes fall through to the next-highest weight.
type Affinity struct{}

func (Affinity) Name() string { return "affinity" }

func (Affinity) Pick(candidates []Backend, key SessionKey) int {
	best, bestW := 0, uint64(0)
	for i, b := range candidates {
		w := rendezvousWeight(key.Benchmark, b.ID)
		if i == 0 || w > bestW || (w == bestW && b.ID < candidates[best].ID) {
			best, bestW = i, w
		}
	}
	return best
}

// rendezvousWeight is FNV-1a over the (benchmark, backend) pair.
func rendezvousWeight(benchmark, id string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(benchmark); i++ {
		h = (h ^ uint64(benchmark[i])) * prime
	}
	h = (h ^ 0xff) * prime // separator: ("ab","c") ≠ ("a","bc")
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime
	}
	return h
}

// policies maps names to constructors; a fresh value per call keeps any
// future stateful policy from being shared across gateways.
var policies = map[string]func() RoutingPolicy{
	"roundrobin":  func() RoutingPolicy { return RoundRobin{} },
	"leastloaded": func() RoutingPolicy { return LeastLoaded{} },
	"affinity":    func() RoutingPolicy { return Affinity{} },
}

// PolicyFor returns the named routing policy.
func PolicyFor(name string) (RoutingPolicy, error) {
	mk, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown routing policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return mk(), nil
}

// PolicyNames lists the registered policies, sorted.
func PolicyNames() []string { return slices.Sorted(maps.Keys(policies)) }
