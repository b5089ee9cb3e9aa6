package cluster

import (
	"container/heap"
	"fmt"
	"time"

	"gostats/internal/rng"
	"gostats/internal/workload"
)

// Cluster is the shape of a simulated cluster. The traffic it serves is
// a workload.Trace, so one recorded trace can be replayed against many
// shapes and policies, and against the live gateway.
type Cluster struct {
	// Backends is the number of simulated statsserved processes.
	Backends int
	// SlotsPerBackend mirrors -max-sessions: a backend at its slot cap
	// sheds the session back to the gateway, which re-routes it.
	SlotsPerBackend int
	// Rate and Burst parameterize the gateway token bucket in tokens
	// per (virtual) second; Rate <= 0 disables admission control.
	Rate, Burst float64
	// Migration models checkpointed session mobility (statsgate
	// -migrate): a fraction of sessions halt mid-service, pay a
	// checkpoint cost on their source backend, and resume — after a
	// resume cost — on another backend the policy picks. Zero Rate
	// disables the model and leaves every baseline decision hash
	// untouched.
	Migration MigrationSpec
}

// MigrationSpec parameterizes the simulator's session-mobility model.
// The costs plug in at the same exogenous-duration seam as service
// times: virtual time charged against a backend slot, not a measurement
// of real checkpoint encode/restore work.
type MigrationSpec struct {
	// Rate is the probability a session migrates once mid-service.
	Rate float64
	// CheckpointCost holds the source backend's slot after the halt
	// point while the final snapshot is cut (serve's halt-to-trailer
	// window).
	CheckpointCost time.Duration
	// ResumeCost delays the destination backend's service start while
	// the snapshot restores (statsworker respawn + state decode).
	ResumeCost time.Duration
}

// Enabled reports whether the model draws any migrations at all.
func (m MigrationSpec) Enabled() bool { return m.Rate > 0 }

// validate reports a cluster shape the simulator cannot run, or a trace
// it cannot replay: a session needs a positive slot-hold time.
func (c Cluster) validate(tr *workload.Trace) error {
	if c.Backends <= 0 || c.SlotsPerBackend <= 0 {
		return fmt.Errorf("cluster: need positive Backends and SlotsPerBackend, got %d and %d", c.Backends, c.SlotsPerBackend)
	}
	if c.Migration.Rate < 0 || c.Migration.Rate > 1 {
		return fmt.Errorf("cluster: Migration.Rate %v outside [0, 1]", c.Migration.Rate)
	}
	if c.Migration.CheckpointCost < 0 || c.Migration.ResumeCost < 0 {
		return fmt.Errorf("cluster: negative migration costs")
	}
	if len(tr.Sessions) == 0 {
		return fmt.Errorf("cluster: trace %q has no sessions", tr.Name)
	}
	for i, s := range tr.Sessions {
		if s.DurationNS <= 0 {
			return fmt.Errorf("cluster: trace session %d has duration_ns %d; the simulator needs a positive slot-hold time (give the spec a duration law)", i, s.DurationNS)
		}
	}
	return nil
}

// PolicyResult summarizes one policy's run over a workload trace.
type PolicyResult struct {
	Policy   string `json:"policy"`
	Sessions int    `json:"sessions"` // arrivals replayed
	// Admitted sessions passed the token bucket; Completed ran to
	// departure on some backend.
	Admitted  int `json:"admitted"`
	Completed int `json:"completed"`
	// ShedAdmission were refused by the gateway bucket; ShedCapacity
	// found every backend at its slot cap even after re-routing.
	ShedAdmission int `json:"shed_admission"`
	ShedCapacity  int `json:"shed_capacity"`
	// Reroutes counts backend sheds retried on another backend (the
	// live path's 429-before-output re-route).
	Reroutes int `json:"reroutes"`
	// Elapsed is the virtual makespan; Throughput is completed sessions
	// per virtual second; ShedRate is total sheds over arrivals.
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_per_s"`
	ShedRate   float64       `json:"shed_rate"`
	// Fairness is Jain's index over per-backend completed sessions:
	// 1 is perfectly even, 1/N is one backend taking everything.
	Fairness   float64 `json:"jain_fairness"`
	PerBackend []int   `json:"per_backend"`
	// Migrations counts sessions halted mid-service and resumed on
	// another backend under Cluster.Migration; omitted (0) when the model
	// is off, so baseline result files are byte-stable.
	Migrations int64 `json:"migrations,omitempty"`
	// Decisions is an FNV-1a hash over the full routing decision
	// sequence (session seq, chosen backend, outcome). Two runs made
	// identical decisions iff their hashes match — the simulator's
	// determinism tests and cross-run comparisons key on it.
	Decisions uint64 `json:"decisions_hash"`
}

// simEvent is one scheduled callback; ties on time break by insertion
// order, exactly like internal/machine's event queue, which is what
// makes the heap — and therefore the whole simulation — deterministic.
type simEvent struct {
	time int64 // virtual nanoseconds
	seq  int64
	fn   func(now int64)
}

type simHeap []*simEvent

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *simHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Simulate replays a workload trace against a simulated cluster under
// policy. The decision path is the live gateway's: token-bucket
// admission at each session's arrival time, policy Pick over ready
// backends, shed-and-re-route when the picked backend is at its slot
// cap, session slots freed after the trace's durations. Same trace,
// same cluster, same policy ⇒ identical PolicyResult, bit for bit.
func Simulate(tr *workload.Trace, c Cluster, policy RoutingPolicy) (PolicyResult, error) {
	if err := c.validate(tr); err != nil {
		return PolicyResult{}, err
	}
	sessions := tr.Sessions
	backends := make([]Backend, c.Backends)
	index := make(map[string]int, c.Backends) // backend ID → PerBackend slot
	for i := range backends {
		backends[i] = Backend{ID: fmt.Sprintf("sim-%03d", i)}
		index[backends[i].ID] = i
	}
	reg := NewRegistry(backends...)
	bucket := NewTokenBucket(c.Rate, c.Burst)
	// The migration stream is derived only when the model is on, from the
	// trace's seed: an off model touches no RNG state at all.
	var migRoot *rng.Stream
	if c.Migration.Enabled() {
		migRoot = rng.New(tr.Seed).Derive("cluster-migration")
	}

	res := PolicyResult{Policy: policy.Name(), Sessions: len(sessions),
		PerBackend: make([]int, c.Backends)}
	hash := uint64(14695981039346656037)
	mixHash := func(vs ...uint64) {
		for _, v := range vs {
			for s := 0; s < 64; s += 8 {
				hash = (hash ^ (v >> s & 0xff)) * 1099511628211
			}
		}
	}

	var (
		events   simHeap
		eventSeq int64
		now      int64
	)
	schedule := func(at int64, fn func(now int64)) {
		heap.Push(&events, &simEvent{time: at, seq: eventSeq, fn: fn})
		eventSeq++
	}
	depart := func(id string) func(int64) {
		return func(int64) {
			reg.EndSession(id)
			res.Completed++
			res.PerBackend[index[id]]++
		}
	}
	// place starts session seq on the first candidate the policy picks
	// that has a free slot. A backend at its cap is the live path's 429:
	// account the shed, drop it from the candidates, let the policy pick
	// again. It reports false once every candidate has shed.
	place := func(seq uint64, benchmark string, candidates []Backend) (string, bool) {
		key := SessionKey{Benchmark: benchmark, Seq: seq}
		for len(candidates) > 0 {
			i := policy.Pick(candidates, key)
			b := candidates[i]
			if b.InFlight < c.SlotsPerBackend {
				reg.StartSession(b.ID)
				reg.MarkRouted(b.ID)
				return b.ID, true
			}
			reg.MarkShed(b.ID)
			res.Reroutes++
			mixHash(seq, rendezvousWeight("shed", b.ID), 2)
			candidates = append(candidates[:i:i], candidates[i+1:]...)
		}
		return "", false
	}
	// resume fires at a migrating session's halt point: the source slot
	// (held through the checkpoint cut) frees, and the policy picks a
	// backend to resume on for ResumeCost plus the remaining service
	// time. The re-pick excludes src — the live gateway's halted backend
	// is draining and sheds anything sent back to it.
	resume := func(seq uint64, benchmark, src string, remaining int64) func(int64) {
		return func(int64) {
			reg.EndSession(src)
			res.Migrations++
			mixHash(seq, rendezvousWeight("halt", src), 4)
			candidates := reg.Ready()
			for i := range candidates {
				if candidates[i].ID == src {
					candidates = append(candidates[:i:i], candidates[i+1:]...)
					break
				}
			}
			id, ok := place(seq, benchmark, candidates)
			if !ok {
				// Nowhere to resume: the session is lost mid-stream, the
				// simulator's analogue of the gateway's stranded session.
				res.ShedCapacity++
				mixHash(seq, ^uint64(0), 6)
				return
			}
			schedule(now+int64(c.Migration.ResumeCost)+remaining, depart(id))
			mixHash(seq, rendezvousWeight("resume", id), 5)
		}
	}

	// arrive schedules the next arrival before routing this one, so the
	// event order — and with it every tie between an arrival and a
	// departure — is fixed by the trace, not by routing outcomes.
	var arrive func(seq uint64)
	arrive = func(seq uint64) {
		s := sessions[seq]
		if next := seq + 1; next < uint64(len(sessions)) {
			schedule(sessions[next].At, func(int64) { arrive(next) })
		}
		if ok, _ := bucket.Admit(time.Duration(now)); !ok {
			res.ShedAdmission++
			mixHash(seq, ^uint64(0), 0)
			return
		}
		res.Admitted++
		id, ok := place(seq, s.Benchmark, reg.Ready())
		if !ok {
			res.ShedCapacity++
			mixHash(seq, ^uint64(0), 3)
			return
		}
		mixHash(seq, rendezvousWeight("route", id), 1)
		dur := s.DurationNS
		if m := c.Migration; m.Enabled() {
			// One draw stream per session seq: whether it migrates and
			// where in its service time the halt lands.
			if r := migRoot.DeriveN("session", int(seq)); r.Bool(m.Rate) {
				runFor := int64(r.Float64() * float64(dur))
				schedule(now+runFor+int64(m.CheckpointCost),
					resume(seq, s.Benchmark, id, dur-runFor))
				return
			}
		}
		schedule(now+dur, depart(id))
	}

	schedule(sessions[0].At, func(int64) { arrive(0) })
	heap.Init(&events)
	for events.Len() > 0 {
		e := heap.Pop(&events).(*simEvent)
		now = e.time
		e.fn(now)
	}

	res.Elapsed = time.Duration(now)
	if now > 0 {
		res.Throughput = float64(res.Completed) / time.Duration(now).Seconds()
	}
	res.ShedRate = float64(res.ShedAdmission+res.ShedCapacity) / float64(len(sessions))
	res.Fairness = jain(res.PerBackend)
	res.Decisions = hash
	return res, nil
}

// Compare runs every policy against the same trace and cluster.
func Compare(tr *workload.Trace, c Cluster, policies []RoutingPolicy) ([]PolicyResult, error) {
	out := make([]PolicyResult, 0, len(policies))
	for _, p := range policies {
		r, err := Simulate(tr, c, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over per-backend
// session counts; 1 when perfectly balanced, 1/n when one backend takes
// everything, and 1 by convention for an idle or empty cluster.
func jain(counts []int) float64 {
	var sum, sumsq float64
	for _, c := range counts {
		sum += float64(c)
		sumsq += float64(c) * float64(c)
	}
	if sumsq == 0 || len(counts) == 0 {
		return 1
	}
	return sum * sum / (float64(len(counts)) * sumsq)
}
