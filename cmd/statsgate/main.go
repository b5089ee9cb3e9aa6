// Command statsgate is the cluster front door for statsserved: it
// multiplexes streaming STATS sessions across N backends.
//
// Usage:
//
//	statsgate -backends http://h1:8417,http://h2:8417 [-addr :8427]
//	          [-policy roundrobin|leastloaded|affinity]
//	          [-rate 0] [-burst 1] [-probe-interval 500ms]
//	          [-probe-fails 2] [-grace 15s]
//	          [-migrate] [-ckpt-every 32]
//	statsgate -sim [-sim-policies roundrobin,leastloaded,affinity]
//	          [-sim-sessions 1000000] [-sim-backends 8] [-sim-slots 64]
//	          [-sim-arrival 2ms] [-sim-duration 250ms]
//	          [-sim-rate 0] [-sim-burst 1] [-sim-seed 1] [-json]
//	          [-sim-migrate-rate 0] [-sim-ckpt-cost 2ms]
//	          [-sim-resume-cost 5ms]
//	          [-workload spec.json] [-sim-record trace.ndjson]
//	          [-sim-replay trace.ndjson]
//
// In serving mode it proxies full-duplex NDJSON sessions at
// POST /v1/stream/{benchmark} to a backend chosen by -policy, admits
// them through a token bucket (-rate tokens/s, -burst; 429 +
// Retry-After when empty), and re-routes a session that a backend sheds
// with 429/503 — always before any output byte — to the next backend
// the policy picks, replaying the consumed request bytes. Once output
// has streamed, the session is pinned and bytes are relayed untouched,
// so committed outputs are byte-identical to a direct statsserved run.
// Backend health comes from /readyz probes every -probe-interval
// (draining backends stop receiving new sessions; -probe-fails
// consecutive failures mark a backend down) and load signals from each
// backend's /metrics gauges. With -migrate, sessions run under the
// checkpointed protocol: backends interleave #ckpt snapshot lines every
// -ckpt-every commits, the gateway consumes them (trimming its replay
// buffer to the checkpoint frontier), and a session whose backend drains
// mid-stream — halting at its commit frontier with a #migrate marker —
// or dies outright is resumed from the latest checkpoint on the next
// backend the policy picks. The client sees one uninterrupted stream,
// byte-identical to an unmigrated run. GET /metrics aggregates every backend's
// counters into cluster-wide sums, GET /v1/backends shows the routing
// table, and SIGTERM drains like statsserved.
//
// With -sim it instead runs the deterministic discrete-event cluster
// simulator over a synthetic arrival spec — the same policy and
// admission code as the live path, at million-session scale in seconds
// — and prints a per-policy comparison (throughput, shed rate, Jain
// fairness). Same seed, same spec: identical decisions and metrics,
// run after run. The arrival process comes from the -sim-* flags
// (exponential laws), or from a workload spec file (-workload, see
// internal/workload: arbitrary distributions, mixes, modulators), or
// verbatim from a recorded trace (-sim-replay). -sim-record writes the
// trace the run would generate as NDJSON without simulating, so a
// synthetic spec can be frozen, inspected, and replayed elsewhere.
// -sim-migrate-rate turns on the session-mobility cost model: that
// fraction of sessions halt mid-service, hold their source slot for
// -sim-ckpt-cost while the checkpoint is cut, and resume on another
// policy-picked backend after -sim-resume-cost — the simulator analogue
// of the live -migrate path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"gostats/internal/cluster"
	"gostats/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8427", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required unless -sim)")
	policyName := flag.String("policy", "roundrobin", "routing policy: "+strings.Join(cluster.PolicyNames(), ", "))
	rate := flag.Float64("rate", 0, "admission rate in sessions/s (0: unlimited)")
	burst := flag.Float64("burst", 1, "admission burst size")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "backend /readyz+/metrics probe interval")
	probeFails := flag.Int("probe-fails", 2, "consecutive probe failures before a backend is down")
	grace := flag.Duration("grace", 15*time.Second, "drain period for in-flight sessions on SIGTERM")
	migrate := flag.Bool("migrate", false, "checkpoint sessions and resume them on another backend when theirs drains or dies (session mobility)")
	ckptEvery := flag.Int("ckpt-every", 32, "with -migrate, commits between session checkpoints")

	sim := flag.Bool("sim", false, "run the deterministic cluster simulator instead of serving")
	simPolicies := flag.String("sim-policies", strings.Join(cluster.PolicyNames(), ","), "policies to compare")
	simSessions := flag.Int("sim-sessions", 1_000_000, "session arrivals to simulate")
	simBackends := flag.Int("sim-backends", 8, "simulated backends")
	simSlots := flag.Int("sim-slots", 64, "session slots per simulated backend (-max-sessions)")
	simArrival := flag.Duration("sim-arrival", 2*time.Millisecond, "mean session interarrival")
	simDuration := flag.Duration("sim-duration", 250*time.Millisecond, "mean session duration")
	simRate := flag.Float64("sim-rate", 0, "simulated admission rate in sessions/s (0: unlimited)")
	simBurst := flag.Float64("sim-burst", 1, "simulated admission burst")
	simSeed := flag.Uint64("sim-seed", 1, "workload trace seed")
	simMigRate := flag.Float64("sim-migrate-rate", 0, "with -sim, probability a session migrates mid-service (0: model off)")
	simCkptCost := flag.Duration("sim-ckpt-cost", 2*time.Millisecond, "with -sim-migrate-rate, source-slot time to cut the halt checkpoint")
	simResumeCost := flag.Duration("sim-resume-cost", 5*time.Millisecond, "with -sim-migrate-rate, destination delay to restore the snapshot")
	simWorkload := flag.String("workload", "", "with -sim, workload spec file replacing the -sim-arrival/-sim-duration exponential laws")
	simRecord := flag.String("sim-record", "", "write the simulator's workload trace as NDJSON to this file and exit (no simulation)")
	simReplay := flag.String("sim-replay", "", "with -sim, replay a recorded NDJSON workload trace instead of generating arrivals")
	jsonOut := flag.Bool("json", false, "with -sim, print results as JSON")
	flag.Parse()

	if *sim || *simRecord != "" {
		mig := cluster.MigrationSpec{Rate: *simMigRate,
			CheckpointCost: *simCkptCost, ResumeCost: *simResumeCost}
		spec, err := simSpec(*simSessions, *simBackends, *simSlots,
			*simArrival, *simDuration, *simRate, *simBurst, *simSeed,
			*simWorkload, *simReplay, mig)
		if err == nil {
			if *simRecord != "" {
				err = recordSim(spec, *simRecord)
			} else {
				err = runSim(spec, *simPolicies, *jsonOut)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "statsgate:", err)
			os.Exit(1)
		}
		return
	}

	policy, err := cluster.PolicyFor(*policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsgate:", err)
		os.Exit(1)
	}
	var bs []cluster.Backend
	for _, a := range strings.Split(*backends, ",") {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a != "" {
			bs = append(bs, cluster.Backend{Addr: a})
		}
	}
	if len(bs) == 0 {
		fmt.Fprintln(os.Stderr, "statsgate: -backends is required (or use -sim)")
		os.Exit(1)
	}

	reg := cluster.NewRegistry(bs...)
	g := newGateway(reg, policy, cluster.NewTokenBucket(*rate, *burst))
	g.migrate, g.ckptEvery = *migrate, *ckptEvery
	prober := &cluster.Prober{Registry: reg, Interval: *probeInterval, FailThreshold: *probeFails}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go prober.Run(ctx)

	srv := &http.Server{Addr: *addr, Handler: g.handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("statsgate listening on %s (policy %s, %d backends)", *addr, policy.Name(), len(bs))

	select {
	case err := <-errc:
		log.Fatalf("statsgate: %v", err)
	case <-ctx.Done():
		stop()
		g.startDrain()
		log.Printf("statsgate: signal received, draining sessions (grace %s)", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("statsgate: drain incomplete (%v), force closing", err)
			srv.Close()
		}
	}
}

// simSpec assembles the simulator's ArrivalSpec from flags, a workload
// spec file, or a recorded trace — the three arrival sources share one
// validation path (ArrivalSpec.Normalized).
func simSpec(sessions, backends, slots int, arrival, duration time.Duration,
	rate, burst float64, seed uint64, workloadPath, replayPath string,
	mig cluster.MigrationSpec) (cluster.ArrivalSpec, error) {
	if workloadPath != "" && replayPath != "" {
		return cluster.ArrivalSpec{}, fmt.Errorf("-workload and -sim-replay are mutually exclusive")
	}
	if workloadPath != "" {
		ws, err := workload.Load(workloadPath)
		if err != nil {
			return cluster.ArrivalSpec{}, err
		}
		spec, err := cluster.SpecFromWorkload(ws, backends, slots, rate, burst)
		if err != nil {
			return cluster.ArrivalSpec{}, err
		}
		spec.Migration = mig
		return spec, nil
	}
	spec := cluster.ArrivalSpec{
		Sessions:         sessions,
		Backends:         backends,
		SlotsPerBackend:  slots,
		MeanInterarrival: arrival,
		MeanDuration:     duration,
		Rate:             rate,
		Burst:            burst,
		Seed:             seed,
		Migration:        mig,
	}
	if replayPath != "" {
		tr, err := workload.LoadTrace(replayPath)
		if err != nil {
			return cluster.ArrivalSpec{}, err
		}
		spec.Trace = tr
	}
	return spec, nil
}

// recordSim freezes the trace the simulator would generate for spec as
// NDJSON, without running any policy over it.
func recordSim(spec cluster.ArrivalSpec, path string) error {
	tr, err := cluster.Record(spec)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("recorded %d sessions (seed %d) to %s\n", len(tr.Sessions), tr.Seed, path)
	return nil
}

// runSim compares the named policies over one workload trace and prints
// a table (or JSON rows, the format of internal/cluster/testdata's goldens).
func runSim(spec cluster.ArrivalSpec, policyList string, jsonOut bool) error {
	var ps []cluster.RoutingPolicy
	for _, name := range strings.Split(policyList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := cluster.PolicyFor(name)
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return fmt.Errorf("no policies in %q", policyList)
	}
	rows, err := cluster.Compare(spec, ps)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(rows)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tsessions\tcompleted\tthroughput/s\tshed-rate\treroutes\tjain-fairness\tdecisions")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.4f\t%d\t%.4f\t%016x\n",
			r.Policy, r.Sessions, r.Completed, r.Throughput, r.ShedRate, r.Reroutes, r.Fairness, r.Decisions)
	}
	return tw.Flush()
}
