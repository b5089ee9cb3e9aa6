// Command statsgate is the cluster front door for statsserved: it
// multiplexes streaming STATS sessions across N backends.
//
// Usage:
//
//	statsgate -backends http://h1:8417,http://h2:8417 [-addr :8427]
//	          [-policy roundrobin|leastloaded|affinity]
//	          [-rate 0] [-burst 1] [-probe-interval 500ms]
//	          [-grace 15s] [-migrate] [-ckpt-every 32]
//
// It proxies full-duplex NDJSON sessions at POST /v1/stream/{benchmark}
// to a backend chosen by -policy, admits
// them through a token bucket (-rate tokens/s, -burst; 429 +
// Retry-After when empty), and re-routes a session that a backend sheds
// with 429/503 — always before any output byte — to the next backend
// the policy picks, replaying the consumed request bytes. Once output
// has streamed, the session is pinned and bytes are relayed untouched,
// so committed outputs are byte-identical to a direct statsserved run.
// Backend health comes from /readyz probes every -probe-interval
// (draining backends stop receiving new sessions; two consecutive
// failures mark a backend down) and load signals from each backend's
// /metrics gauges. With -migrate, sessions run under the
// checkpointed protocol: backends interleave #ckpt snapshot lines every
// -ckpt-every commits, the gateway consumes them (trimming its replay
// buffer to the checkpoint frontier), and a session whose backend drains
// mid-stream — halting at its commit frontier with a #migrate marker —
// or dies outright is resumed from the latest checkpoint on the next
// backend the policy picks. The client sees one uninterrupted stream,
// byte-identical to an unmigrated run. GET /metrics aggregates every backend's
// counters into cluster-wide sums, GET /v1/backends shows the routing
// table, and SIGTERM drains like statsserved.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gostats/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8427", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	policyName := flag.String("policy", "roundrobin", "routing policy: "+strings.Join(cluster.PolicyNames(), ", "))
	rate := flag.Float64("rate", 0, "admission rate in sessions/s (0: unlimited)")
	burst := flag.Float64("burst", 1, "admission burst size")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "backend /readyz+/metrics probe interval")
	grace := flag.Duration("grace", 15*time.Second, "drain period for in-flight sessions on SIGTERM")
	migrate := flag.Bool("migrate", false, "checkpoint sessions and resume them on another backend when theirs drains or dies (session mobility)")
	ckptEvery := flag.Int("ckpt-every", 32, "with -migrate, commits between session checkpoints")
	flag.Parse()

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
		fmt.Fprintln(os.Stderr, "statsgate: -backends is required")
		os.Exit(1)
	}

	reg := cluster.NewRegistry(bs...)
	g := newGateway(reg, policy, cluster.NewTokenBucket(*rate, *burst))
	g.migrate, g.ckptEvery = *migrate, *ckptEvery
	prober := &cluster.Prober{Registry: reg, Interval: *probeInterval}

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
