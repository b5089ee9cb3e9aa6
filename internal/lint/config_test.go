package lint

import "testing"

// The workload layer generates every arrival gap, duration, and mix pick
// in the system; a clock or math/rand leak there silently destroys trace
// reproducibility. Pin it (and the other load-bearing packages) to the
// critical set so detpath keeps watching them.
func TestDefaultConfigCoversDeterminismCriticalPackages(t *testing.T) {
	cfg := DefaultConfig()
	for _, pkg := range []string{
		"gostats/internal/engine",
		"gostats/internal/rng",
		"gostats/internal/cluster",
		"gostats/internal/workload",
		"gostats/internal/checkpoint",
		"gostats/internal/procexec",
		"gostats/internal/bench/dedupstream", // prefix match via internal/bench
	} {
		if !cfg.IsCritical(pkg) {
			t.Errorf("DefaultConfig does not mark %s determinism-critical", pkg)
		}
	}
	for _, pkg := range []string{
		"gostats/internal/report",
		"gostats/internal/workloadx", // prefixes must not match on substrings
	} {
		if cfg.IsCritical(pkg) {
			t.Errorf("DefaultConfig wrongly marks %s determinism-critical", pkg)
		}
	}
}
