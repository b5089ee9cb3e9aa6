// Package workload is the repo's single load-generation layer:
// exponential arrival and poisson length distributions, rate modulators
// for nonstationary shaping, and multi-client session specs with
// per-connection benchmark mixes.
//
// Generate is the only code that turns a spec into sessions. statsload
// paces its trace against a live server, statsserved -gen-spec
// regenerates one session's body, and statsbench -workload replays it in
// process. Every draw comes from a workload.Distribution over seeded
// internal/rng streams, so a spec names exactly one workload — the same
// sessions, the same arrival times, the same inputs, run after run. The
// spec is therefore the whole record of a workload: regenerating from it
// gives the same sessions on any host.
//
// Determinism contract: nothing in this package reads a clock or any
// other ambient source. Every random draw comes from an *rng.Stream the
// caller seeds, every "time" is virtual nanoseconds since the workload's
// epoch, and modulators are pure functions of that virtual time plus
// their own derived streams. The package is statslint-critical
// (CriticalPrefixes), so a wall-clock or math/rand use here fails CI.
package workload
