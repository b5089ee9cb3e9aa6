package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// -selfcheck does to the benchmark what the driver does before accepting it:
// two sets of ten runs per workload, ten seeds per set, every run a fresh
// process started by BENCHMARK.json's own command. A metric passes when each
// set's spread (IQR / median over its ten values) stays within the metric's
// bound and the two sets' medians differ by no more than the bound; setup_s
// is judged on the medians only. The table is written to
// benchmark/results/noise.json, and the bounds in BENCHMARK.json follow from
// it by the rule in README.md.

const (
	benchmarkFilePath = "BENCHMARK.json"
	noisePath         = "benchmark/results/noise.json"
	runsPerSet        = 10
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// setStats summarises one set's ten values of one metric on one workload.
type setStats struct {
	Seeds         []uint64  `json:"seeds"`
	Values        []float64 `json:"values"`
	Median        float64   `json:"median"`
	Q1            float64   `json:"q1"`
	Q3            float64   `json:"q3"`
	IQROverMedian float64   `json:"iqr_over_median"`
}

type noiseRow struct {
	Workload    string      `json:"workload"`
	Metric      string      `json:"metric"`
	Bound       float64     `json:"bound"`
	Sets        [2]setStats `json:"sets"`
	MedianDrift float64     `json:"median_drift"` // |second - first| / first
	OK          bool        `json:"ok"`
}

type noiseFile struct {
	Note       string     `json:"note"`
	Go         string     `json:"go"`
	CPUs       int        `json:"cpus"`
	RunSeconds int        `json:"run_seconds"`
	RunWallS   setStats   `json:"run_wall_s"` // wall time of every run, builds excluded
	DriverS    float64    `json:"projected_driver_s"`
	Rows       []noiseRow `json:"rows"`
}

// oneRun starts the contract's command as a fresh process and returns the
// metrics of its result line.
func oneRun(command []string, workload string, seed uint64, seconds int) (map[string]float64, time.Duration, error) {
	argv := append(append([]string(nil), command...),
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	t0 := time.Now()
	c, err := startChild(&stdout, argv...)
	if err != nil {
		return nil, 0, err
	}
	<-c.done
	wall := time.Since(t0)
	c.stop()
	if c.err != nil {
		return nil, wall, fmt.Errorf("%v: %v; stderr:\n%s", argv, c.err, c.stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte{'\n'})
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, wall, fmt.Errorf("%v: bad result line: %w", argv, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, wall, fmt.Errorf("%v: correct=%v failed=%d", argv, res.Correct, res.Failed)
	}
	out := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		out[name] = v.Value
	}
	return out, wall, nil
}

func summarise(seeds []uint64, values []float64) setStats {
	q1, q2, q3 := quartiles(values)
	return setStats{Seeds: seeds, Values: values, Median: q2, Q1: q1, Q3: q3, IQROverMedian: iqrOverMedian(values)}
}

func runSelfcheck() error {
	bf, err := loadBenchmarkFile(benchmarkFilePath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	var seeds [2][]uint64
	var walls []float64
	for set := 0; set < 2; set++ {
		for i := 0; i < runsPerSet; i++ {
			seed := uint64(set*runsPerSet + i + 1)
			seeds[set] = append(seeds[set], seed)
			for _, w := range bf.Workloads {
				got, wall, err := oneRun(bf.Command, w.Name, seed, bf.RunSeconds)
				if err != nil {
					return err
				}
				walls = append(walls, wall.Seconds())
				fmt.Printf("set %d seed %2d %-16s %5.1f s", set+1, seed, w.Name, wall.Seconds())
				for _, m := range bf.EndToEnd {
					v, ok := got[m.Name]
					if !ok {
						return fmt.Errorf("%s seed %d: no %s in the result", w.Name, seed, m.Name)
					}
					values[set][key{w.Name, m.Name}] = append(values[set][key{w.Name, m.Name}], v)
					fmt.Printf("  %s %.5g", m.Name, v)
				}
				fmt.Println()
			}
		}
	}

	nf := noiseFile{
		Note:       "written by `bash benchmark/run.sh -selfcheck`; two sets of ten fresh-process runs per workload",
		Go:         runtime.Version(),
		CPUs:       runtime.NumCPU(),
		RunSeconds: bf.RunSeconds,
		RunWallS:   summarise(nil, walls),
	}
	// The driver makes 4 + 22 x workloads runs; its two cold builds are not
	// in these walls and are budgeted separately in README.md.
	nf.DriverS = float64(4+22*len(bf.Workloads)) * nf.RunWallS.Median
	failed := 0
	fmt.Printf("\n%-16s %-18s %6s | %10s %7s | %10s %7s | %7s\n", "workload", "metric", "bound", "median 1", "spread", "median 2", "spread", "drift")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			k := key{w.Name, m.Name}
			row := noiseRow{Workload: w.Name, Metric: m.Name, Bound: m.Bound}
			for set := 0; set < 2; set++ {
				row.Sets[set] = summarise(seeds[set], values[set][k])
			}
			row.MedianDrift = math.Abs(row.Sets[1].Median-row.Sets[0].Median) / row.Sets[0].Median
			row.OK = row.MedianDrift <= m.Bound
			if m.Name != "setup_s" { // set-up is mostly spawn jitter: judged on its medians only
				row.OK = row.OK && row.Sets[0].IQROverMedian <= m.Bound && row.Sets[1].IQROverMedian <= m.Bound
			}
			verdict := "ok"
			if !row.OK {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-16s %-18s %6.2f | %10.5g %7.4f | %10.5g %7.4f | %7.4f %s\n", w.Name, m.Name, m.Bound,
				row.Sets[0].Median, row.Sets[0].IQROverMedian, row.Sets[1].Median, row.Sets[1].IQROverMedian, row.MedianDrift, verdict)
			nf.Rows = append(nf.Rows, row)
		}
	}
	fmt.Printf("run wall time: median %.1f s, max %.1f s; %d driver runs would take %.0f s of 3420 s before builds\n",
		nf.RunWallS.Median, sorted(walls)[len(walls)-1], 4+22*len(bf.Workloads), nf.DriverS)

	data, err := json.MarshalIndent(nf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(noisePath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(noisePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", noisePath)
	if failed > 0 {
		return fmt.Errorf("%d metric x workload rows outside their bound", failed)
	}
	return nil
}
