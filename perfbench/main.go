// Command perfbench is the repository's benchmark of the commit path.
// It deploys one workload (see workloads.go), drives it with one or
// two closed-loop clients for a fixed time, checks the program's outputs,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// nothing wrapped. With -trace 1 the workload runs twice, untraced and
// then with every layer's public calls timed from this package's
// wrappers, and the metrics are the per-layer ones. README.md lists
// every metric.
//
// Usage:
//
//	perfbench -workload partitioned-rw -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/workload"
)

const (
	// repetitions is how many fresh deployments a -trace 0 run measures;
	// it reports the median of each metric over them.
	repetitions = 10
	// setupsPerRep is how many times each repetition sets up, so that
	// setup_s is a median over repetitions*setupsPerRep set-ups.
	setupsPerRep = 3
	// minSamples leaves at least 10 samples beyond the p99.
	minSamples = 1000
	// drainWait bounds how long the checks wait for asynchronous
	// truncations and acknowledgements to settle after the drain.
	drainWait = 10 * time.Second
	// watchdogSlack is how long past --seconds a run may take before
	// the command gives up.
	watchdogSlack = 150 * time.Second
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: partitioned-rw, hot-pushes or loopback-pushes")
	seed := flag.Int64("seed", 1, "seed of the generated transactions")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	s := specByName(*name)
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d clients=%d nproc=%d gomaxprocs=%d go=%s commit=%s decision_log=%q\n",
		s.name, *seed, *seconds, *trace, s.clients, procs, runtime.GOMAXPROCS(0), runtime.Version(), commitHash(), s.flush)
	fmt.Printf("# why: %s\n", s.why)

	dur := time.Duration(*seconds) * time.Second
	// A hold that never drains would wedge the clients; the command must
	// still end, with an error and no result.
	time.AfterFunc(dur+watchdogSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result %s after the start\n", s.name, dur+watchdogSlack)
		os.Exit(1)
	})
	var (
		ms       []metric
		attempts uint64
		failed   uint64
		problems []string
		err      error
	)
	if *trace == 0 {
		ms, attempts, failed, problems, err = endToEnd(s, *seed, dur)
	} else {
		ms, attempts, failed, problems, err = perLayer(s, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: len(problems) == 0, Attempted: attempts, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, p := range problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// commitHash is the VCS revision the binary was built from, when the
// build saw one.
func commitHash() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func loadFor(s *spec, d *deployment, seed int64, dur time.Duration) loadConfig {
	return loadConfig{
		store:     d.store,
		src:       workload.Source{Gen: s.gen, MinLen: 4, MaxLen: 12},
		seed:      seed,
		clients:   s.clients,
		duration:  dur,
		retryHeld: s.retryHeld,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd deploys the workload afresh for each of reps repetitions,
// drives each for an equal share of the measured time, and reports
// every metric's median over the repetitions. A fresh deployment per
// repetition keeps the pushes workloads' growing stacks from making
// the later part of a long run slower than its start. Each repetition
// sets up setupsPerRep times and measures the last deployment;
// setup_s is the median over all of them.
func endToEnd(s *spec, seed int64, dur time.Duration) ([]metric, uint64, uint64, []string, error) {
	var (
		reps              [][]metric
		setups            []float64
		attempted, failed uint64
		problems          []string
	)
	for rep := 0; rep < repetitions; rep++ {
		var d *deployment
		for i := 0; i < setupsPerRep; i++ {
			if d != nil {
				d.close()
			}
			var secs float64
			var err error
			if d, secs, err = setUp(s); err != nil {
				return nil, 0, 0, nil, fmt.Errorf("set up %s: %w", s.name, err)
			}
			setups = append(setups, secs)
		}
		ms, res, probs := measure(s, d, seed+int64(rep), dur/repetitions)
		d.close()
		reps = append(reps, ms)
		attempted += res.logical
		failed += res.failed
		problems = append(problems, probs...)
	}
	fmt.Printf("# failed_frac %g (failed %d of %d attempted)\n", failedFrac(failed, attempted), failed, attempted)
	out := make([]metric, len(reps[0]))
	for i, m := range reps[0] {
		vals := make([]float64, len(reps))
		for r := range reps {
			vals[r] = reps[r][i].value
		}
		out[i] = metric{m.name, median(vals), m.unit}
	}
	return append(out, metric{"setup_s", median(setups), "s"}), attempted, failed, problems, nil
}

// setUp deploys the workload untraced and returns the seconds it took,
// collecting the set-up's garbage included. The collector is held off
// while the deployment is built and then run once to completion:
// whether a collection happens to start inside a window of a few
// milliseconds would otherwise decide the figure.
func setUp(s *spec) (*deployment, float64, error) {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	t0 := time.Now()
	d, err := s.deploy(s, nil)
	debug.SetGCPercent(gc)
	runtime.GC()
	return d, time.Since(t0).Seconds(), err
}

// measure runs the closed loop once on a deployment and returns what a
// caller sees, and the output checks' verdict.
func measure(s *spec, d *deployment, seed int64, dur time.Duration) ([]metric, loadResult, []string) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	res := runLoad(loadFor(s, d, seed, dur), time.Now())
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)

	lat, real := sortedInts(res.lat), sortedInts(res.real)
	p50, n := percentile(lat, 50)
	p99, _ := percentile(lat, 99)
	rp99, rn := percentile(real, 99)
	committed := float64(res.committed)
	fmt.Printf("# seed %d: %.0f txn/s, p50 %.1fus, p99 %.1fus over %d commit-wait samples (%d beyond p99), real-commit p99 %.1fus over %d samples (%d beyond); logical %d, committed %d, held %d, failed %d\n",
		seed, committed/res.elapsed.Seconds(), float64(p50)/1e3, float64(p99)/1e3, n, beyond(lat, 99), float64(rp99)/1e3, rn, beyond(real, 99),
		res.logical, res.committed, res.pseudo, res.failed)
	ms := []metric{
		{"txn_per_s", committed / res.elapsed.Seconds(), "1/s"},
		{"txn_p50_us", float64(p50) / 1e3, "us"},
		{"txn_p99_us", float64(p99) / 1e3, "us"},
		{"realcommit_p99_us", float64(rp99) / 1e3, "us"},
		{"cpu_us_per_txn", ratio(float64((cpu1 - cpu0).Microseconds()), committed), "us"},
		{"alloc_bytes_per_txn", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), committed), "B"},
	}
	// The live heap is read after the drain and a forced GC, with the
	// benchmark's own sample slices released, before teardown.
	lat, real, res.lat, res.real = nil, nil, nil, nil
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	ms = append(ms, metric{"live_heap_mb", float64(m2.HeapAlloc) / 1e6, "MB"})
	return ms, res, check(s, d, &res, n)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
