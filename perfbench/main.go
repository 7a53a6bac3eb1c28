// Command perfbench is the repository's benchmark: it runs one named
// workload against the public chiller API (embedded simulated cluster)
// or the shipped chiller-node binary (TCP cluster), checks the
// workload's outputs, and prints every metric by name and unit as the
// last line of standard output.
//
//	perfbench --workload bank-snapshot --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload with spans and a CPU profile, then the per-layer
// probes, and prints the per-layer metrics; the span trace, the CPU
// profile and the run record land under --out. run.sh builds the
// binaries and is the entry point BENCHMARK.json names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Load shape shared by every workload: nproc callers, each keeping the
// workload's number of operations in flight, every operation under a
// fixed deadline.
const (
	opDeadline = 2 * time.Second
	warmup     = time.Second
	// setupRepeats is how many times a run builds its deployment; the
	// median is setup_s and the last build is the one measured.
	setupRepeats = 5
)

// errCheck marks a failed output check: the run reports correct=false
// and prints no numbers.
var errCheck = errors.New("output check failed")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	nodeBin  string
	commit   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for run records, span traces, CPU profiles and the WAL probe")
	flag.StringVar(&o.nodeBin, "node-bin", ".bench_build/bin/chiller-node", "chiller-node binary for tpcc-tcp")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, for the run record")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1, got %d", o.seconds))
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames()))
	}
	res, err := run(w, o)
	if errors.Is(err, errCheck) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		printResult(result{Correct: false, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}})
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	printResult(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// run builds the deployment setupRepeats times; setup_s is the median
// build time. An untraced run measures every build for an equal share
// of the window, so state that differs between builds (instacart-sim's
// layout) is averaged over five draws instead of taken from one; a
// traced run measures the last build.
func run(w workload, o options) (result, error) {
	runDir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, b2i(o.trace)))
	if err := os.RemoveAll(runDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	env := setupEnv{seed: o.seed, nodeBin: o.nodeBin}
	rec := newRecord(w, o)
	window := time.Duration(o.seconds) * time.Second
	var (
		acc plainStats
		out result
	)
	for i := 0; i < setupRepeats; i++ {
		// Earlier builds are garbage now: hand their memory back and
		// restart the peak-RSS counter so mem_peak_mb covers one build.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		dep, err := w.setup(env)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		rec.Setups = append(rec.Setups, time.Since(t0).Seconds())
		rec.Builds = append(rec.Builds, dep.config())
		switch {
		case !o.trace:
			err = acc.measure(dep, w.slots(), window/setupRepeats, o.seed*setupRepeats+int64(i))
			out = result{Attempted: acc.attempted, Failed: acc.failed}
		case i == setupRepeats-1:
			out, err = tracedRun(o, dep, w.slots(), window, runDir, rec)
		}
		if cerr := dep.close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s close: %w", w.name, cerr)
		}
		if err != nil {
			return out, err
		}
	}
	if !o.trace {
		var err error
		if out, err = acc.result(rec); err != nil {
			return out, err
		}
	}
	if err := rec.write(filepath.Join(runDir, "run.json")); err != nil {
		return out, err
	}
	return out, nil
}

// plainStats accumulates an untraced run over its builds.
type plainStats struct {
	runStats
	cpu         float64 // CPU seconds of the deployments' processes
	steal, host float64 // host CPU ticks: stolen, all
	mems        []float64
}

// measure drives one build for its share of the window and checks its
// outputs.
func (acc *plainStats) measure(dep deployment, slots int, window time.Duration, seed int64) error {
	var cpu0, steal0, host0 float64
	st, err := drive(dep, slots, window, nil, func() error {
		var err error
		if steal0, host0, err = hostTicks(); err != nil {
			return err
		}
		cpu0, err = cpuSeconds(dep.pids())
		return err
	}, seed)
	if err != nil {
		return err
	}
	cpu1, err := cpuSeconds(dep.pids())
	if err != nil {
		return err
	}
	steal1, host1, err := hostTicks()
	if err != nil {
		return err
	}
	mem, err := peakRSSMB(dep.pids())
	if err != nil {
		return err
	}
	acc.attempted += st.attempted
	acc.failed += st.failed
	if err := dep.check(st); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	acc.committed += st.committed
	acc.elapsed += st.elapsed
	acc.slices = append(acc.slices, st.slices...)
	acc.cpu += cpu1 - cpu0
	acc.steal += steal1 - steal0
	acc.host += host1 - host0
	acc.mems = append(acc.mems, mem)
	return nil
}

// result derives the end-to-end metrics.
func (acc *plainStats) result(rec *record) (result, error) {
	res := result{Correct: true, Attempted: acc.attempted, Failed: acc.failed}
	if acc.committed == 0 {
		return res, fmt.Errorf("no operation committed in the window")
	}
	st := &acc.runStats
	rwq := func(p float64) float64 { return st.perSlice(func(s slice) float64 { return s.rw.quantile(p) }) }
	roq := func(p float64) float64 { return st.perSlice(func(s slice) float64 { return s.ro.quantile(p) }) }
	res.Metrics = map[string]metric{
		"tps":           {st.perSlice(func(s slice) float64 { return float64(s.committed) }) / st.sliceSeconds(), "1/s"},
		"p50_us":        {rwq(0.50), "us"},
		"p99_us":        {rwq(0.99), "us"},
		"ro_p50_us":     {roq(0.50), "us"},
		"ro_p99_us":     {roq(0.99), "us"},
		"ok_ratio":      {1 - float64(acc.failed)/float64(acc.attempted), "ratio"},
		"cpu_us_per_op": {acc.cpu * 1e6 / float64(acc.committed), "us"},
		"mem_peak_mb":   {median(acc.mems), "MB"},
		"setup_s":       {median(rec.Setups), "s"},
	}
	nrw, nro := st.samples()
	rec.Samples = map[string]int{"rw": nrw, "ro": nro, "slices": len(st.slices)}
	rec.Window = st.elapsed.Seconds()
	if acc.host > 0 {
		rec.HostStealFrac = acc.steal / acc.host
	}
	return res, nil
}

// latencies holds one class of operation latencies in microseconds.
type latencies []float64

func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func nproc() int { return runtime.NumCPU() }
