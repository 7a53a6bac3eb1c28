package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller"
)

// span is one timed interval: an op (one ExecuteWithRetry), an attempt
// (one Execute inside it, tagged with its abort reason) or a probe call.
type span struct {
	Name       string
	ID, Parent uint64
	Start, End int64 // ns since the tracer's epoch
	Tag        string
	Dist       bool // the attempt touched more than one partition
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// abortReasons are AbortError.Reason values plus "cancelled" for an
// attempt cut off by the operation deadline.
var abortReasons = []string{
	"lock-conflict", "validation", "constraint", "not-found", "internal",
	"unreachable", "stale-read", "moved", "cancelled",
}

// tracer keeps spans in memory, one buffer per in-flight slot, and
// writes them out when the run ends. Spans are recorded only while on.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	slots  [][]span
	mu     sync.Mutex
	probes []span
}

func newTracer(slots int) *tracer {
	return &tracer{epoch: time.Now(), slots: make([][]span, slots)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// execute is ExecuteWithRetry spelled out through the same public
// policy, so each Execute attempt gets its own span.
func (tr *tracer) execute(ctx context.Context, db *chiller.DB, slot int, t0 time.Time, proc string, args []int64) (chiller.Result, error) {
	on := tr.on.Load()
	opID := tr.nextID.Add(1)
	start := int64(t0.Sub(tr.epoch))
	res, err := chiller.Retry{}.Do(ctx, func(ctx context.Context) (chiller.Result, error) {
		a0 := tr.now()
		r, err := db.Execute(ctx, proc, args...)
		if on {
			s := span{Name: "attempt", ID: tr.nextID.Add(1), Parent: opID, Start: a0, End: tr.now(), Dist: r.Distributed}
			var ae *chiller.AbortError
			switch {
			case errors.As(err, &ae):
				s.Tag, s.Dist = ae.Reason(), ae.Distributed
			case err != nil:
				s.Tag = "cancelled"
			}
			tr.slots[slot] = append(tr.slots[slot], s)
		}
		return r, err
	})
	if on {
		s := span{Name: "op", ID: opID, Start: start, End: tr.now()}
		if err != nil {
			s.Tag = "failed"
		}
		tr.slots[slot] = append(tr.slots[slot], s)
	}
	return res, err
}

// probe records one probe call's span.
func (tr *tracer) probe(name string, start time.Time) {
	s := span{Name: "probe." + name, ID: tr.nextID.Add(1), Start: int64(start.Sub(tr.epoch)), End: tr.now()}
	tr.mu.Lock()
	tr.probes = append(tr.probes, s)
	tr.mu.Unlock()
}

// layerMetrics derives the chiller (retry) and core (engine attempt)
// metrics from the op and attempt spans.
func (tr *tracer) layerMetrics() map[string]float64 {
	var (
		ops, attempts, aborted, distributed int
		opTime, attemptTime                 time.Duration
		attemptUS                           []float64
		reasons                             = map[string]int{}
	)
	for _, buf := range tr.slots {
		for _, s := range buf {
			switch s.Name {
			case "op":
				ops++
				opTime += s.dur()
			case "attempt":
				attempts++
				attemptTime += s.dur()
				attemptUS = append(attemptUS, float64(s.dur().Nanoseconds())/1e3)
				if s.Tag != "" {
					aborted++
					reasons[s.Tag]++
				}
				if s.Dist {
					distributed++
				}
			}
		}
	}
	m := map[string]float64{}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["chiller.attempts_per_op"] = frac(float64(attempts), float64(ops))
	// An op's self time, its duration minus its attempts', is the retry
	// layer's backoff wait.
	m["chiller.backoff_frac"] = frac(float64(opTime-attemptTime), float64(opTime))
	m["core.attempt_p50_us"] = latencies(attemptUS).quantile(0.50)
	m["core.attempt_p99_us"] = latencies(attemptUS).quantile(0.99)
	m["core.abort_frac"] = frac(float64(aborted), float64(attempts))
	m["core.distributed_frac"] = frac(float64(distributed), float64(attempts))
	for _, r := range abortReasons {
		m["core.abort."+r] = frac(float64(reasons[r]), float64(attempts))
	}
	return m
}

// write stores every span as a gzipped Chrome trace-event file: a
// JSON array with one event per line.
func (tr *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	sep := "["
	emit := func(tid int, s span) {
		if err != nil {
			return
		}
		if _, err = io.WriteString(zw, sep); err != nil {
			return
		}
		sep = ","
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Tag != "" {
			args["tag"] = s.Tag
		}
		err = enc.Encode(event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: tid, Args: args})
	}
	for tid, buf := range tr.slots {
		for _, s := range buf {
			emit(tid, s)
		}
	}
	for _, s := range tr.probes {
		emit(len(tr.slots), s)
	}
	if err == nil {
		_, err = io.WriteString(zw, "]\n")
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runtimeSample is the Go runtime's view of this process at one point.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// tracedRun measures half the window untraced, then half traced with
// spans, a CPU profile and a loaded simnet ping, checks the outputs,
// runs the layer probes and reports the per-layer metrics.
func tracedRun(o options, dep deployment, slots int, window time.Duration, runDir string, rec *record) (result, error) {
	half := window / 2
	noop := func() error { return nil }
	plain, err := drive(dep, slots, half, nil, noop, o.seed)
	if err != nil {
		return result{}, err
	}

	tr := newTracer(slots)
	side, err := newSimPair()
	if err != nil {
		return result{}, err
	}
	defer side.close()
	profPath := filepath.Join(runDir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	defer prof.Close()
	var (
		rt0       runtimeSample
		loaded    []float64
		stopPing  = make(chan struct{})
		pingDone  = make(chan struct{})
		profiling bool
	)
	traced, err := drive(dep, slots, half, tr, func() error {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
		profiling = true
		rt0 = sampleRuntime()
		tr.on.Store(true)
		go func() {
			defer close(pingDone)
			loaded = side.pingUntil(stopPing)
		}()
		return nil
	}, o.seed+1)
	if profiling {
		pprof.StopCPUProfile()
		close(stopPing)
		<-pingDone
	}
	if err != nil {
		return result{}, err
	}
	tr.on.Store(false)
	rt1 := sampleRuntime()

	all := &runStats{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		gens:      append(append([]generator(nil), plain.gens...), traced.gens...),
	}
	res := result{Attempted: all.attempted, Failed: all.failed}
	if err := dep.check(all); err != nil {
		return res, fmt.Errorf("%w: %v", errCheck, err)
	}
	res.Correct = true
	if traced.committed == 0 || plain.committed == 0 {
		return res, fmt.Errorf("no operation committed in the window")
	}

	m := tr.layerMetrics()
	tpsPlain := float64(plain.committed) / plain.elapsed.Seconds()
	tpsTraced := float64(traced.committed) / traced.elapsed.Seconds()
	m["trace.overhead_frac"] = 1 - tpsTraced/tpsPlain
	n := float64(traced.committed)
	m["runtime.allocs_per_op"] = float64(rt1.mallocs-rt0.mallocs) / n
	m["runtime.bytes_per_op"] = float64(rt1.bytes-rt0.bytes) / n
	// The runtime refreshes its CPU classes at each GC; a window without
	// a GC reports none.
	m["runtime.gc_cpu_frac"] = 0
	if d := rt1.allCPU - rt0.allCPU; d > 0 {
		m["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / d
	}
	m["simnet.rtt_loaded_p50_us"] = latencies(loaded).quantile(0.50)
	m["simnet.rtt_loaded_p99_us"] = latencies(loaded).quantile(0.99)
	for k, v := range dep.layer() {
		m[k] = v
	}
	for _, k := range []string{"partition.repartition_ms", "partition.hot_records", "partition.moved"} {
		if _, ok := m[k]; !ok {
			m[k] = 0 // this workload does not exercise the layer
		}
	}
	if err := runProbes(tr, dep.probe(), slots, runDir, m); err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return res, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		m[k] = v
	}
	if err := tr.write(filepath.Join(runDir, "trace.json.gz")); err != nil {
		return res, err
	}

	res.Metrics = map[string]metric{}
	for _, pm := range perLayerMetrics {
		v, ok := m[pm.name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", pm.name)
		}
		res.Metrics[pm.name] = metric{v, pm.unit}
	}
	nrw, nro := traced.samples()
	rec.Samples = map[string]int{"rw": nrw, "ro": nro, "loaded_pings": len(loaded)}
	rec.Window = traced.elapsed.Seconds()
	rec.TracedTPS, rec.UntracedTPS = tpsTraced, tpsPlain
	return res, nil
}
