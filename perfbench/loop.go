package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller"
)

// workload names a deployment recipe; BENCHMARK.json carries the same
// names and reasons. inflight is how many operations each caller keeps
// in flight.
type workload struct {
	name     string
	inflight int
	setup    func(env setupEnv) (deployment, error)
}

var workloads = map[string]workload{
	"tpcc-tcp":      {name: "tpcc-tcp", inflight: tpccInflight, setup: setupTPCC},
	"instacart-sim": {name: "instacart-sim", inflight: icInflight, setup: setupInstacart},
	"bank-snapshot": {name: "bank-snapshot", inflight: bankInflight, setup: setupBank},
}

// slots is the number of operations in flight: nproc callers times the
// workload's per-caller count.
func (w workload) slots() int { return nproc() * w.inflight }

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// setupEnv is what a workload's setup may use.
type setupEnv struct {
	seed    int64
	nodeBin string // chiller-node binary
}

// deployment is one built cluster with its loaded dataset.
type deployment interface {
	db() *chiller.DB
	// gen returns an independent operation generator for one in-flight
	// slot; the same seed yields the same operation sequence.
	gen(seed int64) generator
	// check verifies the outputs after the load has drained, from the
	// generators' acknowledged operations.
	check(st *runStats) error
	// pids lists the processes holding data; 0 is this process.
	pids() []int
	close() error
	// config describes the dataset and deployment for the run record.
	config() map[string]any
	// layer reports per-layer metrics the deployment itself observed.
	layer() map[string]float64
	// probe sizes the storage probe like the workload's largest table.
	probe() probeShape
}

// generator produces one slot's operations and records their outcomes
// for the output check. It is used by one goroutine at a time.
type generator interface {
	next() (proc string, args []int64, readOnly bool)
	done(args []int64, res chiller.Result, err error)
}

// sliceLen is the length of the stretches a window is cut into: the
// end-to-end figures are medians over them, so a disturbed stretch
// (host CPU steal comes in bursts) moves them no more than any other.
// Two seconds keep ten samples beyond the p99 of every operation class.
const sliceLen = 2 * time.Second

// runStats is one driven window.
type runStats struct {
	attempted, failed, committed uint64
	elapsed                      time.Duration
	slices                       []slice
	gens                         []generator
}

// slice is one stretch of the window; latencies are in microseconds.
type slice struct {
	committed uint64
	rw, ro    latencies
}

// perSlice is the median over the window's slices of f.
func (st *runStats) perSlice(f func(s slice) float64) float64 {
	v := make([]float64, len(st.slices))
	for i, s := range st.slices {
		v[i] = f(s)
	}
	return median(v)
}

// sliceSeconds is each slice's length in seconds.
func (st *runStats) sliceSeconds() float64 {
	return st.elapsed.Seconds() / float64(len(st.slices))
}

func (st *runStats) samples() (rw, ro int) {
	for _, s := range st.slices {
		rw += len(s.rw)
		ro += len(s.ro)
	}
	return rw, ro
}

type slotStats struct {
	attempted, failed uint64
	slices            []slice
}

// drive runs the closed loop with slots operations in flight, a
// warm-up, then the measured window.
// Operations completing inside the window count towards throughput and
// latency; every operation counts towards attempted/failed. onStart runs
// just before the window opens; tr, when set, records spans. Slot i's
// generator is seeded from seed and i.
func drive(dep deployment, slots int, window time.Duration, tr *tracer, onStart func() error, seed int64) (*runStats, error) {
	const (
		warming int32 = iota
		measuring
		stopping
	)
	var (
		phase atomic.Int32
		start atomic.Int64 // window start, UnixNano
	)
	nSlices := max(int(window/sliceLen), 1)
	sliceDur := window / time.Duration(nSlices)
	stats := make([]slotStats, slots)
	gens := make([]generator, slots)
	db := dep.db()
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		gens[i] = dep.gen(seed<<20 + int64(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, s := gens[i], &stats[i]
			s.slices = make([]slice, nSlices)
			for phase.Load() != stopping {
				proc, args, ro := g.next()
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				var (
					res chiller.Result
					err error
				)
				if tr != nil {
					res, err = tr.execute(ctx, db, i, t0, proc, args)
				} else {
					res, err = db.ExecuteWithRetry(ctx, chiller.Retry{}, proc, args...)
				}
				cancel()
				lat := time.Since(t0)
				g.done(args, res, err)
				s.attempted++
				if err != nil {
					s.failed++
				}
				if phase.Load() != measuring {
					continue
				}
				sl := &s.slices[min(int((time.Now().UnixNano()-start.Load())/int64(sliceDur)), nSlices-1)]
				if err == nil {
					sl.committed++
				}
				us := float64(lat.Nanoseconds()) / 1e3
				if ro {
					sl.ro = append(sl.ro, us)
				} else {
					sl.rw = append(sl.rw, us)
				}
			}
		}(i)
	}
	time.Sleep(warmup)
	if err := onStart(); err != nil {
		phase.Store(stopping)
		wg.Wait()
		return nil, err
	}
	t0 := time.Now()
	start.Store(t0.UnixNano())
	phase.Store(measuring)
	time.Sleep(window)
	phase.Store(stopping)
	elapsed := time.Since(t0)
	wg.Wait()

	st := &runStats{elapsed: elapsed, gens: gens, slices: make([]slice, nSlices)}
	for i := range stats {
		s := &stats[i]
		st.attempted += s.attempted
		st.failed += s.failed
		for j, sl := range s.slices {
			st.committed += sl.committed
			st.slices[j].committed += sl.committed
			st.slices[j].rw = append(st.slices[j].rw, sl.rw...)
			st.slices[j].ro = append(st.slices[j].ro, sl.ro...)
		}
	}
	return st, nil
}
