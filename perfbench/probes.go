package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

// The layer probes time calls into each layer's exported functions, in
// this process, with the workload idle. Each probe call is one span.
const (
	// simLatency is chiller.Open's default one-way latency.
	simLatency = 5 * time.Microsecond
	// mvccRetention mirrors chiller's MVCC GC retention (timestamps kept
	// behind the stable point).
	mvccRetention = 1024
	// rttSamples round trips per fabric probe.
	rttSamples = 2000
	// nsIters iterations per nanosecond-scale probe call.
	nsIters    = 200_000
	probeTable = storage.TableID(1)
)

// probeShape sizes the storage probes like the workload's largest table
// and its MVCC chain depth.
type probeShape struct {
	records, buckets, chainDepth int
}

// allocs counts heap allocations made while f runs.
func allocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// timed runs f once as a probe call and returns its duration and the
// allocations it made.
func timed(tr *tracer, name string, f func()) (time.Duration, uint64) {
	var d time.Duration
	n := allocs(func() {
		t0 := time.Now()
		f()
		d = time.Since(t0)
		tr.probe(name, t0)
	})
	return d, n
}

func runProbes(tr *tracer, shape probeShape, slots int, runDir string, m map[string]float64) error {
	probeStorage(tr, shape, m)
	probeCodec(tr, m)
	sim, err := newSimPair()
	if err != nil {
		return err
	}
	err = sim.probe(tr, m)
	sim.close()
	if err != nil {
		return err
	}
	if err := probeTCP(tr, m); err != nil {
		return err
	}
	dir := filepath.Join(runDir, "walprobe")
	defer os.RemoveAll(dir)
	return probeWAL(tr, dir, slots, m)
}

func probeStorage(tr *tracer, shape probeShape, m map[string]float64) {
	st := storage.NewStore()
	tbl := st.CreateTable(probeTable, shape.buckets)
	val := make([]byte, 8)
	d, _ := timed(tr, "storage.load", func() {
		for k := 0; k < shape.records; k++ {
			_ = tbl.Bucket(storage.Key(k)).Insert(storage.Key(k), val)
		}
	})
	m["storage.load_ns_per_record"] = float64(d.Nanoseconds()) / float64(shape.records)

	// Keys visited in a fixed scattered order over the loaded records.
	key := func(i int) storage.Key { return storage.Key((i * 7919) % shape.records) }
	perOp := func(name string, f func(i int)) {
		d, n := timed(tr, name, func() {
			for i := 0; i < nsIters; i++ {
				f(i)
			}
		})
		m[name+"_ns"] = float64(d.Nanoseconds()) / nsIters
		m[name+"_allocs"] = float64(n) / nsIters
	}
	perOp("storage.lock", func(i int) {
		b := tbl.Bucket(key(i))
		if b.Lock.TryLock(storage.LockExclusive) {
			b.Lock.Unlock(storage.LockExclusive)
		}
	})
	perOp("storage.get", func(i int) { _, _, _ = tbl.Bucket(key(i)).Get(key(i)) })
	perOp("storage.put", func(i int) { _ = tbl.Bucket(key(i)).Put(key(i), val) })
	fresh := st.CreateTable(probeTable+1, shape.buckets)
	perOp("storage.insert", func(i int) { _ = fresh.Bucket(storage.Key(i)).Insert(storage.Key(i), val) })

	// Snapshot reads of keys carrying the workload's chain depth.
	mv := storage.NewStore()
	mv.EnableMVCC()
	mt := mv.CreateTable(probeTable, shape.buckets)
	const mvKeys = 256
	var ts uint64
	for k := storage.Key(0); k < mvKeys; k++ {
		ts++
		_ = mt.InsertAt(k, val, ts)
		for v := 1; v < shape.chainDepth; v++ {
			ts++
			_ = mt.PutAt(k, val, ts)
		}
	}
	perOp("storage.mvcc_read", func(i int) { _, _ = mt.ReadAt(storage.Key(i%mvKeys), ts) })
}

func probeCodec(tr *tracer, m map[string]float64) {
	entries := []server.LockEntry{
		{OpID: 0, Table: 1, Key: 11, Mode: storage.LockExclusive, Read: true, MustExist: true},
		{OpID: 1, Table: 1, Key: 12, Mode: storage.LockExclusive, Read: true, MustExist: true},
		{OpID: 2, Table: 1, Key: 13, Mode: storage.LockShared, Read: true, MustExist: true},
	}
	writes := []server.WriteOp{
		{Table: 1, Key: 11, Type: txn.OpUpdate, Value: make([]byte, 32)},
		{Table: 1, Key: 12, Type: txn.OpUpdate, Value: make([]byte, 32)},
	}
	const iters = nsIters / 4
	dl, nl := timed(tr, "server.lock_codec", func() {
		for i := 0; i < iters; i++ {
			_, _, _ = server.DecodeLockRequest(server.EncodeLockRequest(uint64(i), entries))
		}
	})
	dw, nw := timed(tr, "server.writes_codec", func() {
		for i := 0; i < iters; i++ {
			_, _, _, _ = server.DecodeWrites(server.EncodeWrites(uint64(i), uint64(i), writes))
		}
	})
	m["server.lock_codec_ns"] = float64(dl.Nanoseconds()) / iters
	m["server.writes_codec_ns"] = float64(dw.Nanoseconds()) / iters
	m["server.codec_allocs"] = float64(nl+nw) / (2 * iters)
}

// simPair is a side simulated fabric with two server nodes, at the
// default latency, for round-trip, doorbell and lane probes.
type simPair struct {
	net          *simfab.Network
	sender, dest *server.Node
}

func newSimPair() (*simPair, error) {
	net := simfab.New(simfab.Config{Latency: simLatency})
	topo := cluster.NewTopology(2, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 2})
	dir.SetLanes(cluster.DefaultLanes())
	mk := func(id simfab.NodeID) (*server.Node, error) {
		st := storage.NewStore()
		tbl := st.CreateTable(probeTable, 64)
		for k := storage.Key(0); k < 16; k++ {
			if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
				return nil, err
			}
		}
		return server.New(net.Endpoint(id), st, txn.NewRegistry(), dir, cluster.PartitionID(id)), nil
	}
	s, err := mk(0)
	if err != nil {
		net.Close()
		return nil, err
	}
	d, err := mk(1)
	if err != nil {
		net.Close()
		s.Close()
		return nil, err
	}
	return &simPair{net: net, sender: s, dest: d}, nil
}

func (p *simPair) close() {
	p.net.Close()
	p.sender.Close()
	p.dest.Close()
}

// ping is one 64-byte two-sided round trip.
func (p *simPair) ping(payload []byte) (time.Duration, error) {
	t0 := time.Now()
	_, err := p.sender.Endpoint().Call(p.dest.ID(), server.VerbPing, payload)
	return time.Since(t0), err
}

// pingUntil pings with a pause between round trips until stop closes
// and returns the round trips in microseconds; it measures the fabric
// while the workload shares the CPUs.
func (p *simPair) pingUntil(stop <-chan struct{}) []float64 {
	payload := make([]byte, 64)
	var out []float64
	for {
		select {
		case <-stop:
			return out
		default:
		}
		if d, err := p.ping(payload); err == nil {
			out = append(out, float64(d.Nanoseconds())/1e3)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (p *simPair) probe(tr *tracer, m map[string]float64) error {
	payload := make([]byte, 64)
	rtts := make([]float64, 0, rttSamples)
	var perr error
	_, n := timed(tr, "simnet.rtt", func() {
		for i := 0; i < rttSamples && perr == nil; i++ {
			var d time.Duration
			d, perr = p.ping(payload)
			rtts = append(rtts, float64(d.Nanoseconds())/1e3)
		}
	})
	if perr != nil {
		return fmt.Errorf("simnet ping: %w", perr)
	}
	m["simnet.rtt_idle_p50_us"] = latencies(rtts).quantile(0.50)
	m["simnet.rtt_idle_p99_us"] = latencies(rtts).quantile(0.99)
	m["simnet.rtt_allocs"] = float64(n) / rttSamples
	m["simnet.rtt_ratio"] = m["simnet.rtt_idle_p50_us"] / (2 * float64(simLatency.Nanoseconds()) / 1e3)

	// Doorbell: one lock-read frame rung and waited for, then released.
	entries := []server.LockEntry{{OpID: 0, Table: probeTable, Key: 3, Mode: storage.LockShared, Read: true, MustExist: true}}
	bells := make([]float64, 0, rttSamples)
	var posts time.Duration
	_, n = timed(tr, "simnet.doorbell", func() {
		for i := 0; i < rttSamples && perr == nil; i++ {
			txnID := uint64(i + 1)
			t0 := time.Now()
			d := p.sender.NewDoorbell(p.dest.ID())
			d.PostLockRead(txnID, entries)
			posts += time.Since(t0)
			pd := d.Ring()
			_, perr = pd.Wait()
			bells = append(bells, float64(time.Since(t0).Nanoseconds())/1e3)
			pd.Release()
			p.sender.AbortAt(p.dest.ID(), txnID)
		}
	})
	if perr != nil {
		return fmt.Errorf("simnet doorbell: %w", perr)
	}
	m["simnet.doorbell_p50_us"] = latencies(bells).quantile(0.50)
	m["simnet.doorbell_allocs"] = float64(n) / rttSamples
	m["server.doorbell_post_ns"] = float64(posts.Nanoseconds()) / rttSamples

	// Lane hop: from SubmitLane to the closure running on the lane.
	hops := make([]float64, 0, rttSamples)
	ran := make(chan time.Duration)
	_, n = timed(tr, "server.lane_hop", func() {
		for i := 0; i < rttSamples; i++ {
			t0 := time.Now()
			p.dest.SubmitLane(i, func() { ran <- time.Since(t0) })
			hops = append(hops, float64((<-ran).Nanoseconds())/1e3)
		}
	})
	m["server.lane_hop_p50_us"] = latencies(hops).quantile(0.50)
	m["server.lane_hop_allocs"] = float64(n) / rttSamples
	return nil
}

func probeTCP(tr *tracer, m map[string]float64) error {
	a, err := tcpnet.New(tcpnet.Config{ID: 0, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.New(tcpnet.Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	peers := map[transport.NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	echo := func(_ transport.NodeID, req []byte) ([]byte, error) { return req, nil }
	b.Handle("echo", echo)
	b.HandleOneSided("echo", echo)
	// The first call dials; keep it out of the samples.
	if _, err := a.Call(1, "echo", nil); err != nil {
		return fmt.Errorf("tcpnet dial: %w", err)
	}
	series := func(name string, size int, f func([]byte) error) ([]float64, uint64, error) {
		payload := make([]byte, size)
		out := make([]float64, 0, rttSamples)
		var ferr error
		_, n := timed(tr, name, func() {
			for i := 0; i < rttSamples && ferr == nil; i++ {
				t0 := time.Now()
				ferr = f(payload)
				out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		})
		return out, n, ferr
	}
	call := func(p []byte) error { _, err := a.Call(1, "echo", p); return err }
	small, n, err := series("tcpnet.rtt", 64, call)
	if err != nil {
		return err
	}
	m["tcpnet.rtt_p50_us"] = latencies(small).quantile(0.50)
	m["tcpnet.rtt_p99_us"] = latencies(small).quantile(0.99)
	m["tcpnet.allocs_per_call"] = float64(n) / rttSamples
	big, _, err := series("tcpnet.rtt_4k", 4096, call)
	if err != nil {
		return err
	}
	m["tcpnet.rtt_4k_p50_us"] = latencies(big).quantile(0.50)
	bells, n, err := series("tcpnet.doorbell", 64, func(p []byte) error {
		_, err := a.CallOneSided(1, "echo", p, 1)
		return err
	})
	if err != nil {
		return err
	}
	m["tcpnet.doorbell_p50_us"] = latencies(bells).quantile(0.50)
	m["tcpnet.doorbell_allocs"] = float64(n) / rttSamples
	return nil
}

// probeWAL measures group commit the way tpcc-tcp's nodes use it: the
// node's default policy (200us flush interval, fsync), on the
// filesystem that holds the benchmark's run directories, with as many
// concurrent committers as the workload keeps in flight.
func probeWAL(tr *tracer, dir string, committers int, m map[string]float64) error {
	l, err := wal.Open(dir, cluster.DefaultLanes(), wal.Policy{})
	if err != nil {
		return err
	}
	const perCommitter = 100
	payload := make([]byte, 256)
	waits := make([][]float64, committers)
	errs := make([]error, committers)
	_, n := timed(tr, "wal.commit", func() {
		var wg sync.WaitGroup
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perCommitter && errs[c] == nil; i++ {
					t0 := time.Now()
					errs[c] = l.Append(c, 1, payload).Wait()
					waits[c] = append(waits[c], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}(c)
		}
		wg.Wait()
	})
	st := l.Stats()
	appends, flushes := st.Appends.Load(), st.Flushes.Load()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("wal commit: %w", e)
		}
	}
	if err != nil {
		return err
	}
	var all []float64
	for _, w := range waits {
		all = append(all, w...)
	}
	m["wal.commit_wait_p50_us"] = latencies(all).quantile(0.50)
	m["wal.commit_wait_p99_us"] = latencies(all).quantile(0.99)
	m["wal.commit_allocs"] = float64(n) / float64(len(all))
	if flushes > 0 {
		m["wal.appends_per_flush"] = float64(appends) / float64(flushes)
	}
	return nil
}
