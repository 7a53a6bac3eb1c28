package chiller

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cc/occ"
	"github.com/chillerdb/chiller/internal/cc/twopl"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/history"
	"github.com/chillerdb/chiller/internal/partition/chillerpart"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

// DB is a Chiller deployment handle: by default an embedded simulated
// multi-partition cluster with one coordinator engine per node, or —
// with WithTransport(TransportTCP) — a coordinator-only client joined
// to a cluster of chiller-node processes, executing registered stored
// procedures either way. It is the one supported way to embed the
// system; the internal packages carry no compatibility promise.
//
// A DB is safe for concurrent use. Execute calls may run from any number
// of goroutines; each is an independent coordinator.
type DB struct {
	cfg      config
	net      *simfab.Network // simulated fabric; nil over TransportTCP
	fab      *tcpnet.Fabric  // TCP client fabric; nil over TransportSim
	topo     *cluster.Topology
	dir      *cluster.Directory
	registry *txn.Registry
	// nodes and engines are copy-on-write: AddNode swaps in a longer
	// slice while Execute and the tooling paths read the old one
	// lock-free, so cluster growth never stalls in-flight transactions.
	nodes   atomic.Pointer[[]*server.Node]
	engines atomic.Pointer[[]cc.Engine]
	sampler *stats.Sampler
	clock   *storage.Clock // MVCC commit clock; nil without WithMVCC
	wals    []*wal.Log     // per-node write-ahead logs; empty without WithDurability
	// recovered reports that Open found durable state under the
	// WithDurability dir and replayed it into the stores; Load then
	// yields to recovered values instead of overwriting them.
	recovered bool

	next   atomic.Uint64 // round-robin coordinator choice
	closed atomic.Bool
	mu     sync.Mutex // serializes Close, Repartition, and membership changes

	stopBg chan struct{}  // closed by Close to stop background loops
	bg     sync.WaitGroup // MVCC GC + auto-repartition goroutines
}

// nodeList returns the current node slice. The slice is immutable once
// published; callers may iterate it without holding db.mu.
func (db *DB) nodeList() []*server.Node { return *db.nodes.Load() }

// engineList returns the current engine slice (same publication rules
// as nodeList).
func (db *DB) engineList() []cc.Engine { return *db.engines.Load() }

// Open assembles a cluster and returns the embedded database handle.
// With no options it is a single-partition, single-replica deployment of
// the Chiller engine with a hash partitioner and 5µs simulated one-way
// latency.
//
//	db, err := chiller.Open(
//		chiller.WithPartitions(4),
//		chiller.WithReplication(2),
//		chiller.WithEngine(chiller.EngineChiller),
//	)
//
// With WithTransport(TransportTCP) the handle instead joins a running
// cluster of chiller-node processes as a coordinator-only client:
//
//	db, err := chiller.Open(
//		chiller.WithTransport(chiller.TransportTCP),
//		chiller.WithPeers("127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"),
//		chiller.WithReplication(2), // must match the nodes
//	)
//
// The caller owns the handle and must Close it; Close drains in-flight
// background commit work before tearing the fabric down, so a returned
// Close means the cluster is quiesced.
func Open(opts ...Option) (*DB, error) {
	cfg := config{
		partitions:  1,
		replication: 1,
		latency:     5 * time.Microsecond,
		engine:      EngineChiller,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.lanes <= 0 {
		cfg.lanes = cluster.DefaultLanes()
	}
	if cfg.transport == "" {
		cfg.transport = TransportSim
	}
	switch cfg.transport {
	case TransportSim:
		if len(cfg.peers) > 0 {
			return nil, fmt.Errorf("chiller: WithPeers requires WithTransport(TransportTCP): %w", ErrBadConfig)
		}
		if cfg.listenAddr != "" {
			return nil, fmt.Errorf("chiller: WithListenAddr requires WithTransport(TransportTCP): %w", ErrBadConfig)
		}
	case TransportTCP:
		if len(cfg.peers) == 0 {
			return nil, fmt.Errorf("chiller: WithTransport(TransportTCP) requires WithPeers: %w", ErrBadConfig)
		}
		if len(cfg.simOnly) > 0 {
			return nil, fmt.Errorf("chiller: %s is simulation-only and cannot combine with WithTransport(TransportTCP): %w",
				cfg.simOnly[0], ErrBadConfig)
		}
		// One partition per node process; the client owns none of them.
		cfg.partitions = len(cfg.peers)
	}
	switch p := cfg.partitioner.(type) {
	case nil:
		cfg.partitioner = cluster.HashPartitioner{N: cfg.partitions}
	case rangePartitioner:
		p.n = cfg.partitions
		cfg.partitioner = p
	}

	if cfg.fsync != (FsyncPolicy{}) && cfg.walDir == "" {
		return nil, fmt.Errorf("chiller: WithFsyncPolicy requires WithDurability: %w", ErrBadConfig)
	}
	if cfg.autoRepartition > 0 && cfg.sampleRate <= 0 {
		return nil, fmt.Errorf("chiller: WithAutoRepartition requires WithSampling: %w", ErrBadConfig)
	}

	if cfg.transport == TransportTCP {
		return openTCP(cfg)
	}

	net := simfab.New(simfab.Config{
		Latency: cfg.latency,
		Jitter:  cfg.jitter,
		Seed:    cfg.seed,
	})
	topo := cluster.NewTopology(cfg.partitions, cfg.replication)
	dir := cluster.NewDirectory(topo, cfg.partitioner)
	dir.SetLanes(cfg.lanes) // before node construction: nodes size their lane executors from the directory

	db := &DB{
		cfg:      cfg,
		net:      net,
		topo:     topo,
		dir:      dir,
		registry: txn.NewRegistry(),
	}
	if cfg.sampleRate > 0 {
		db.sampler = stats.NewSampler(cfg.sampleRate, cfg.seed+1)
	}
	if cfg.mvcc {
		// One commit clock shared by every node: timestamps are reserved
		// at commit points and released once a transaction's applies have
		// landed cluster-wide, so the clock's stable watermark is a
		// consistent snapshot boundary for the whole deployment.
		db.clock = storage.NewClock()
	}
	var nodes []*server.Node
	for p := 0; p < cfg.partitions; p++ {
		node := server.New(net.Endpoint(simfab.NodeID(p)), storage.NewStore(),
			db.registry, dir, cluster.PartitionID(p))
		if db.sampler != nil {
			node.SetSampler(db.sampler)
		}
		if db.clock != nil {
			// Before WAL recovery: SetClock flips the store to versioned
			// records, so replay rebuilds version chains at their logged
			// commit timestamps.
			node.SetClock(db.clock)
		}
		if cfg.walDir != "" {
			// Recover-then-attach before the node registers verbs: any
			// state a previous incarnation logged is back in the store
			// before the first message can arrive.
			l, rec, err := wal.Recover(filepath.Join(cfg.walDir, fmt.Sprintf("node-%d", p)), cfg.lanes, wal.Policy{
				FlushInterval: cfg.fsync.FlushInterval,
				FlushBytes:    cfg.fsync.FlushBytes,
				NoSync:        cfg.fsync.NoSync,
				SnapshotBytes: cfg.fsync.SnapshotBytes,
			})
			if err == nil && !rec.Empty() {
				db.recovered = true
				var maxTS uint64
				if maxTS, err = server.RecoverStore(node.Store(), rec); err != nil {
					l.Close()
				} else if db.clock != nil {
					db.clock.AdvanceTo(maxTS)
				}
			}
			if err != nil {
				for _, l := range db.wals {
					l.Close()
				}
				net.Close()
				return nil, fmt.Errorf("chiller: durability for node %d: %w", p, err)
			}
			db.wals = append(db.wals, l)
			node.SetWAL(l)
		}
		occ.RegisterVerbs(node)
		core.RegisterVerbs(node)
		nodes = append(nodes, node)
	}
	var engines []cc.Engine
	for _, n := range nodes {
		engines = append(engines, db.buildEngine(n))
	}
	db.nodes.Store(&nodes)
	db.engines.Store(&engines)
	db.stopBg = make(chan struct{})
	if cfg.mvcc {
		db.bg.Add(1)
		go db.mvccGCLoop()
	}
	if cfg.autoRepartition > 0 {
		db.bg.Add(1)
		go db.autoRepartitionLoop()
	}
	return db, nil
}

// buildEngine constructs the configured concurrency-control engine for a
// node, wrapped in the history recorder when one was requested.
func (db *DB) buildEngine(n *server.Node) cc.Engine {
	var eng cc.Engine
	switch db.cfg.engine {
	case Engine2PL:
		eng = twopl.New(n)
	case EngineOCC:
		eng = occ.New(n)
	default:
		chillerEng := core.New(n)
		chillerEng.SetVerbBatching(db.cfg.verbBatching)
		eng = chillerEng
	}
	if db.cfg.recorder != nil {
		// WithHistoryRecorder: record every Run outcome at the
		// engine boundary (reads observed, writes installed).
		eng = history.Engine(eng, db.registry, db.cfg.recorder)
	}
	return eng
}

// openTCP joins a chiller-node cluster as a coordinator-only client:
// the DB takes node ID len(peers) (outside the data topology) and a
// partition no node primaries, so every locality check in the
// coordination paths resolves to a remote verb over the socket. The
// client adopts the nodes' layout once, here: partition placement, peer
// addresses and the hot lookup table, so transactions touching hot
// records take the two-region path and are routed to their inner host.
// The registry must mirror the nodes' — Register the same procedures
// the nodes registered before Execute.
func openTCP(cfg config) (*DB, error) {
	fab, err := tcpnet.New(tcpnet.Config{
		ID:         transport.NodeID(len(cfg.peers)),
		ListenAddr: cfg.listenAddr,
	})
	if err != nil {
		return nil, fmt.Errorf("chiller: tcp client fabric: %w", err)
	}
	addrs := make(map[transport.NodeID]string, len(cfg.peers))
	for i, addr := range cfg.peers {
		addrs[transport.NodeID(i)] = addr
	}
	fab.SetPeers(addrs)

	ids := make([]transport.NodeID, len(cfg.peers))
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	layout, err := server.FetchTopo(fab, ids...)
	if err == nil && len(layout.Parts) != cfg.partitions {
		err = fmt.Errorf("%d peers but the cluster has %d partitions: %w", cfg.partitions, len(layout.Parts), ErrBadConfig)
	}
	if err != nil {
		fab.Close()
		if errors.Is(err, transport.ErrUnreachable) {
			err = fmt.Errorf("%w: %w", ErrUnreachable, err)
		}
		return nil, fmt.Errorf("chiller: adopt cluster layout: %w", err)
	}
	topo := cluster.NewTopology(cfg.partitions, cfg.replication)
	dir := cluster.NewDirectory(topo, cfg.partitioner)
	dir.SetLanes(cfg.lanes)
	layout.Adopt(fab, dir)

	db := &DB{
		cfg:      cfg,
		fab:      fab,
		topo:     topo,
		dir:      dir,
		registry: txn.NewRegistry(),
	}
	node := server.New(fab, storage.NewStore(), db.registry, dir, cluster.PartitionID(-1))
	occ.RegisterVerbs(node)
	core.RegisterVerbs(node)
	nodes := []*server.Node{node}
	engines := []cc.Engine{db.buildEngine(node)}
	db.nodes.Store(&nodes)
	db.engines.Store(&engines)
	db.stopBg = make(chan struct{})
	return db, nil
}

// unsupported returns the typed rejection for store-touching methods on
// a TCP-client DB (nil on the embedded simulated deployment, where the
// stores are in-process).
func (db *DB) unsupported(op string) error {
	if db.fab != nil {
		return fmt.Errorf("chiller: %s over tcp: %w", op, ErrUnsupported)
	}
	return nil
}

// Close quiesces and tears the cluster down: every engine's outstanding
// background commit work is drained first (so no async commit tail hits
// a closed fabric and no lock outlives the handle), then the fabric and
// the nodes' lane executors stop. Close is idempotent; after it every
// other method returns ErrClosed.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	// Stop the background loops before taking db.mu: the auto-repartition
	// loop acquires db.mu inside Repartition, so waiting for it while
	// holding the lock would deadlock.
	close(db.stopBg)
	db.bg.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.drain()
	if db.net != nil {
		db.net.Close()
	}
	if db.fab != nil {
		db.fab.Close()
	}
	for _, n := range db.nodeList() {
		n.Close()
	}
	// WALs close last: the nodes' lane executors have drained, so every
	// logged record is flushed before the files are released.
	var err error
	for _, l := range db.wals {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Partitions returns the partition count the DB was opened with.
func (db *DB) Partitions() int { return db.cfg.partitions }

// CreateTable creates a table on every node with the given bucket count
// (buckets are the unit of locking; size generously for hot tables).
// Create all tables before loading or executing.
func (db *DB) CreateTable(t Table, buckets int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("CreateTable"); err != nil {
		return err
	}
	for _, n := range db.nodeList() {
		n.Store().CreateTable(storage.TableID(t), buckets)
	}
	return nil
}

// Register validates and registers a stored procedure on every node.
func (db *DB) Register(p *Proc) error {
	if db.closed.Load() {
		return ErrClosed
	}
	proc, err := p.build()
	if err != nil {
		return err
	}
	return db.registry.Register(proc)
}

// Load inserts a record directly, bypassing transaction execution: it
// routes by the current directory state and writes the primary and every
// replica copy. Use it for initial data loading, before traffic.
//
// On a DB recovered from a WithDurability dir, Load yields to recovery:
// a key the replayed log already holds keeps its recovered value (which
// reflects committed transactions, strictly newer than initial data),
// so restart code can rerun its loading phase unconditionally.
func (db *DB) Load(t Table, key Key, value []byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("Load"); err != nil {
		return err
	}
	rid := storage.RID{Table: storage.TableID(t), Key: storage.Key(key)}
	pid := db.dir.Partition(rid)
	// No defensive copy needed: the store copies the value into fresh
	// immutable storage on every Insert, so the caller's buffer is never
	// aliased and may be reused immediately.
	nodes := db.nodeList()
	targets := append([]simfab.NodeID{db.topo.Primary(pid)}, db.topo.Replicas(pid)...)
	for _, target := range targets {
		tbl := nodes[int(target)].Store().Table(rid.Table)
		if tbl == nil {
			return fmt.Errorf("chiller: load into missing table %d (CreateTable first)", t)
		}
		if db.recovered {
			if _, _, err := tbl.Bucket(rid.Key).Get(rid.Key); err == nil {
				continue
			}
		}
		if err := tbl.Bucket(rid.Key).Insert(rid.Key, value); err != nil {
			return fmt.Errorf("chiller: load %d/%d: %w", t, key, err)
		}
	}
	return nil
}

// drain joins every engine's outstanding background commit work (async
// commit tails), after which the cluster's lock state is stable.
func (db *DB) drain() {
	for _, e := range db.engineList() {
		if d, ok := e.(cc.Drainer); ok {
			d.Drain()
		}
	}
}

// Get reads a record's current value from its primary store, outside
// any transaction — a point-in-time peek for tooling and tests, not a
// consistent read (use a Read op in a procedure for that). Background
// commit tails of already-committed transactions are drained first, so
// a Get after a committed Execute observes that transaction's writes.
func (db *DB) Get(t Table, key Key) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := db.unsupported("Get"); err != nil {
		return nil, err
	}
	db.drain()
	rid := storage.RID{Table: storage.TableID(t), Key: storage.Key(key)}
	tbl := db.nodeList()[int(db.topo.Primary(db.dir.Partition(rid)))].Store().Table(rid.Table)
	if tbl == nil {
		return nil, fmt.Errorf("chiller: table %d: %w", t, ErrNotFound)
	}
	v, _, err := tbl.Bucket(rid.Key).Get(rid.Key)
	if err != nil {
		return nil, fmt.Errorf("chiller: get %d/%d: %w", t, key, ErrNotFound)
	}
	// Copy out: the store's value buffers are shared with concurrent
	// readers and replicas; handing one to the caller would let writes
	// through the returned slice corrupt the database.
	return append([]byte(nil), v...), nil
}

// Result reports a committed transaction's outcome.
type Result struct {
	// Distributed reports whether the transaction touched more than one
	// partition.
	Distributed bool

	reads txn.ReadSet
}

// Read returns a copy of the value read by the operation with the
// given ID (Op.ID), ok=false if the op read nothing.
func (r Result) Read(opID int) (val []byte, ok bool) {
	v, ok := r.reads[opID]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Execute runs one transaction of the named registered procedure to a
// single commit-or-abort outcome; it does not retry (see
// ExecuteWithRetry). On commit the error is nil. On abort the error
// wraps the typed taxonomy — errors.Is(err, ErrAborted) is true, along
// with the specific reason sentinel (ErrLockConflict, ErrConstraint,
// ErrNotFound, ...).
//
// ctx cancellation or deadline expiry aborts the transaction cleanly at
// the next protocol boundary before its commit point: all locks it
// acquired are released and the error wraps ctx.Err(). A ctx that is
// already done returns before any network verb is issued. Once a
// transaction passes its commit point it completes regardless of ctx.
func (db *DB) Execute(ctx context.Context, proc string, args ...int64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("chiller: %s not started: %w", proc, err)
	}
	if db.closed.Load() {
		return Result{}, ErrClosed
	}
	if db.registry.Lookup(proc) == nil {
		return Result{}, fmt.Errorf("chiller: %q: %w", proc, ErrUnknownProc)
	}
	engines := db.engineList()
	engine := engines[int(db.next.Add(1)%uint64(len(engines)))]
	res := engine.Run(ctx, &txn.Request{Proc: proc, Args: txn.Args(args)})
	if !res.Committed {
		return Result{Distributed: res.Distributed}, abortError(ctx, proc, res)
	}
	return Result{Distributed: res.Distributed, reads: res.Reads}, nil
}

// MarkHot adds the record to the hot lookup table at its current home
// partition, enabling the two-region execution path for transactions
// touching it. Equivalent to what Repartition derives from sampled
// statistics, for workloads that know their celebrities up front.
func (db *DB) MarkHot(t Table, key Key) error {
	return db.MarkHotWeight(t, key, 1)
}

// MarkHotWeight is MarkHot with an explicit contention weight: when a
// transaction touches several hot records on different partitions, the
// engine places its inner region on the partition carrying the most
// contention mass.
func (db *DB) MarkHotWeight(t Table, key Key, weight float64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("MarkHot"); err != nil {
		return err
	}
	if weight <= 0 {
		return fmt.Errorf("chiller: hot weight %v must be positive", weight)
	}
	rid := storage.RID{Table: storage.TableID(t), Key: storage.Key(key)}
	db.dir.SetHotWeight(rid, db.dir.Partition(rid), weight)
	return nil
}

// RepartitionReport summarizes one Repartition pass.
type RepartitionReport struct {
	// SampledTxns is the number of transaction samples consumed.
	SampledTxns int
	// HotRecords is the number of records whose contention likelihood
	// crossed the threshold and earned a lookup-table entry.
	HotRecords int
	// Moved is the number of hot records physically relocated to a new
	// home partition.
	Moved int
	// LookupTableSize is the routing-metadata size after the pass.
	LookupTableSize int
}

// Repartition runs the contention-centric partitioner (§4.2-4.4 of the
// paper) over the access samples collected since the last pass: records
// whose contention likelihood crosses the threshold are placed — and
// physically moved — so transactions co-locate with their contended
// data, and the hot lookup table is rewritten. Requires WithSampling.
//
// Call it from a maintenance window: in-flight transactions racing a
// repartition pass may abort against moving records. ctx is consulted
// between phases; a cancelled pass leaves the previous layout intact.
func (db *DB) Repartition(ctx context.Context) (RepartitionReport, error) {
	if db.closed.Load() {
		return RepartitionReport{}, ErrClosed
	}
	if err := db.unsupported("Repartition"); err != nil {
		return RepartitionReport{}, err
	}
	if db.sampler == nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition needs sampling: Open with WithSampling")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
	}

	samples := db.sampler.Drain()
	if len(samples) == 0 {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: no samples collected yet")
	}
	agg := stats.NewAggregate()
	agg.Add(samples)
	// Lock windows: treat the sampling frame as ~5 samples per window,
	// the same heuristic the benchmark harness uses.
	agg.Finalize(db.cfg.sampleRate, float64(len(samples))/5)

	res, err := chillerpart.Partition(agg, chillerpart.Config{
		K:     db.cfg.partitions,
		Lanes: db.cfg.lanes,
		Seed:  db.cfg.seed,
	})
	if err != nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
	}

	// Relocate hot records whose new home differs from their current
	// partition. The pass must not lose writes racing it: for each
	// moving record the old primary bucket's lock word is held
	// exclusively across the whole move, so concurrent writers hit a
	// NO_WAIT conflict and retry instead of committing into the copy
	// window; the value is re-read under that lock, the copies land at
	// the new home BEFORE the layout flips routing to it, and the old
	// copies are deleted only after the flip. Load-time replicas of
	// unmoved records are untouched.
	type move struct {
		rid      storage.RID
		val      []byte
		from, to cluster.PartitionID
	}
	nodes := db.nodeList()
	locked := map[*storage.Bucket]bool{}
	unlockAll := func() {
		for b := range locked {
			b.Lock.Unlock(storage.LockExclusive)
		}
	}
	var moves []move
	for rid, newPID := range res.Layout.Hot {
		oldPID := db.dir.Partition(rid)
		if oldPID == newPID {
			continue
		}
		tbl := nodes[int(db.topo.Primary(oldPID))].Store().Table(rid.Table)
		if tbl == nil {
			continue
		}
		b := tbl.Bucket(rid.Key)
		// Two hot records can share a bucket; lock each bucket once.
		for !locked[b] {
			if !b.Lock.TryLock(storage.LockExclusive) {
				if err := ctx.Err(); err != nil {
					unlockAll()
					return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
				}
				time.Sleep(2 * time.Microsecond)
				continue
			}
			locked[b] = true
		}
		v, _, err := b.Get(rid.Key)
		if err != nil {
			continue // sampled but since deleted
		}
		moves = append(moves, move{rid: rid, val: v, from: oldPID, to: newPID})
	}
	// Copies first: a transaction routed by the new layout the instant
	// it installs must find its record already at the new home.
	holds := make([]map[simfab.NodeID]bool, len(moves))
	for i, m := range moves {
		holds[i] = make(map[simfab.NodeID]bool)
		for _, target := range append([]simfab.NodeID{db.topo.Primary(m.to)}, db.topo.Replicas(m.to)...) {
			if tbl := nodes[int(target)].Store().Table(m.rid.Table); tbl != nil {
				tbl.Bucket(m.rid.Key).Upsert(m.rid.Key, m.val)
				holds[i][target] = true
			}
		}
	}
	res.Layout.Install(db.dir)
	for i, m := range moves {
		// With few nodes the old and new homes may share physical
		// machines (a node primaries one partition and replicates
		// another); delete only from nodes that hold no copy under the
		// new placement.
		for _, target := range append([]simfab.NodeID{db.topo.Primary(m.from)}, db.topo.Replicas(m.from)...) {
			if holds[i][target] {
				continue
			}
			if tbl := nodes[int(target)].Store().Table(m.rid.Table); tbl != nil {
				_ = tbl.Bucket(m.rid.Key).Delete(m.rid.Key)
			}
		}
	}
	unlockAll()

	return RepartitionReport{
		SampledTxns:     len(samples),
		HotRecords:      len(res.Layout.Hot),
		Moved:           len(moves),
		LookupTableSize: db.dir.LookupTableSize(),
	}, nil
}

// MVCC garbage collection cadence: the watermark trails the clock's
// stable point by gcRetention timestamps so in-flight snapshot readers
// keep their versions, and advances every gcInterval so version chains
// stay bounded under long-running write workloads.
const (
	gcRetention = 1024
	gcInterval  = 5 * time.Millisecond
)

// mvccGCLoop periodically raises every store's MVCC GC watermark to the
// commit clock's stable point minus a retention window. Without it the
// watermark only moved during WAL recovery, so version chains grew
// without bound for the lifetime of the process.
func (db *DB) mvccGCLoop() {
	defer db.bg.Done()
	t := time.NewTicker(gcInterval)
	defer t.Stop()
	for {
		select {
		case <-db.stopBg:
			return
		case <-t.C:
			if w := db.clock.Stable(); w > gcRetention {
				for _, n := range db.nodeList() {
					n.Store().SetWatermark(w - gcRetention)
				}
			}
		}
	}
}

// autoRepartitionLoop runs a Repartition pass every WithAutoRepartition
// interval. Passes are best-effort: one with no fresh samples (or one
// racing Close) is skipped, not fatal.
func (db *DB) autoRepartitionLoop() {
	defer db.bg.Done()
	t := time.NewTicker(db.cfg.autoRepartition)
	defer t.Stop()
	for {
		select {
		case <-db.stopBg:
			return
		case <-t.C:
			_, _ = db.Repartition(context.Background())
		}
	}
}

// AddNode grows the simulated cluster by one node and returns its ID.
// The node starts empty — it primaries no partition — but is a full
// cluster member: it mirrors the existing schema, joins the fabric, and
// contributes a coordinator engine to Execute's round-robin. Hand it
// data with MovePartition. Traffic keeps flowing during the call;
// nothing is quiesced.
func (db *DB) AddNode() (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.unsupported("AddNode"); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	nodes := db.nodeList()
	id := len(nodes)
	st := storage.NewStore()
	node := server.New(db.net.Endpoint(simfab.NodeID(id)), st,
		db.registry, db.dir, cluster.PartitionID(-1))
	if db.sampler != nil {
		node.SetSampler(db.sampler)
	}
	if db.clock != nil {
		node.SetClock(db.clock)
	}
	// Mirror the existing schema so handed-off ranges land in real
	// tables with matching bucket counts rather than the tolerant
	// replica-apply defaults.
	if len(nodes) > 0 {
		src := nodes[0].Store()
		for _, tid := range src.Tables() {
			if tbl := src.Table(tid); tbl != nil {
				st.CreateTable(tid, tbl.NumBuckets())
			}
		}
	}
	if db.cfg.walDir != "" {
		l, rec, err := wal.Recover(filepath.Join(db.cfg.walDir, fmt.Sprintf("node-%d", id)), db.cfg.lanes, wal.Policy{
			FlushInterval: db.cfg.fsync.FlushInterval,
			FlushBytes:    db.cfg.fsync.FlushBytes,
			NoSync:        db.cfg.fsync.NoSync,
			SnapshotBytes: db.cfg.fsync.SnapshotBytes,
		})
		if err == nil && !rec.Empty() {
			var maxTS uint64
			if maxTS, err = server.RecoverStore(st, rec); err != nil {
				l.Close()
			} else if db.clock != nil {
				db.clock.AdvanceTo(maxTS)
			}
		}
		if err != nil {
			node.Close()
			return 0, fmt.Errorf("chiller: durability for node %d: %w", id, err)
		}
		db.wals = append(db.wals, l)
		node.SetWAL(l)
	}
	occ.RegisterVerbs(node)
	core.RegisterVerbs(node)
	grown := append(append([]*server.Node(nil), nodes...), node)
	db.nodes.Store(&grown)
	engines := append(append([]cc.Engine(nil), db.engineList()...), db.buildEngine(node))
	db.engines.Store(&engines)
	return id, nil
}

// MovePartition hands primary ownership of partition p to the given
// node via the incremental handoff protocol (see docs/ELASTICITY.md):
// the target warms up on the live replication stream while a backfill
// copies the partition's records behind it, then a brief per-partition
// fence drains pinned transactions and flips the routing. Transactions
// caught mid-flight abort with ErrMoved and succeed on retry against
// the new primary; no other partition is disturbed.
func (db *DB) MovePartition(p int, node int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("MovePartition"); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	nodes := db.nodeList()
	if p < 0 || p >= db.cfg.partitions {
		return fmt.Errorf("chiller: no partition %d: %w", p, ErrBadConfig)
	}
	if node < 0 || node >= len(nodes) {
		return fmt.Errorf("chiller: no node %d: %w", node, ErrBadConfig)
	}
	pid := cluster.PartitionID(p)
	from := db.topo.Primary(pid)
	if int(from) == node {
		return nil
	}
	if err := nodes[int(from)].HandoffPartition(pid, transport.NodeID(node)); err != nil {
		return fmt.Errorf("chiller: move partition %d: %w", p, err)
	}
	// Trim back to the configured replication degree. The demoted old
	// primary sits in the last replica slot (the join appends the
	// warming node, then the promotion swaps the old primary into the
	// promoted node's slot), so dropping from the tail frees the old
	// node first.
	for {
		reps := db.topo.Replicas(pid)
		if len(reps) <= db.cfg.replication-1 {
			return nil
		}
		if err := db.topo.RemoveReplica(pid, reps[len(reps)-1]); err != nil {
			return fmt.Errorf("chiller: move partition %d: trim replicas: %w", p, err)
		}
	}
}

// RemoveNode retires a node from data ownership: every partition it
// primaries is handed off to that partition's first synced replica (no
// backfill needed — the replica already holds the data), and its
// remaining replica slots are dropped. The node object stays alive as
// an empty coordinator so in-flight transactions it started can finish;
// it owns no data afterwards. Fails if a primaried partition has no
// replica to absorb it.
func (db *DB) RemoveNode(id int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("RemoveNode"); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	nodes := db.nodeList()
	if id < 0 || id >= len(nodes) {
		return fmt.Errorf("chiller: no node %d: %w", id, ErrBadConfig)
	}
	nid := transport.NodeID(id)
	for _, part := range db.topo.Snapshot() {
		if part.Primary != nid {
			continue
		}
		reps := db.topo.Replicas(part.ID)
		if len(reps) == 0 {
			return fmt.Errorf("chiller: remove node %d: partition %d has no replica to absorb it: %w",
				id, part.ID, ErrBadConfig)
		}
		if err := nodes[id].HandoffPartition(part.ID, reps[0]); err != nil {
			return fmt.Errorf("chiller: remove node %d: partition %d: %w", id, part.ID, err)
		}
	}
	for _, part := range db.topo.Snapshot() {
		for _, r := range part.Replicas {
			if r == nid {
				if err := db.topo.RemoveReplica(part.ID, nid); err != nil {
					return fmt.Errorf("chiller: remove node %d: %w", id, err)
				}
				break
			}
		}
	}
	return nil
}
