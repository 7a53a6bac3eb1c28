package chiller

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cc/occ"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

const tcpAccounts Table = 1

func tcpEnc(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func tcpDec(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// tcpTransferProc builds the bank.transfer(src, dst, amount) procedure
// used on both sides of the wire (nodes and client must register
// identical procedures; they are not shipped over the network).
func tcpTransferProc() *Proc {
	p := NewProc("bank.transfer")
	p.Update(tcpAccounts, Arg(0), func(old []byte, args Args, _ Reads) ([]byte, error) {
		if tcpDec(old) < args[2] {
			return nil, fmt.Errorf("insufficient funds")
		}
		return tcpEnc(tcpDec(old) - args[2]), nil
	})
	p.Update(tcpAccounts, Arg(1), func(old []byte, args Args, _ Reads) ([]byte, error) {
		return tcpEnc(tcpDec(old) + args[2]), nil
	})
	return p
}

func tcpPartitioner(parts int) cluster.DefaultPartitioner {
	return cluster.RangePartitioner{
		N:      parts,
		MaxKey: map[storage.TableID]storage.Key{storage.TableID(tcpAccounts): 200},
	}
}

// startTCPTestCluster brings up `parts` in-process node "processes"
// over real loopback sockets — the same wiring cmd/chiller-node does,
// minus the process boundary — each loading its share of 200 accounts
// at balance 1000 and marking the hot accounts in its lookup table at
// their home partitions. It returns the peer list and the per-node
// stores for post-commit inspection.
func startTCPTestCluster(t *testing.T, parts int, hot ...Key) ([]string, []*storage.Store) {
	t.Helper()
	proc, err := tcpTransferProc().build()
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTopology(parts, 1)
	fabs := make([]*tcpnet.Fabric, parts)
	addrs := make(map[transport.NodeID]string, parts)
	peers := make([]string, parts)
	for i := range fabs {
		fab, err := tcpnet.New(tcpnet.Config{ID: transport.NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		fabs[i] = fab
		addrs[transport.NodeID(i)] = fab.Addr()
		peers[i] = fab.Addr()
	}
	stores := make([]*storage.Store, parts)
	for i, fab := range fabs {
		fab.SetPeers(addrs)
		dir := cluster.NewDirectory(topo, tcpPartitioner(parts))
		dir.SetLanes(cluster.DefaultLanes())
		reg := txn.NewRegistry()
		if err := reg.Register(proc); err != nil {
			t.Fatal(err)
		}
		for _, k := range hot {
			rid := storage.RID{Table: storage.TableID(tcpAccounts), Key: storage.Key(k)}
			dir.SetHot(rid, dir.Partition(rid))
		}
		st := storage.NewStore()
		st.CreateTable(storage.TableID(tcpAccounts), 256)
		node := server.New(fab, st, reg, dir, cluster.PartitionID(i))
		occ.RegisterVerbs(node)
		core.RegisterVerbs(node)
		eng := core.New(node)
		stores[i] = st
		for k := storage.Key(0); k < 200; k++ {
			rid := storage.RID{Table: storage.TableID(tcpAccounts), Key: k}
			if topo.Primary(dir.Partition(rid)) != transport.NodeID(i) {
				continue
			}
			if err := st.Table(rid.Table).Bucket(k).Insert(k, tcpEnc(1000)); err != nil {
				t.Fatal(err)
			}
		}
		fab, node, eng := fab, node, eng
		t.Cleanup(func() {
			eng.Drain()
			fab.Close()
			node.Close()
		})
	}
	return peers, stores
}

func TestOpenTCPExecute(t *testing.T) {
	peers, stores := startTCPTestCluster(t, 2)
	db, err := Open(
		WithTransport(TransportTCP),
		WithPeers(peers...),
		WithRangePartitioner(map[Table]Key{tcpAccounts: 200}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2 (derived from peers)", got)
	}
	if err := db.Register(tcpTransferProc()); err != nil {
		t.Fatal(err)
	}

	// Store-touching methods are typed-unsupported on a TCP client.
	if err := db.CreateTable(tcpAccounts, 8); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("CreateTable: got %v, want ErrUnsupported", err)
	}
	if err := db.Load(tcpAccounts, 1, tcpEnc(5)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Load: got %v, want ErrUnsupported", err)
	}
	if _, err := db.Get(tcpAccounts, 1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Get: got %v, want ErrUnsupported", err)
	}
	if err := db.MarkHot(tcpAccounts, 1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("MarkHot: got %v, want ErrUnsupported", err)
	}
	if _, err := db.Repartition(context.Background()); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Repartition: got %v, want ErrUnsupported", err)
	}

	// Cross-partition transfer: key 10 lives on node 0, key 150 on node 1.
	res, err := db.ExecuteWithRetry(context.Background(), Retry{}, "bank.transfer", 10, 150, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Distributed {
		t.Fatal("transfer of keys 10 and 150 should be distributed")
	}
	// An overdraft aborts with the application's constraint error.
	if _, err := db.Execute(context.Background(), "bank.transfer", 11, 150, 1_000_000); !errors.Is(err, ErrConstraint) {
		t.Fatalf("overdraft: got %v, want ErrConstraint", err)
	}

	// The committed writes landed in the node processes' stores.
	waitTCPBalances(t, stores, 975, 1025)
}

// waitTCPBalances waits until account 10 on node 0 and account 150 on
// node 1 hold the given balances (commit tails apply asynchronously).
func waitTCPBalances(t *testing.T, stores []*storage.Store, b10, b150 int64) {
	t.Helper()
	read := func(node int, k storage.Key) int64 {
		t.Helper()
		v, _, err := stores[node].Table(storage.TableID(tcpAccounts)).Bucket(k).Get(k)
		if err != nil {
			t.Fatalf("read node %d key %d: %v", node, k, err)
		}
		return tcpDec(v)
	}
	deadline := time.Now().Add(5 * time.Second)
	for read(0, 10) != b10 || read(1, 150) != b150 {
		if time.Now().After(deadline) {
			t.Fatalf("balances = %d/%d, want %d/%d", read(0, 10), read(1, 150), b10, b150)
		}
		time.Sleep(time.Millisecond)
	}
}

// A record the nodes mark hot reaches the TCP client's lookup table at
// Open, so the client routes a transfer touching it to the record's
// node (§4.2 placement), which coordinates the transaction there: the
// client sends one route verb and no lock verb of its own.
func TestOpenTCPAdoptsHotTable(t *testing.T) {
	peers, stores := startTCPTestCluster(t, 2, 150)
	db, err := Open(
		WithTransport(TransportTCP),
		WithPeers(peers...),
		WithRangePartitioner(map[Table]Key{tcpAccounts: 200}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Register(tcpTransferProc()); err != nil {
		t.Fatal(err)
	}
	if !db.dir.IsHot(storage.RID{Table: storage.TableID(tcpAccounts), Key: 150}) {
		t.Fatal("client lookup table lacks the nodes' hot record")
	}
	if _, err := db.ExecuteWithRetry(context.Background(), Retry{}, "bank.transfer", 10, 150, 25); err != nil {
		t.Fatal(err)
	}
	verbs := db.nodeList()[0].VerbMetrics().Snapshot()
	if verbs[server.KindRoute].Count != 1 || verbs[server.KindLockRead].Count != 0 {
		t.Fatalf("client verbs: route %d, lock-read %d; want the transfer routed (1, 0)",
			verbs[server.KindRoute].Count, verbs[server.KindLockRead].Count)
	}
	waitTCPBalances(t, stores, 975, 1025)
}

// Open over TCP fails with a typed error when no node answers.
func TestOpenTCPUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	db, err := Open(WithTransport(TransportTCP), WithPeers(addr))
	if err == nil {
		db.Close()
		t.Fatal("Open succeeded with no node listening")
	}
	if !errors.Is(err, transport.ErrUnreachable) || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

// Malformed layout payloads decode to an error, never a panic, and
// never yield a lookup-table row the directory would reject.
func TestDecodeTopoPayloadMalformed(t *testing.T) {
	encode := func(parts int, rows []cluster.HotRow) []byte {
		w := wire.NewWriter(64)
		cluster.EncodeTopologyTo(w, cluster.NewTopology(parts, 2))
		w.Uint32(1)
		w.Uint32(0)
		w.String("127.0.0.1:1")
		cluster.EncodeHotRowsTo(w, rows)
		return w.Bytes()
	}
	row := func(p cluster.PartitionID) cluster.HotRow {
		return cluster.HotRow{RID: storage.RID{Table: 1, Key: 9}, Partition: p, Weight: 2, Lane: -1}
	}
	decode := func(p []byte) (_ server.TopoPayload, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode of %d bytes panicked: %v", len(p), r)
			}
		}()
		return server.DecodeTopoPayload(p)
	}

	good := encode(2, []cluster.HotRow{row(0), row(1)})
	got, err := decode(good)
	if err != nil || len(got.Parts) != 2 || len(got.Addrs) != 1 || len(got.Hot) != 2 || got.Hot[1] != row(1) {
		t.Fatalf("valid payload: %+v, %v", got, err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := decode(good[:n]); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded", n, len(good))
		}
	}
	noRows := encode(2, nil)
	bad := map[string][]byte{
		"partition out of range": encode(2, []cluster.HotRow{row(0), row(2)}),
		"negative partition":     encode(2, []cluster.HotRow{row(-1)}),
		"no partitions":          encode(0, []cluster.HotRow{row(0)}),
		"zero weight":            encode(2, []cluster.HotRow{{Partition: 0}}),
		"huge row count":         binary.LittleEndian.AppendUint32(noRows[:len(noRows)-4], 1<<31),
	}
	for name, p := range bad {
		if _, err := decode(p); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

func TestOpenTCPConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"peers without tcp transport", []Option{WithPeers("127.0.0.1:1")}},
		{"listen addr without tcp transport", []Option{WithListenAddr("127.0.0.1:0")}},
		{"tcp transport without peers", []Option{WithTransport(TransportTCP)}},
		{"unknown transport", []Option{WithTransport("carrier-pigeon")}},
		{"empty peer list", []Option{WithTransport(TransportTCP), WithPeers()}},
		{"tcp with partitions", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithPartitions(3)}},
		{"tcp with latency", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithLatency(time.Millisecond)}},
		{"tcp with jitter", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithJitter(time.Millisecond)}},
		{"tcp with sampling", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithSampling(0.1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.opts...)
			if err == nil {
				db.Close()
				t.Fatal("Open succeeded, want ErrBadConfig")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("got %v, want ErrBadConfig", err)
			}
		})
	}
}
