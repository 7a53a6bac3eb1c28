package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/chillerdb/chiller"
)

// tpcc-tcp: TPC-C NewOrder+Payment 38/38 (80% of them distributed)
// plus TPC-C's read-only pair, OrderStatus and StockLevel at 12% each
// (at 4% each, the standard mix, ro_p99_us rested on 34 samples and
// moved 36% between runs), against two chiller-node processes on loopback TCP with
// replication 2. The nodes run without a write-ahead log: with fsync on
// the checkout's disk the figures measure the shared disk (tps moved
// 30-45% between runs); the wal.* probes measure group commit instead.
// The procedures mirror the ones chiller-node registers (same names,
// operations, keys and value layouts): a TCP client and its nodes must
// agree on them.
const (
	tpccNodes       = 2
	tpccReplication = 2
	tpccCustomers   = 50
	tpccItems       = 200
	tpccRemoteProb  = 0.8
	tpccReadOnlyPct = 24 // OrderStatus + StockLevel, half each
	// tpccInflight is 2 operations per caller, not the 4 of the
	// embedded workloads: at 4 the nodes are past their throughput peak
	// (1.9k tps against 2.2k, p99 32 ms against 11 ms), in NO_WAIT
	// contention collapse, where the figures follow host noise most.
	tpccInflight  = 2
	tpccDistricts = 10
	tpccMinLines  = 5
	tpccMaxLines  = 15
	tpccReadyWait = 60 * time.Second

	tpccWarehouse = chiller.Table(1)
	tpccDistrict  = chiller.Table(2)
	tpccCustomer  = chiller.Table(3)
	tpccStock     = chiller.Table(4)
	tpccOrder     = chiller.Table(5)
	tpccNewOrder  = chiller.Table(6)
	tpccOrderLine = chiller.Table(7)
	tpccHistory   = chiller.Table(8)

	customerRadix  = 1_000_000
	orderRadix     = 10_000_000
	orderLineRadix = 16
	stockRadix     = 1_000_000
	historyRadix   = 1_000_000_000_000
)

func districtKey(w, d int64) chiller.Key { return chiller.Key(w*tpccDistricts + d) }
func customerKey(w, d, c int64) chiller.Key {
	return chiller.Key(uint64(districtKey(w, d))*customerRadix + uint64(c))
}
func stockKey(w, item int64) chiller.Key { return chiller.Key(uint64(w)*stockRadix + uint64(item)) }
func orderKey(w, d, o int64) chiller.Key {
	return chiller.Key(uint64(districtKey(w, d))*orderRadix + uint64(o))
}
func historyKey(w int64, seq uint64) chiller.Key {
	return chiller.Key(uint64(w)*historyRadix + seq)
}

// warehouseOf is chiller-node's by-warehouse partitioning function.
func warehouseOf(t chiller.Table, k chiller.Key) int {
	x := uint64(k)
	switch t {
	case tpccDistrict:
		return int(x / tpccDistricts)
	case tpccCustomer:
		return int(x / customerRadix / tpccDistricts)
	case tpccStock:
		return int(x / stockRadix)
	case tpccOrder, tpccNewOrder:
		return int(x / orderRadix / tpccDistricts)
	case tpccOrderLine:
		return int(x / orderLineRadix / orderRadix / tpccDistricts)
	case tpccHistory:
		return int(x / historyRadix)
	}
	return int(x)
}

func i64s(vs ...int64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func field(p []byte, i int) int64 {
	if (i+1)*8 > len(p) {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p[8*i:]))
}

func withField(p []byte, i int, v int64) []byte {
	n := len(p)
	if (i+1)*8 > n {
		n = (i + 1) * 8
	}
	out := make([]byte, n)
	copy(out, p)
	binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	return out
}

// itemPrice is chiller-node's deterministic item price.
func itemPrice(item int64) int64 {
	x := uint64(item)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return int64(100 + x%9900)
}

// newOrderNames[n] is the NewOrder variant with n order lines.
var newOrderNames = func() (names [tpccMaxLines + 1]string) {
	for n := range names {
		names[n] = fmt.Sprintf("tpcc.neworder.%d", n)
	}
	return names
}()

const (
	paymentName     = "tpcc.payment"
	orderStatusName = "tpcc.orderstatus"
	stockLevelName  = "tpcc.stocklevel"
)

// newOrderProc: args [0]=w [1]=d [2]=c, then per line i [3+3i]=item
// [4+3i]=supply warehouse [5+3i]=quantity.
func newOrderProc(n int) *chiller.Proc {
	p := chiller.NewProc(newOrderNames[n])
	wh := p.Read(tpccWarehouse, chiller.Arg(0))
	dist := p.Update(tpccDistrict, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return districtKey(a[0], a[1]), true
	}, func(old []byte, _ chiller.Args, _ chiller.Reads) ([]byte, error) {
		return withField(old, 0, field(old, 0)+1), nil
	})
	cust := p.Read(tpccCustomer, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return customerKey(a[0], a[1], a[2]), true
	})
	stocks := make([]*chiller.Op, n)
	for i := 0; i < n; i++ {
		i := i
		stocks[i] = p.Update(tpccStock, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
			return stockKey(a[4+3*i], a[3+3*i]), true
		}, func(old []byte, a chiller.Args, _ chiller.Reads) ([]byte, error) {
			q := a[5+3*i]
			qty := field(old, 0) - q
			if qty < 10 {
				qty += 91
			}
			remote := field(old, 3)
			if a[4+3*i] != a[0] {
				remote++
			}
			return i64s(qty, field(old, 1)+q, field(old, 2)+1, remote), nil
		})
	}
	districtPart := func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return districtKey(a[0], a[1]), true
	}
	oKey := func(a chiller.Args, r chiller.Reads) (chiller.Key, bool) {
		dv, ok := r[dist.ID()]
		if !ok || len(dv) == 0 {
			return 0, false
		}
		return orderKey(a[0], a[1], field(dv, 0)), true
	}
	p.Insert(tpccOrder, oKey, func(_ []byte, a chiller.Args, _ chiller.Reads) ([]byte, error) {
		return i64s(a[2], int64(n), 0, 0), nil
	}).KeyFrom(dist).CoLocatedWith(tpccDistrict, districtPart)
	p.Insert(tpccNewOrder, oKey, func([]byte, chiller.Args, chiller.Reads) ([]byte, error) {
		return []byte{1}, nil
	}).KeyFrom(dist).CoLocatedWith(tpccDistrict, districtPart)
	for i := 0; i < n; i++ {
		i := i
		p.Insert(tpccOrderLine, func(a chiller.Args, r chiller.Reads) (chiller.Key, bool) {
			ok, found := oKey(a, r)
			if !found {
				return 0, false
			}
			return chiller.Key(uint64(ok)*orderLineRadix + uint64(i)), true
		}, func(_ []byte, a chiller.Args, r chiller.Reads) ([]byte, error) {
			item, qty := a[3+3*i], a[5+3*i]
			amount := qty * itemPrice(item)
			amount = amount * (10000 + field(r[wh.ID()], 1)) / 10000 * (10000 - field(r[cust.ID()], 3)) / 10000
			return i64s(item, a[4+3*i], qty, amount), nil
		}).KeyFrom(dist).ValueFrom(wh, cust, stocks[i]).CoLocatedWith(tpccDistrict, districtPart)
	}
	return p
}

// paymentProc: args [0]=w [1]=d [2]=customer w [3]=customer d [4]=c
// [5]=amount [6]=history sequence. Operation 0 reads the warehouse
// row, which is how the output check reads W_YTD back.
func paymentProc() *chiller.Proc {
	p := chiller.NewProc(paymentName)
	p.Update(tpccWarehouse, chiller.Arg(0), func(old []byte, a chiller.Args, _ chiller.Reads) ([]byte, error) {
		return withField(old, 0, field(old, 0)+a[5]), nil
	})
	p.Update(tpccDistrict, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return districtKey(a[0], a[1]), true
	}, func(old []byte, a chiller.Args, _ chiller.Reads) ([]byte, error) {
		return withField(old, 1, field(old, 1)+a[5]), nil
	})
	p.Update(tpccCustomer, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return customerKey(a[2], a[3], a[4]), true
	}, func(old []byte, a chiller.Args, _ chiller.Reads) ([]byte, error) {
		return i64s(field(old, 0)-a[5], field(old, 1)+a[5], field(old, 2)+1, field(old, 3)), nil
	})
	p.Insert(tpccHistory, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return historyKey(a[0], uint64(a[6])), true
	}, func(_ []byte, a chiller.Args, _ chiller.Reads) ([]byte, error) {
		return i64s(a[5]), nil
	})
	return p
}

// orderStatusProc: args [0]=w [1]=d [2]=c. Reads the district, the
// customer, the district's latest order and its first line.
func orderStatusProc() *chiller.Proc {
	p := chiller.NewProc(orderStatusName)
	districtPart := func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return districtKey(a[0], a[1]), true
	}
	dist := p.Read(tpccDistrict, districtPart)
	p.Read(tpccCustomer, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return customerKey(a[0], a[1], a[2]), true
	})
	lastOrder := func(a chiller.Args, r chiller.Reads) (chiller.Key, bool) {
		dv, ok := r[dist.ID()]
		if !ok || len(dv) == 0 {
			return 0, false
		}
		return orderKey(a[0], a[1], max(field(dv, 0)-1, 0)), true
	}
	p.Read(tpccOrder, lastOrder).KeyFrom(dist).CoLocatedWith(tpccDistrict, districtPart)
	p.Read(tpccOrderLine, func(a chiller.Args, r chiller.Reads) (chiller.Key, bool) {
		ok, found := lastOrder(a, r)
		return chiller.Key(uint64(ok) * orderLineRadix), found
	}).KeyFrom(dist).CoLocatedWith(tpccDistrict, districtPart)
	return p
}

// stockLevelProc: args [0]=w [1]=d [2]=threshold [3..12]=items. Reads
// the district and ten stock rows.
func stockLevelProc() *chiller.Proc {
	p := chiller.NewProc(stockLevelName)
	p.Read(tpccDistrict, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
		return districtKey(a[0], a[1]), true
	})
	for i := 0; i < 10; i++ {
		i := i
		p.Read(tpccStock, func(a chiller.Args, _ chiller.Reads) (chiller.Key, bool) {
			return stockKey(a[0], a[3+i]), true
		})
	}
	return p
}

type tpccDeployment struct {
	d     *chiller.DB
	nodes []*exec.Cmd
	peers []string
	hseq  atomic.Uint64 // history keys must be unique per warehouse
	ytd0  int64         // warehouse YTD sum after load
}

func setupTPCC(env setupEnv) (deployment, error) {
	t := &tpccDeployment{}
	if err := t.start(env.nodeBin); err != nil {
		t.close()
		return nil, err
	}
	var err error
	t.d, err = chiller.Open(
		chiller.WithTransport(chiller.TransportTCP),
		chiller.WithPeers(t.peers...),
		chiller.WithReplication(tpccReplication),
		chiller.WithPartitionFunc("tpcc-by-warehouse", func(tb chiller.Table, k chiller.Key) int {
			return min(warehouseOf(tb, k), tpccNodes-1)
		}),
	)
	if err == nil {
		for n := tpccMinLines; n <= tpccMaxLines && err == nil; n++ {
			err = t.d.Register(newOrderProc(n))
		}
	}
	for _, p := range []*chiller.Proc{paymentProc(), orderStatusProc(), stockLevelProc()} {
		if err == nil {
			err = t.d.Register(p)
		}
	}
	if err == nil {
		t.ytd0, err = t.ytdSum()
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// start launches the node processes and waits until each reports ready.
func (t *tpccDeployment) start(bin string) error {
	for i := 0; i < tpccNodes; i++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		t.peers = append(t.peers, port)
	}
	ready := make(chan error, tpccNodes)
	for i := 0; i < tpccNodes; i++ {
		cmd := exec.Command(bin,
			"-id", fmt.Sprint(i), "-peers", strings.Join(t.peers, ","),
			"-replication", fmt.Sprint(tpccReplication),
			"-customers", fmt.Sprint(tpccCustomers), "-items", fmt.Sprint(tpccItems),
			"-peer-timeout", "30s")
		cmd.Stderr = os.Stderr
		// The nodes die with this process even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start %s: %w", bin, err)
		}
		t.nodes = append(t.nodes, cmd)
		go func(r io.Reader) {
			sc := bufio.NewScanner(r)
			up := false
			for sc.Scan() {
				if !up && strings.Contains(sc.Text(), " ready on ") {
					up = true
					ready <- nil
				}
			}
			if !up {
				ready <- fmt.Errorf("chiller-node exited before it was ready")
			}
			// Keep draining so the node never blocks on its stdout.
			_, _ = io.Copy(io.Discard, r)
		}(out)
	}
	timeout := time.After(tpccReadyWait)
	for i := 0; i < tpccNodes; i++ {
		select {
		case err := <-ready:
			if err != nil {
				return err
			}
		case <-timeout:
			return fmt.Errorf("chiller-node not ready within %v", tpccReadyWait)
		}
	}
	return nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// ytdSum reads every warehouse's W_YTD through the client with a
// zero-amount Payment, whose first operation reads the warehouse row.
func (t *tpccDeployment) ytdSum() (int64, error) {
	var sum int64
	for w := int64(0); w < tpccNodes; w++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*opDeadline)
		res, err := t.d.ExecuteWithRetry(ctx, chiller.Retry{}, paymentName, w, 0, w, 0, 0, 0, int64(t.hseq.Add(1)))
		cancel()
		if err != nil {
			return 0, fmt.Errorf("read warehouse %d: %w", w, err)
		}
		v, ok := res.Read(0)
		if !ok {
			return 0, fmt.Errorf("read warehouse %d: no value", w)
		}
		sum += field(v, 0)
	}
	return sum, nil
}

func (t *tpccDeployment) db() *chiller.DB { return t.d }

func (t *tpccDeployment) pids() []int {
	pids := []int{0}
	for _, n := range t.nodes {
		pids = append(pids, n.Process.Pid)
	}
	return pids
}

func (t *tpccDeployment) close() error {
	var err error
	if t.d != nil {
		err = t.d.Close()
	}
	for _, n := range t.nodes {
		_ = n.Process.Kill()
		_ = n.Wait() // exits by the kill; its status says nothing
	}
	t.nodes = nil
	return err
}

func (t *tpccDeployment) config() map[string]any {
	return map[string]any{
		"nodes": tpccNodes, "replication": tpccReplication, "customers": tpccCustomers,
		"items": tpccItems, "remote_prob": tpccRemoteProb,
		"mix": "neworder 38 / payment 38 / orderstatus 12 / stocklevel 12",
		"wal": "off", "lanes": "node default",
	}
}

func (t *tpccDeployment) layer() map[string]float64 { return nil }

func (t *tpccDeployment) probe() probeShape {
	return probeShape{records: tpccItems, buckets: 1 << 16, chainDepth: 1}
}

type tpccGen struct {
	t       *tpccDeployment
	rng     *rand.Rand
	pay     bool  // the last generated operation is a Payment
	paid    int64 // acknowledged Payment amounts
	unknown int64 // amounts of failed Payments, which may have committed
}

func (t *tpccDeployment) gen(seed int64) generator {
	return &tpccGen{t: t, rng: rand.New(rand.NewSource(seed))}
}

func (g *tpccGen) remote(home int64) int64 {
	return (home + 1 + g.rng.Int63n(tpccNodes-1)) % tpccNodes
}

func (g *tpccGen) next() (string, []int64, bool) {
	home := g.rng.Int63n(tpccNodes)
	roll := g.rng.Intn(100)
	g.pay = false
	switch {
	case roll < tpccReadOnlyPct/2:
		return orderStatusName, []int64{home, g.rng.Int63n(tpccDistricts), g.rng.Int63n(tpccCustomers)}, true
	case roll < tpccReadOnlyPct:
		args := make([]int64, 13)
		args[0], args[1], args[2] = home, g.rng.Int63n(tpccDistricts), 20
		for i := 3; i < 13; i++ {
			args[i] = g.rng.Int63n(tpccItems)
		}
		return stockLevelName, args, true
	}
	distributed := g.rng.Float64() < tpccRemoteProb
	g.pay = roll%2 == 1
	if g.pay {
		cw := home
		if distributed {
			cw = g.remote(home)
		}
		return paymentName, []int64{
			home, g.rng.Int63n(tpccDistricts), cw, g.rng.Int63n(tpccDistricts),
			g.rng.Int63n(tpccCustomers), 100 + g.rng.Int63n(500_000), int64(g.t.hseq.Add(1)),
		}, false
	}
	n := tpccMinLines + g.rng.Intn(tpccMaxLines-tpccMinLines+1)
	args := make([]int64, 3+3*n)
	args[0], args[1], args[2] = home, g.rng.Int63n(tpccDistricts), g.rng.Int63n(tpccCustomers)
	remoteLine := -1
	if distributed {
		remoteLine = g.rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		args[3+3*i] = g.rng.Int63n(tpccItems)
		args[4+3*i] = home
		if i == remoteLine {
			args[4+3*i] = g.remote(home)
		}
		args[5+3*i] = 1 + g.rng.Int63n(10)
	}
	return newOrderNames[n], args, false
}

func (g *tpccGen) done(args []int64, _ chiller.Result, err error) {
	if !g.pay {
		return
	}
	if err != nil {
		g.unknown += args[5]
		return
	}
	g.paid += args[5]
}

func (t *tpccDeployment) check(st *runStats) error {
	var paid, unknown int64
	for _, g := range st.gens {
		tg := g.(*tpccGen)
		paid += tg.paid
		unknown += tg.unknown
	}
	if paid == 0 {
		return fmt.Errorf("tpcc: no payment committed")
	}
	ytd, err := t.ytdSum()
	if err != nil {
		return err
	}
	// A failed Payment may still have committed; only those widen the
	// accepted range.
	if d := ytd - t.ytd0; d < paid || d > paid+unknown {
		return fmt.Errorf("tpcc: warehouse YTD grew by %d, acknowledged payments %d (+%d unknown)", d, paid, unknown)
	}
	return nil
}
