package tpcc

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// Config sizes and shapes the workload.
type Config struct {
	// Warehouses is the total warehouse count (the paper uses one per
	// execution engine: 80 across 8 machines).
	Warehouses int
	// Partitions is the cluster's partition count; warehouses are
	// striped contiguously.
	Partitions int
	// CustomersPerDistrict scales the customer table (spec: 3000).
	CustomersPerDistrict int
	// Items scales the stock table per warehouse (spec: 100000).
	Items int

	// Mix percentages; must sum to 100. Zero values select the standard
	// mix (45/43/4/4/4).
	NewOrderPct, PaymentPct, OrderStatusPct, DeliveryPct, StockLevelPct int

	// RemoteItemProb is the chance each NewOrder line is supplied by a
	// remote warehouse (spec: 1%, giving ~10% distributed NewOrders).
	RemoteItemProb float64
	// RemotePaymentProb is the chance the paying customer belongs to a
	// remote warehouse (spec: 15%).
	RemotePaymentProb float64
	// FixedOrderLines forces every NewOrder cart to this size (0 keeps
	// the spec's uniform 5..15).
	FixedOrderLines int

	// TxnLevelRemote switches remote selection to transaction
	// granularity for the Figure 10 sweep: with probability
	// TxnRemoteProb a NewOrder sources exactly one item from a remote
	// warehouse, and a Payment pays for a remote customer. Per-item and
	// per-payment probabilities above are ignored when set.
	TxnLevelRemote bool
	// TxnRemoteProb is the per-transaction distributed probability used
	// when TxnLevelRemote is set.
	TxnRemoteProb float64
}

// Defaults fills zero fields with spec values (scaled-down table sizes
// keep simulation loading fast; pass explicit values to override).
func (c Config) Defaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 8
	}
	if c.Partitions == 0 {
		c.Partitions = c.Warehouses
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 300
	}
	if c.Items == 0 {
		c.Items = 5000
	}
	if c.NewOrderPct+c.PaymentPct+c.OrderStatusPct+c.DeliveryPct+c.StockLevelPct == 0 {
		c.NewOrderPct, c.PaymentPct = 45, 43
		c.OrderStatusPct, c.DeliveryPct, c.StockLevelPct = 4, 4, 4
	}
	if c.RemoteItemProb == 0 {
		c.RemoteItemProb = 0.01
	}
	if c.RemotePaymentProb == 0 {
		c.RemotePaymentProb = 0.15
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Warehouses <= 0 || c.Partitions <= 0 {
		return fmt.Errorf("tpcc: warehouses/partitions must be positive")
	}
	if c.Warehouses%c.Partitions != 0 {
		return fmt.Errorf("tpcc: %d warehouses not divisible by %d partitions", c.Warehouses, c.Partitions)
	}
	if sum := c.NewOrderPct + c.PaymentPct + c.OrderStatusPct + c.DeliveryPct + c.StockLevelPct; sum != 100 {
		return fmt.Errorf("tpcc: mix sums to %d, want 100", sum)
	}
	if c.Items > stockRadix || c.CustomersPerDistrict > customerRadix {
		return fmt.Errorf("tpcc: table size exceeds key radix")
	}
	return nil
}

// Loader abstracts the cluster's data-loading interface (bench.Cluster
// satisfies it).
type Loader interface {
	CreateTable(id storage.TableID, buckets int)
	LoadRecord(table storage.TableID, key storage.Key, value []byte) error
}

// bucketsFor sizes a table for rows records at a load factor of at
// most 1/16 (buckets are the unit of locking, so a sparse table keeps
// false conflicts between records rare), capped at max buckets.
func bucketsFor(rows, max int) int {
	n := 1
	for n < 16*rows && n < max {
		n <<= 1
	}
	return n
}

// Load creates the tables and populates them. Each district is seeded
// with one delivered order (oid 0, ten lines) so OrderStatus and Delivery
// always find a latest order; d_next_o_id starts at 1.
func Load(l Loader, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	l.CreateTable(TableWarehouse, 64)
	l.CreateTable(TableDistrict, 256)
	l.CreateTable(TableCustomer, bucketsFor(cfg.Warehouses*DistrictsPerWarehouse*cfg.CustomersPerDistrict, 1<<14))
	l.CreateTable(TableStock, bucketsFor(cfg.Warehouses*cfg.Items, 1<<16))
	l.CreateTable(TableOrder, 1<<14)
	l.CreateTable(TableNewOrder, 1<<12)
	l.CreateTable(TableOrderLine, 1<<15)
	l.CreateTable(TableHistory, 1<<12)

	for w := 0; w < cfg.Warehouses; w++ {
		if err := l.LoadRecord(TableWarehouse, WarehouseKey(w), (Warehouse{Tax: int64((w*37 + 11) % 2000)}).Encode()); err != nil {
			return err
		}
		for d := 0; d < DistrictsPerWarehouse; d++ {
			if err := l.LoadRecord(TableDistrict, DistrictKey(w, d), (District{NextOID: 1, Tax: int64((d*53 + 7) % 2000)}).Encode()); err != nil {
				return err
			}
			for c := 0; c < cfg.CustomersPerDistrict; c++ {
				cust := Customer{Balance: -1000, Discount: int64((c*29 + 3) % 5000)}
				if err := l.LoadRecord(TableCustomer, CustomerKey(w, d, c), cust.Encode()); err != nil {
					return err
				}
			}
			// Seed order 0 with ten lines for customer 0.
			ok := OrderKey(w, d, 0)
			if err := l.LoadRecord(TableOrder, ok, (Order{CustomerID: 0, OLCnt: 10, CarrierID: 1}).Encode()); err != nil {
				return err
			}
			for line := 0; line < 10; line++ {
				item := int64((d*10 + line) % max(cfg.Items, 1))
				olv := OrderLine{ItemID: item, SupplyW: int64(w), Quantity: 5, Amount: 5 * ItemPrice(item)}
				if err := l.LoadRecord(TableOrderLine, OrderLineKey(ok, line), olv.Encode()); err != nil {
					return err
				}
			}
		}
		for i := 0; i < cfg.Items; i++ {
			st := Stock{Quantity: int64(10 + (i*7+w)%91)}
			if err := l.LoadRecord(TableStock, StockKey(w, i), st.Encode()); err != nil {
				return err
			}
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MarkHot installs the lookup-table entries that let Chiller's run-time
// decision treat the contended records as hot: every warehouse row,
// every district row, and every stock row, at their home partitions (no
// relocation — for TPC-C the by-warehouse layout is already
// contention-optimal, §7.3.1 keeps "the partitioning layout the same for
// all" engines).
//
// Stock belongs in the lookup table because it is the paper's own
// running example of a contended record (Figure 4 places the stock
// updates of a NewOrder in the inner region alongside the district
// increment). At the benchmark's scaled-down item counts each stock row
// is touched by a few percent of all NewOrders, so the §4.4 hot
// criterion (expected concurrent lock holders) is met by the whole
// table; marking it hot lets the home-warehouse stock updates commit
// inside the inner region instead of holding outer locks across the
// commit round trips.
func MarkHot(dir *cluster.Directory, cfg Config) {
	for w := 0; w < cfg.Warehouses; w++ {
		rid := storage.RID{Table: TableWarehouse, Key: WarehouseKey(w)}
		dir.SetHot(rid, dir.Default().Partition(rid))
		for d := 0; d < DistrictsPerWarehouse; d++ {
			drid := storage.RID{Table: TableDistrict, Key: DistrictKey(w, d)}
			dir.SetHot(drid, dir.Default().Partition(drid))
		}
		for i := 0; i < cfg.Items; i++ {
			srid := storage.RID{Table: TableStock, Key: StockKey(w, i)}
			dir.SetHot(srid, dir.Default().Partition(srid))
		}
	}
}

// Workload generates the TPC-C request stream. Safe for concurrent use.
type Workload struct {
	cfg  Config
	wpp  int // warehouses per partition
	hseq atomic.Uint64
}

// NewWorkload builds a generator for the configuration.
func NewWorkload(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Workload{cfg: cfg, wpp: cfg.Warehouses / cfg.Partitions}, nil
}

// Config returns the workload's configuration.
func (w *Workload) Config() Config { return w.cfg }

// Name implements bench.Workload.
func (w *Workload) Name() string { return "tpcc" }

// Next implements bench.Workload: a transaction homed at a warehouse
// owned by the given partition, drawn from the configured mix.
func (w *Workload) Next(part int, rng *rand.Rand) *txn.Request {
	home := part*w.wpp + rng.Intn(w.wpp)
	roll := rng.Intn(100)
	switch {
	case roll < w.cfg.NewOrderPct:
		return w.newOrder(home, rng)
	case roll < w.cfg.NewOrderPct+w.cfg.PaymentPct:
		return w.payment(home, rng)
	case roll < w.cfg.NewOrderPct+w.cfg.PaymentPct+w.cfg.OrderStatusPct:
		return w.orderStatus(home, rng)
	case roll < w.cfg.NewOrderPct+w.cfg.PaymentPct+w.cfg.OrderStatusPct+w.cfg.DeliveryPct:
		return w.delivery(home, rng)
	default:
		return w.stockLevel(home, rng)
	}
}

func (w *Workload) newOrder(home int, rng *rand.Rand) *txn.Request {
	n := w.cfg.FixedOrderLines
	if n == 0 {
		n = MinOrderLines + rng.Intn(MaxOrderLines-MinOrderLines+1)
	}
	args := make(txn.Args, 3+3*n)
	args[0] = int64(home)
	args[1] = int64(rng.Intn(DistrictsPerWarehouse))
	args[2] = int64(rng.Intn(w.cfg.CustomersPerDistrict))
	remoteLine := -1
	if w.cfg.TxnLevelRemote && w.cfg.Warehouses > 1 && rng.Float64() < w.cfg.TxnRemoteProb {
		remoteLine = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		args[3+3*i] = int64(rng.Intn(w.cfg.Items))
		supply := home
		switch {
		case w.cfg.TxnLevelRemote:
			if i == remoteLine {
				supply = (home + 1 + rng.Intn(w.cfg.Warehouses-1)) % w.cfg.Warehouses
			}
		case w.cfg.RemoteItemProb > 0 && w.cfg.Warehouses > 1 && rng.Float64() < w.cfg.RemoteItemProb:
			supply = (home + 1 + rng.Intn(w.cfg.Warehouses-1)) % w.cfg.Warehouses
		}
		args[4+3*i] = int64(supply)
		args[5+3*i] = int64(1 + rng.Intn(10))
	}
	return &txn.Request{Proc: NewOrderProc(n), Args: args}
}

func (w *Workload) payment(home int, rng *rand.Rand) *txn.Request {
	cw, cd := home, rng.Intn(DistrictsPerWarehouse)
	remoteProb := w.cfg.RemotePaymentProb
	if w.cfg.TxnLevelRemote {
		remoteProb = w.cfg.TxnRemoteProb
	}
	if remoteProb > 0 && w.cfg.Warehouses > 1 && rng.Float64() < remoteProb {
		cw = (home + 1 + rng.Intn(w.cfg.Warehouses-1)) % w.cfg.Warehouses
	}
	return &txn.Request{
		Proc: ProcPayment,
		Args: txn.Args{
			int64(home),
			int64(rng.Intn(DistrictsPerWarehouse)),
			int64(cw),
			int64(cd),
			int64(rng.Intn(w.cfg.CustomersPerDistrict)),
			int64(100 + rng.Intn(500000)), // $1.00 .. $5000.00
			int64(w.hseq.Add(1)),
		},
	}
}

func (w *Workload) orderStatus(home int, rng *rand.Rand) *txn.Request {
	return &txn.Request{
		Proc: ProcOrderStatus,
		Args: txn.Args{
			int64(home),
			int64(rng.Intn(DistrictsPerWarehouse)),
			int64(rng.Intn(w.cfg.CustomersPerDistrict)),
		},
	}
}

func (w *Workload) delivery(home int, rng *rand.Rand) *txn.Request {
	return &txn.Request{
		Proc: ProcDelivery,
		Args: txn.Args{
			int64(home),
			int64(rng.Intn(DistrictsPerWarehouse)),
			int64(1 + rng.Intn(10)),
		},
	}
}

func (w *Workload) stockLevel(home int, rng *rand.Rand) *txn.Request {
	args := make(txn.Args, 13)
	args[0] = int64(home)
	args[1] = int64(rng.Intn(DistrictsPerWarehouse))
	args[2] = 20 // threshold
	for i := 0; i < 10; i++ {
		args[3+i] = int64(rng.Intn(w.cfg.Items))
	}
	return &txn.Request{Proc: ProcStockLevel, Args: args}
}
