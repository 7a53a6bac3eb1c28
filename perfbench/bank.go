package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/chillerdb/chiller"
)

// bank-snapshot: read-only three-account audits beside transfers that
// concentrate on a few celebrity accounts, on an MVCC deployment whose
// every node holds every partition. Accounts come in triads
// {3t, 3t+1, 3t+2}; a transfer moves money between two accounts of one
// triad and an audit reads a whole triad, so every audit must see the
// triad's initial total — a torn transfer would show as a different sum.
const (
	bankAccounts      = 800_000
	bankPartitions    = 4
	bankReplication   = 4 // = partitions: snapshot reads resolve locally
	bankBuckets       = 1 << 18
	bankHotTriads     = 4 // 12 celebrity accounts, 3 per partition
	bankReadOnlyShare = 0.85
	bankHotShare      = 0.5 // share of transfers and audits on a celebrity triad
	bankInitial       = 1_000
	bankAccountsTable = chiller.Table(1)
	bankInflight      = 4 // operations in flight per caller
)

type bankDeployment struct {
	d *chiller.DB
}

func bankValue(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func bankBalance(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

func setupBank(env setupEnv) (deployment, error) {
	d, err := chiller.Open(
		chiller.WithPartitions(bankPartitions),
		chiller.WithReplication(bankReplication),
		chiller.WithMVCC(),
		chiller.WithSeed(env.seed),
		// Account a lives on partition a mod 4, so a triad spans three
		// partitions and every transfer is distributed.
		chiller.WithPartitionFunc("mod", func(_ chiller.Table, k chiller.Key) int {
			return int(k % bankPartitions)
		}),
	)
	if err != nil {
		return nil, err
	}
	dep := &bankDeployment{d: d}
	if err := dep.load(); err != nil {
		d.Close()
		return nil, err
	}
	return dep, nil
}

func (b *bankDeployment) load() error {
	if err := b.d.CreateTable(bankAccountsTable, bankBuckets); err != nil {
		return err
	}
	transfer := chiller.NewProc("bank.transfer")
	transfer.Update(bankAccountsTable, chiller.Arg(0), func(old []byte, args chiller.Args, _ chiller.Reads) ([]byte, error) {
		return bankValue(bankBalance(old) - args[2]), nil
	})
	transfer.Update(bankAccountsTable, chiller.Arg(1), func(old []byte, args chiller.Args, _ chiller.Reads) ([]byte, error) {
		return bankValue(bankBalance(old) + args[2]), nil
	})
	audit := chiller.NewProc("bank.audit").ReadOnly()
	for i := 0; i < 3; i++ {
		audit.Read(bankAccountsTable, chiller.Arg(i))
	}
	for _, p := range []*chiller.Proc{transfer, audit} {
		if err := b.d.Register(p); err != nil {
			return err
		}
	}
	v := bankValue(bankInitial)
	for a := 0; a < bankAccounts; a++ {
		if err := b.d.Load(bankAccountsTable, chiller.Key(a), v); err != nil {
			return err
		}
	}
	for a := 0; a < 3*bankHotTriads; a++ {
		if err := b.d.MarkHot(bankAccountsTable, chiller.Key(a)); err != nil {
			return err
		}
	}
	return nil
}

func (b *bankDeployment) db() *chiller.DB { return b.d }
func (b *bankDeployment) pids() []int     { return []int{0} }
func (b *bankDeployment) close() error    { return b.d.Close() }

func (b *bankDeployment) config() map[string]any {
	return map[string]any{
		"accounts": bankAccounts, "partitions": bankPartitions, "replication": bankReplication,
		"buckets": bankBuckets, "hot_triads": bankHotTriads, "read_only_share": bankReadOnlyShare,
		"hot_share": bankHotShare, "mvcc": true, "simnet_latency_us": 5,
	}
}

func (b *bankDeployment) layer() map[string]float64 { return nil }

func (b *bankDeployment) probe() probeShape {
	// A transfer writes a given celebrity account with probability
	// hotShare/hotTriads * 2/3, and the MVCC GC keeps mvccRetention
	// commit timestamps of history, so that is the hot chain depth.
	perCommit := bankHotShare / bankHotTriads * 2 / 3
	return probeShape{records: bankAccounts, buckets: bankBuckets, chainDepth: 1 + int(perCommit*mvccRetention)}
}

type bankGen struct {
	rng    *rand.Rand
	audit  bool // the last generated operation is an audit
	audits int
	torn   int // audits whose triad total differed from the initial one
}

func (b *bankDeployment) gen(seed int64) generator {
	return &bankGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *bankGen) triad() int64 {
	if g.rng.Float64() < bankHotShare {
		return int64(g.rng.Intn(bankHotTriads))
	}
	return int64(g.rng.Intn(bankAccounts / 3))
}

func (g *bankGen) next() (string, []int64, bool) {
	t := 3 * g.triad()
	g.audit = g.rng.Float64() < bankReadOnlyShare
	if g.audit {
		return "bank.audit", []int64{t, t + 1, t + 2}, true
	}
	src := g.rng.Intn(3)
	dst := (src + 1 + g.rng.Intn(2)) % 3
	return "bank.transfer", []int64{t + int64(src), t + int64(dst), 1 + g.rng.Int63n(100)}, false
}

func (g *bankGen) done(_ []int64, res chiller.Result, err error) {
	if err != nil || !g.audit {
		return
	}
	var sum int64
	for i := 0; i < 3; i++ {
		v, ok := res.Read(i)
		if !ok {
			g.torn++
			return
		}
		sum += bankBalance(v)
	}
	g.audits++
	if sum != 3*bankInitial {
		g.torn++
	}
}

func (b *bankDeployment) check(st *runStats) error {
	var torn, audits int
	for _, g := range st.gens {
		bg := g.(*bankGen)
		torn += bg.torn
		audits += bg.audits
	}
	if audits == 0 {
		return fmt.Errorf("bank: no audit committed")
	}
	if torn > 0 {
		return fmt.Errorf("bank: %d of %d audits saw a torn transfer", torn, audits)
	}
	var total int64
	for a := 0; a < bankAccounts; a++ {
		v, err := b.d.Get(bankAccountsTable, chiller.Key(a))
		if err != nil {
			return fmt.Errorf("bank: read account %d: %w", a, err)
		}
		total += bankBalance(v)
	}
	if want := int64(bankAccounts) * bankInitial; total != want {
		return fmt.Errorf("bank: total balance %d, want %d", total, want)
	}
	return nil
}
