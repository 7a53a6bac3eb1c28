package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/chillerdb/chiller"
)

// instacart-sim: grocery baskets of 2-8 product-stock decrements with
// Zipf-skewed product popularity, and read-only availability checks of
// a basket's products, on the embedded simulated fabric. The
// setup runs the paper's pipeline: load under hash placement, execute a
// fixed number of sampled baskets, then Repartition, which moves the
// contended products so baskets co-locate with them.
const (
	icProducts     = 20_000
	icPartitions   = 4
	icReplication  = 2
	icBuckets      = 1 << 15
	icMinBasket    = 2
	icMaxBasket    = 8
	icInflight     = 4   // operations in flight per caller
	icCheckShare   = 0.1 // share of operations that are availability checks
	icZipfS        = 1.1
	icZipfV        = 10
	icSampleRate   = 0.5
	icSampledOps   = 6_000
	icInitialStock = 1 << 40
	icStockTable   = chiller.Table(1)
	// icFingerprintTop is how many of the most popular products the
	// layout fingerprint covers.
	icFingerprintTop = 16
)

type instacartDeployment struct {
	d      *chiller.DB
	report chiller.RepartitionReport
	repMS  float64
	layout string
	// sampledLines are the basket lines the sampling phase committed.
	sampledLines int64
}

func icValue(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// Procedure names by basket size: basket.n decrements n stocks,
// check.n reads them.
var icProcs, icChecks = icNames("basket"), icNames("check")

func icNames(prefix string) (names [icMaxBasket + 1]string) {
	for n := range names {
		names[n] = fmt.Sprintf("%s.%d", prefix, n)
	}
	return names
}

func setupInstacart(env setupEnv) (deployment, error) {
	d, err := chiller.Open(
		chiller.WithPartitions(icPartitions),
		chiller.WithReplication(icReplication),
		chiller.WithSampling(icSampleRate),
		chiller.WithSeed(env.seed),
	)
	if err != nil {
		return nil, err
	}
	dep := &instacartDeployment{d: d}
	if err := dep.load(env.seed); err != nil {
		d.Close()
		return nil, err
	}
	return dep, nil
}

func (ic *instacartDeployment) load(seed int64) error {
	if err := ic.d.CreateTable(icStockTable, icBuckets); err != nil {
		return err
	}
	decrement := func(old []byte, _ chiller.Args, _ chiller.Reads) ([]byte, error) {
		return icValue(int64(binary.LittleEndian.Uint64(old)) - 1), nil
	}
	for n := icMinBasket; n <= icMaxBasket; n++ {
		p := chiller.NewProc(icProcs[n])
		for i := 0; i < n; i++ {
			p.Update(icStockTable, chiller.Arg(i), decrement)
		}
		c := chiller.NewProc(icChecks[n]).ReadOnly()
		for i := 0; i < n; i++ {
			c.Read(icStockTable, chiller.Arg(i))
		}
		for _, proc := range []*chiller.Proc{p, c} {
			if err := ic.d.Register(proc); err != nil {
				return err
			}
		}
	}
	v := icValue(icInitialStock)
	for k := 0; k < icProducts; k++ {
		if err := ic.d.Load(icStockTable, chiller.Key(k), v); err != nil {
			return err
		}
	}

	// Sampling phase: a fixed number of baskets on the measured run's
	// closed-loop shape, from generators of their own.
	slots := nproc() * icInflight
	gens := make([]generator, slots)
	errs := make([]error, slots)
	var wg sync.WaitGroup
	for i := range gens {
		gens[i] = ic.gen(seed<<20 + int64(1<<19+i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := gens[i]
			for j := 0; j < icSampledOps/slots && errs[i] == nil; j++ {
				proc, args, _ := g.next()
				ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
				res, err := ic.d.ExecuteWithRetry(ctx, chiller.Retry{}, proc, args...)
				cancel()
				g.done(args, res, err)
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("sampling phase: %w", err)
	}
	t0 := time.Now()
	rep, err := ic.d.Repartition(context.Background())
	if err != nil {
		return err
	}
	ic.repMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	ic.report = rep
	for _, g := range gens {
		ic.sampledLines += g.(*basketGen).lines
	}
	ic.layout, err = ic.fingerprint()
	return err
}

// fingerprint identifies the layout Repartition produced, as far as
// the public API shows it: which pairs of the most popular products a
// two-product read spans partitions for.
func (ic *instacartDeployment) fingerprint() (string, error) {
	h := fnv.New64a()
	for i := 0; i < icFingerprintTop; i++ {
		for j := i + 1; j < icFingerprintTop; j++ {
			res, err := ic.d.ExecuteWithRetry(context.Background(), chiller.Retry{}, icChecks[2], int64(i), int64(j))
			if err != nil {
				return "", fmt.Errorf("layout probe %d,%d: %w", i, j, err)
			}
			fmt.Fprint(h, b2i(res.Distributed))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func (ic *instacartDeployment) db() *chiller.DB { return ic.d }
func (ic *instacartDeployment) pids() []int     { return []int{0} }
func (ic *instacartDeployment) close() error    { return ic.d.Close() }

func (ic *instacartDeployment) config() map[string]any {
	return map[string]any{
		"products": icProducts, "partitions": icPartitions, "replication": icReplication,
		"buckets": icBuckets, "basket": fmt.Sprintf("%d-%d", icMinBasket, icMaxBasket),
		"zipf_s": icZipfS, "zipf_v": icZipfV, "check_share": icCheckShare, "sample_rate": icSampleRate, "sampled_ops": icSampledOps,
		"simnet_latency_us": 5, "repartition": ic.report, "layout_fingerprint": ic.layout,
	}
}

func (ic *instacartDeployment) layer() map[string]float64 {
	return map[string]float64{
		"partition.repartition_ms": ic.repMS,
		"partition.hot_records":    float64(ic.report.HotRecords),
		"partition.moved":          float64(ic.report.Moved),
	}
}

func (ic *instacartDeployment) probe() probeShape {
	return probeShape{records: icProducts, buckets: icBuckets, chainDepth: 1}
}

type basketGen struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	seen  map[int64]bool
	check bool  // the last generated operation is an availability check
	lines int64 // acknowledged basket lines
}

func (ic *instacartDeployment) gen(seed int64) generator {
	rng := rand.New(rand.NewSource(seed))
	return &basketGen{rng: rng, zipf: rand.NewZipf(rng, icZipfS, icZipfV, icProducts-1), seen: map[int64]bool{}}
}

func (g *basketGen) next() (string, []int64, bool) {
	n := icMinBasket + g.rng.Intn(icMaxBasket-icMinBasket+1)
	args := make([]int64, 0, n)
	clear(g.seen)
	for len(args) < n {
		p := int64(g.zipf.Uint64())
		if !g.seen[p] {
			g.seen[p] = true
			args = append(args, p)
		}
	}
	g.check = g.rng.Float64() < icCheckShare
	if g.check {
		return icChecks[n], args, true
	}
	return icProcs[n], args, false
}

func (g *basketGen) done(args []int64, _ chiller.Result, err error) {
	if err == nil && !g.check {
		g.lines += int64(len(args))
	}
}

func (ic *instacartDeployment) check(st *runStats) error {
	var lines int64
	for _, g := range st.gens {
		lines += g.(*basketGen).lines
	}
	if lines == 0 {
		return fmt.Errorf("instacart: no basket committed")
	}
	var decrement int64
	for k := 0; k < icProducts; k++ {
		v, err := ic.d.Get(icStockTable, chiller.Key(k))
		if err != nil {
			return fmt.Errorf("instacart: read product %d: %w", k, err)
		}
		decrement += icInitialStock - int64(binary.LittleEndian.Uint64(v))
	}
	// The sampling phase's baskets decremented stock too.
	if want := lines + ic.sampledLines; decrement != want {
		return fmt.Errorf("instacart: stock decremented by %d, acknowledged lines %d", decrement, want)
	}
	return nil
}
