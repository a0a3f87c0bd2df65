// Package sortapp reimplements Sample and Sampleb, the paper's Split-C
// sample-sort applications (Table 5: 1M keys each). Sample exchanges keys
// with am_request messages carrying two doubles each — the most
// communication-intensive program in the suite — while Sampleb is the bulk
// variant that batches each destination's keys into bulk stores.
package sortapp

import (
	"fmt"
	"math"
	"sort"

	"mproxy/internal/am"
	"mproxy/internal/apps"
	"mproxy/internal/coll"
	"mproxy/internal/costmodel"
	"mproxy/internal/splitc"
)

const oversample = 8

// Sort is one run of sample sort.
type Sort struct {
	Keys int  // total keys
	Bulk bool // Sampleb: batch the key exchange

	hKey    int // AM handler (Sample variant)
	nRemote []int
	recvd   [][]float64
	buckets [][]float64 // final sorted buckets
	input   summary
}

type summary struct {
	count int
	sum   float64
	min   float64
	max   float64
}

func (s *summary) add(k float64) {
	if s.count == 0 || k < s.min {
		s.min = k
	}
	if s.count == 0 || k > s.max {
		s.max = k
	}
	s.count++
	s.sum += k
}

// New returns a sample-sort instance.
func New(keys int, bulk bool) *Sort { return &Sort{Keys: keys, Bulk: bulk} }

// Name implements apps.App.
func (s *Sort) Name() string {
	if s.Bulk {
		return "Sampleb"
	}
	return "Sample"
}

// key generates the deterministic input key stream.
func key(g int) float64 {
	x := uint64(g)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return float64(x%1000000007) / 1000.0
}

// refKey keys the shared input summary, the reference Verify checks the
// sorted output against. Sample and Sampleb read the same key stream.
type refKey struct{ keys int }

// inputSummary summarizes the first n keys of the input stream.
func inputSummary(n int) summary {
	var s summary
	for g := 0; g < n; g++ {
		s.add(key(g))
	}
	return s
}

// Setup implements apps.App.
func (s *Sort) Setup(env *apps.Env) {
	p := env.Procs()
	s.recvd = make([][]float64, p)
	s.nRemote = make([]int, p)
	s.buckets = make([][]float64, p)
	s.input = apps.Reference(refKey{s.Keys}, func() summary { return inputSummary(s.Keys) })
	if !s.Bulk {
		s.hKey = env.AM.Register(func(port *am.Port, src int, args []int64, _ []byte) {
			s.recvd[port.Rank()] = append(s.recvd[port.Rank()], am.I2F(args[0]))
			s.nRemote[port.Rank()]++
		})
	}
}

// localKeys returns rank's cyclic share of the input.
func localKeys(total, p, rank int) []float64 {
	var out []float64
	for g := rank; g < total; g += p {
		out = append(out, key(g))
	}
	return out
}

// splitters computes the P-1 splitters from the gathered sample.
func splitters(sample []float64, p int) []float64 {
	sort.Float64s(sample)
	sp := make([]float64, p-1)
	for i := 1; i < p; i++ {
		sp[i-1] = sample[i*len(sample)/p]
	}
	return sp
}

// bucketOf returns the destination bucket for a key.
func bucketOf(sp []float64, k float64) int {
	lo, hi := 0, len(sp)
	for lo < hi {
		mid := (lo + hi) / 2
		if k < sp[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Body implements apps.App.
func (s *Sort) Body(env *apps.Env, rank int) {
	c := env.SC.Ctx(rank)
	p := c.Procs()
	co := c.Comm()
	port := c.Port()
	mine := localKeys(s.Keys, p, rank)

	env.MarkStart(rank)

	// Phase 1: local sort and sampling.
	sort.Float64s(mine)
	c.Endpoint().Compute(costmodel.IntOps(3 * len(mine) * log2(len(mine)+1)))
	mySample := make([]float64, 0, oversample)
	for i := 0; i < oversample; i++ {
		mySample = append(mySample, mine[(2*i+1)*len(mine)/(2*oversample)])
	}

	// Phase 2: splitter selection. Rank 0 gathers samples through the
	// collective scan-free path: each rank contributes its samples via
	// AllReduce slots (one reduce per slot keeps the protocol simple and
	// log-depth).
	var sp []float64
	if p > 1 {
		all := make([]float64, p*oversample)
		for slot := 0; slot < p*oversample; slot++ {
			v := 0.0
			if slot/oversample == rank {
				v = mySample[slot%oversample]
			}
			all[slot] = co.AllReduce(v, coll.Sum)
		}
		sp = splitters(all, p)
	}

	// Phase 3: key exchange.
	if p > 1 {
		if s.Bulk {
			s.exchangeBulk(env, c, rank, mine, sp)
		} else {
			s.exchangeFine(env, c, rank, mine, sp)
		}
	} else {
		c.Endpoint().Compute(costmodel.IntOps(400 * len(mine)))
		s.recvd[0] = mine
	}

	// Phase 4: sort the received bucket.
	bucket := append([]float64(nil), s.recvd[rank]...)
	sort.Float64s(bucket)
	c.Endpoint().Compute(costmodel.IntOps(3 * len(bucket) * log2(len(bucket)+1)))
	s.buckets[rank] = bucket
	env.MarkStop(rank)
	_ = port
}

// exchangeFine sends every key in its own am_request carrying two doubles
// (key and sequence tag), exactly as the paper describes Sample's main
// communication phase.
func (s *Sort) exchangeFine(env *apps.Env, c *splitc.Ctx, rank int, mine []float64, sp []float64) {
	port := c.Port()
	co := c.Comm()
	sent := 0
	for i, k := range mine {
		// Per-key record processing (~6 us serial per key, which is what
		// the paper's T(1) = 6.06 s over 1M keys implies).
		c.Endpoint().Compute(costmodel.IntOps(400))
		dst := bucketOf(sp, k)
		if dst == rank {
			s.recvd[rank] = append(s.recvd[rank], k)
			continue
		}
		port.Request(dst, s.hKey, am.F2I(k), int64(i))
		sent++
		// Poll between sends so incoming keys are drained promptly.
		port.PollAll()
	}
	// Termination: iterate until globally sent == received.
	for {
		port.PollAll()
		co.Barrier()
		total := co.AllReduce(float64(sent), coll.Sum)
		got := co.AllReduce(float64(s.nRemote[rank]), coll.Sum)
		if total == got {
			co.Barrier()
			return
		}
	}
}

// exchangeBulk batches keys per destination: an all-gather of counts fixes
// the receive layout, then one bulk store per destination moves the data.
func (s *Sort) exchangeBulk(env *apps.Env, c *splitc.Ctx, rank int, mine []float64, sp []float64) {
	p := c.Procs()
	co := c.Comm()

	// Bucketize locally into per-destination runs (same per-key record
	// processing as the fine-grained variant).
	runs := make([][]float64, p)
	for _, k := range mine {
		dst := bucketOf(sp, k)
		runs[dst] = append(runs[dst], k)
	}
	c.Endpoint().Compute(costmodel.IntOps(400 * len(mine)))

	// All-gather the p x p count matrix, one AllReduce per cell.
	counts := make([][]int, p)
	for src := range counts {
		counts[src] = make([]int, p)
	}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			v := 0.0
			if src == rank {
				v = float64(len(runs[dst]))
			}
			counts[src][dst] = int(co.AllReduce(v, coll.Sum))
		}
	}

	// My receive buffer: contributions ordered by source. Heap layout
	// must be symmetric across ranks, so size both areas by the global
	// maxima (every rank has the full count matrix).
	recvTotal := 0
	for src := 0; src < p; src++ {
		recvTotal += counts[src][rank]
	}
	maxRecv, maxSend := 0, 0
	for dst := 0; dst < p; dst++ {
		tot := 0
		for src := 0; src < p; src++ {
			tot += counts[src][dst]
			if counts[src][dst] > maxSend {
				maxSend = counts[src][dst]
			}
		}
		if tot > maxRecv {
			maxRecv = tot
		}
	}
	recvBase := c.AllAlloc((maxRecv + 1) * 8)
	sendBase := c.AllAlloc((maxSend + 1) * 8 * p)

	// Offset of my block within dst's receive buffer.
	offsetAt := func(dst int) int {
		off := 0
		for src := 0; src < rank; src++ {
			off += counts[src][dst]
		}
		return off
	}
	for dst := 0; dst < p; dst++ {
		if len(runs[dst]) == 0 {
			continue
		}
		if dst == rank {
			s.recvd[rank] = append(s.recvd[rank], runs[dst]...)
			continue
		}
		buf := c.LocalF64(sendBase+dst*(maxSend+1)*8, len(runs[dst]))
		buf.Store(runs[dst])
		c.Endpoint().Compute(costmodel.Copy(len(runs[dst]) * 8))
		c.StoreBulk(sendBase+dst*(maxSend+1)*8,
			splitc.GPtr{Proc: dst, Off: recvBase + offsetAt(dst)*8}, len(runs[dst])*8)
	}
	c.AllStoreSync()

	// Unpack the receive buffer.
	view := c.LocalF64(recvBase, recvTotal)
	off := 0
	for src := 0; src < p; src++ {
		n := counts[src][rank]
		if src == rank {
			off += n // already appended locally
			continue
		}
		for i := 0; i < n; i++ {
			s.recvd[rank] = append(s.recvd[rank], view.Get(off+i))
		}
		off += n
	}
	c.Endpoint().Compute(costmodel.Copy(recvTotal * 8))
}

func log2(n int) int {
	k := 0
	for v := 1; v < n; v *= 2 {
		k++
	}
	return k
}

// Verify implements apps.App.
func (s *Sort) Verify() error {
	var out summary
	prevMax := math.Inf(-1)
	for r, b := range s.buckets {
		for i, k := range b {
			if i > 0 && b[i-1] > k {
				return fmt.Errorf("bucket %d not sorted at %d", r, i)
			}
			out.add(k)
		}
		if len(b) > 0 {
			if b[0] < prevMax {
				return fmt.Errorf("bucket %d overlaps bucket %d", r, r-1)
			}
			prevMax = b[len(b)-1]
		}
	}
	if out.count != s.input.count {
		return fmt.Errorf("key count %d, want %d", out.count, s.input.count)
	}
	if math.Abs(out.sum-s.input.sum) > 1e-6*math.Max(1, math.Abs(s.input.sum)) {
		return fmt.Errorf("key sum %.9g, want %.9g", out.sum, s.input.sum)
	}
	if out.min != s.input.min || out.max != s.input.max {
		return fmt.Errorf("min/max mismatch")
	}
	return nil
}
